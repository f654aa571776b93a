"""``serve-daemon``: the whole path a user of the TCP daemon sees.

The workload starts ``python -m repro.cli daemon --port 0`` (default
in-process service settings: plan engine, ``auto`` kernel, max batch 32,
2 ms coalescing window, 1024-entry response cache) and drives it from this
process over two TCP connections:

1. an open loop at a fixed light rate (``RATE`` requests/s, spaced evenly),
   each request timed from its scheduled send -- the requests of this phase
   that ran a forward (not answered from the cache) are the operations;
2. a burst: each connection keeps ``WINDOW`` requests in flight for the
   rest of the run, in slices drained between them while the speed gauge
   runs -- completed requests per second give the capacity.

About a fifth of requests repeat an earlier request (``REPEAT_SHARE``), so
the response cache and in-batch dedup do real work.  Every response is
hashed on arrival; the checks compare each hash with solo in-process
inference of the same tokens.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter, deque

import numpy as np

from checks import Check
from common import Workload, percentile
from encode import TOKEN_HIGH, TOKEN_LOW

RATE = 100.0
CONNECTIONS = 2
WINDOW = 8
REPEAT_SHARE = 0.2
LIGHT_SHARE = 0.5
#: The burst runs in slices this long, each drained before the speed gauge
#: runs (see ``common.RateMeter``).
BURST_SLICE_S = 1.0
WARMUP_REQUESTS = [[1] * length for length in range(8, 17)]
_LISTENING = re.compile(rb"listening on ([0-9.]+):([0-9]+)")


def _digest(hidden: list) -> str:
    array = np.asarray(hidden, dtype=np.float64)
    return hashlib.sha1(repr(array.shape).encode()
                        + array.tobytes()).hexdigest()


class ServeDaemon(Workload):
    name = "serve-daemon"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rng = np.random.default_rng(seed)
        self.requests: list = []          # token tuples, by request index
        self.responses: dict = {}         # request index -> digest
        self.errors: Counter = Counter()  # typed wire error code -> count
        self.sent = 0
        self.received = 0
        self.lateness: list = []
        self.cache_hits = 0
        self.proc = None
        self.tracer = None
        self.stats_marks: dict = {}

    # ------------------------------------------------------------ daemon
    def setup(self) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "daemon", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before listening")
            match = _LISTENING.search(line)
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                break
        self.setup_ms["model_build"] = (time.perf_counter() - start) * 1e3
        self.loop = asyncio.new_event_loop()
        self.conns = self.loop.run_until_complete(self._connect())
        self.timed("warmup", lambda: self.loop.run_until_complete(
            self._warmup()))

    async def _connect(self):
        conns = []
        for _ in range(CONNECTIONS):
            conns.append(await asyncio.open_connection(
                self.host, self.port, limit=1 << 22))
        return conns

    async def _call(self, conn, payload: dict) -> dict:
        reader, writer = conn
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    async def _warmup(self) -> None:
        for i, tokens in enumerate(WARMUP_REQUESTS * 2):
            reply = await self._call(self.conns[i % CONNECTIONS],
                                     {"op": "infer", "id": f"w{i}",
                                      "tokens": tokens})
            if not reply.get("ok"):
                raise RuntimeError(f"warm-up request failed: {reply}")

    def stats(self) -> dict:
        span = self.tracer.enter("serve.stats") if self.tracer else None
        reply = self.loop.run_until_complete(
            self._call(self.conns[0], {"op": "stats"}))
        if span is not None:
            self.tracer.exit(span)
        return reply["stats"]

    def close(self) -> None:
        if self.proc is None:
            return
        if getattr(self, "loop", None) is not None:
            for _, writer in getattr(self, "conns", []):
                writer.close()
            self.loop.close()
            self.loop = None
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None

    # ---------------------------------------------------------- requests
    def _new_request(self) -> int:
        rng = self.rng
        if self.requests and rng.random() < REPEAT_SHARE:
            tokens = self.requests[int(rng.integers(len(self.requests)))]
        else:
            length = int(rng.integers(8, 17))
            tokens = tuple(int(t) for t in
                           rng.integers(TOKEN_LOW, TOKEN_HIGH, size=length))
        self.requests.append(tokens)
        return len(self.requests) - 1

    def _line(self, index: int) -> bytes:
        self.sent += 1
        return json.dumps({"op": "infer", "id": index,
                           "tokens": list(self.requests[index])}
                          ).encode() + b"\n"

    def _receive(self, index: int, raw: bytes) -> bool:
        """Account one reply; True when it was answered from the cache."""
        if not raw:
            return False  # connection closed: the request counts as lost
        self.received += 1
        reply = json.loads(raw)
        if reply.get("id") != index:
            self.errors["OutOfOrder"] += 1
        elif reply.get("ok"):
            self.responses[index] = _digest(reply["hidden"])
            return bool(reply.get("cached"))
        else:
            self.errors[reply.get("error", "Unknown")] += 1
        return False

    async def _open_loop(self, count: int, latencies: list,
                         every: list) -> None:
        """Send ``count`` requests at ``RATE``; ``every`` gets each request's
        latency, ``latencies`` those of the requests that ran a forward."""
        start = time.perf_counter() + 0.01
        plan = [[] for _ in range(CONNECTIONS)]
        for i in range(count):
            plan[i % CONNECTIONS].append(start + i / RATE)

        async def sender(conn, times, queue):
            writer = conn[1]
            for due in times:
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                index = self._new_request()
                self.lateness.append(time.perf_counter() - due)
                writer.write(self._line(index))
                queue.append((index, due))
                await writer.drain()

        async def receiver(conn, times, queue):
            reader = conn[0]
            for _ in times:
                raw = await reader.readline()
                index, due = queue.popleft()
                now = time.perf_counter()
                every.append(now - due)
                if self._receive(index, raw):
                    self.cache_hits += 1
                else:
                    latencies.append(now - due)
                if self.tracer is not None:
                    self.tracer.record("serve.request", due, now, index)

        tasks = []
        for conn, times in zip(self.conns, plan):
            queue = deque()
            tasks += [sender(conn, times, queue),
                      receiver(conn, times, queue)]
        await asyncio.gather(*tasks)

    async def _slice(self, seconds: float) -> tuple:
        """Keep ``WINDOW`` requests in flight per connection for
        ``seconds``, then let them drain; (completions, seconds taken)."""
        start = time.perf_counter()
        end = start + seconds
        last = [start]
        done = [0]

        async def pipelined(conn):
            reader, writer = conn
            inflight = deque()

            def send():
                index = self._new_request()
                inflight.append((index, time.perf_counter()))
                writer.write(self._line(index))

            for _ in range(WINDOW):
                send()
            await writer.drain()
            while inflight:
                raw = await reader.readline()
                index, sent_at = inflight.popleft()
                now = time.perf_counter()
                done[0] += 1
                self._receive(index, raw)
                if self.tracer is not None:
                    self.tracer.record("serve.request", sent_at, now, index)
                last[0] = max(last[0], now)
                if now < end:
                    send()
                    await writer.drain()

        await asyncio.gather(*(pipelined(conn) for conn in self.conns))
        return done[0], last[0] - start

    def _burst(self, seconds: float) -> float:
        """The burst in slices of ``BURST_SLICE_S``, each drained before the
        speed gauge runs while the daemon is idle; returns the seconds the
        slices took."""
        self.meter.start()
        end = time.perf_counter() + seconds
        busy = 0.0
        while True:
            done, took = self.loop.run_until_complete(
                self._slice(BURST_SLICE_S))
            self.work += done
            busy += took
            self.meter.add(done, took)
            if time.perf_counter() >= end:
                return busy

    # ------------------------------------------------------------ phases
    def measure(self, seconds: float, tracer=None) -> None:
        self.tracer = tracer
        light = max(1, int(RATE * seconds * LIGHT_SHARE))
        latencies, every = [], []
        before = self.stats()
        self.loop.run_until_complete(
            self._open_loop(light, latencies, every))
        after_light = self.stats()
        self.work = 0
        self.elapsed = self._burst(seconds * (1.0 - LIGHT_SHARE))
        self.op_seconds.extend(latencies)
        self.attempted = self.sent
        self.failed = self.sent - len(self.responses)
        if tracer is not None:
            self.light_latencies = every
            self.stats_marks = {"before": before, "after_light": after_light}
        self.tracer = None

    def layer_metrics(self) -> dict:
        before = self.stats_marks["before"]
        after = self.stats_marks["after_light"]
        events_before = before.get("events", {})
        events_after = after.get("events", {})

        def delta(key):
            return after[key] - before[key]

        def event_delta(*names):
            return sum(events_after.get(n, 0) - events_before.get(n, 0)
                       for n in names)

        requests = delta("completed")
        batches = delta("batches")
        client_p50 = percentile(self.light_latencies, 50) * 1e3
        return {
            "serving.queue_wait_ms_p50": after["queue_wait_p50_ms"] or 0.0,
            "serving.queue_wait_ms_p99": after["queue_wait_p99_ms"] or 0.0,
            "serving.batch_size_mean": (requests - delta("cache_hits"))
            / batches if batches else 0.0,
            "serving.batches": float(batches),
            "serving.forward_ms_p50": after["forward_p50_ms"] or 0.0,
            "serving.cache_hits": float(delta("cache_hits")),
            "serving.requests": float(requests),
            "serving.wire_ms_p50": client_p50 - (after["p50_ms"] or 0.0),
            "serving.shed": float(event_delta("overloaded")),
            "serving.expired": float(event_delta("deadline_expired")),
        }

    def layer_report(self) -> list:
        m = self.layer_metrics()
        after = self.stats_marks["after_light"]
        return [
            "serve-daemon stage split at the light rate (p50, ms): client "
            f"{percentile(self.light_latencies, 50) * 1e3:.3f} = service "
            f"{after['p50_ms']} (queue wait "
            f"{m['serving.queue_wait_ms_p50']}, batch forward "
            f"{m['serving.forward_ms_p50']}) + wire and client "
            f"{m['serving.wire_ms_p50']:.3f}",
            "  the daemon runs in its own process, so its internals are "
            "reported from its stats op, not from spans; the self-time sum "
            "check applies to the in-process workloads"]

    def accounting(self) -> list:
        lost = self.sent - self.received
        late = self.lateness
        return [
            f"requests sent {self.sent}, succeeded {len(self.responses)}, "
            f"failed {sum(self.errors.values())} by error code "
            f"{dict(self.errors)}, lost {lost}",
            f"light-rate requests answered from the cache: "
            f"{self.cache_hits} (not operations)",
            f"open-loop generator lateness: p50 "
            f"{percentile(late, 50) * 1e3:.3f} ms, max "
            f"{max(late) * 1e3:.3f} ms over {len(late)} sends",
            f"burst: {self.work} requests completed in {self.elapsed:.3f} s "
            f"of slices",
            self.meter.line(),
        ]

    # ------------------------------------------------------------ checks
    def checks(self) -> list:
        from repro.serving.service import build_encoder_model

        model = build_encoder_model("tiny-base", seed=0)
        by_tokens: dict = {}
        for index, digest in self.responses.items():
            by_tokens.setdefault(self.requests[index], set()).add(digest)
        mismatched = 0
        for tokens, digests in by_tokens.items():
            solo = model.encode_ragged([list(tokens)], engine="plan")[0]
            if digests != {_digest(solo)}:
                mismatched += 1
        repeats = len(self.responses) - len(by_tokens)
        lost = self.sent - self.received
        return [
            Check("every response == solo in-process inference (bitwise)",
                  mismatched == 0 and by_tokens,
                  f"{len(by_tokens)} distinct token lists over "
                  f"{len(self.responses)} responses, {mismatched} differ"),
            Check("repeated requests get identical answers",
                  all(len(d) == 1 for d in by_tokens.values()),
                  f"{repeats} responses repeat an earlier token list"),
            Check("no request lost", lost == 0,
                  f"{self.sent} sent, {self.received} answered"),
        ]
