"""Benchmark entry point.

    python3 perfbench/run.py --workload encode-short --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  Before any workload starts (outside every
timed window and outside ``setup_s``) it builds the compiled Softermax
extension from the checked-out source, as ``scripts/ci.sh`` does.  On a
machine with a C compiler a run where ``softermax-native`` did not register
fails instead of measuring the pure-Python engines.

The workload then runs in a fresh process (``child.py``).  ``setup_s`` is
the median over that process and ``SETUP_PROBES`` more that only set up,
each timed from its spawn to its first timed operation.  The last line
printed is the result: ``{"correct", "attempted", "failed", "metrics"}``,
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("encode-short", "encode-long", "serve-daemon", "finetune")
SETUP_PROBES = 2
#: Wall-clock budget of one invocation; every child is killed past it.
BUDGET_S = 170.0


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build_extension() -> bool:
    """Build the C extension in place; True when a compiler was found."""
    if not (shutil.which("cc") or shutil.which("gcc")):
        print("no C compiler found: measuring the pure-Python engines")
        return False
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
        raise RuntimeError("building the native extension failed")
    return True


def run_child(args, mode: str, deadline: float) -> dict:
    """Run ``child.py`` in its own process group; returns its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} process of {args.workload} timed out")
    finally:
        # A child that died mid-run may leave its own children (the
        # daemon, a kernel worker pool) behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process of {args.workload} exited with "
                           f"code {proc.returncode}")
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.time() + BUDGET_S
    if not (os.path.isfile("setup.py")
            and os.path.isdir(os.path.join("src", "repro"))):
        return fail("run from the root of a checkout of the repository "
                    "(setup.py and src/repro not found)", 2)
    try:
        compiler = build_extension()
        print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        result = run_child(args, "run", deadline)
        print(f"softermax-native registered: {result['native']}")
        if compiler and not result["native"]:
            return fail("a C compiler is present but softermax-native did "
                        "not register (REPRO_DISABLE_NATIVE set, or the "
                        "extension failed to load); refusing to measure "
                        "the pure-Python fallback")
        metrics = result["metrics"]
        if not args.trace:
            setups = [result["setup_s"]] + [
                run_child(args, "setup", deadline)["setup_s"]
                for _ in range(SETUP_PROBES)]
            print("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
            metrics["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        return fail(str(exc))
    from common import END_TO_END, PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
