"""Benchmark entry point.

    python3 perfbench/run.py --workload {build,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a sharesci-ray checkout.  The workload runs in a child
process (``perfbench.bench``); this supervisor gives it a hard deadline,
stops every process it leaves behind (Ray's local cluster included) and
prints the child's result JSON as the last line of standard output.  Exit
code 0 means a complete result was printed.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time

from host import children, descendants  # sibling module: run.py starts as a script

HARD_DEADLINE_S = 175
STOP_TIMEOUT_S = 20
_PR_SET_CHILD_SUBREAPER = 36


def _stop_all() -> None:
    """Kill and reap every process left below this one.  As a child
    subreaper, orphans of the workload (Ray daemons, workers) are
    re-parented here instead of to init, so none escape."""
    t_end = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < t_end:
        left = descendants(os.getpid())
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in children().get(os.getpid(), []):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)
    print("perfbench: some child processes did not exit", file=sys.stderr)


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    missing = [
        p for p in ("BENCHMARK.json", "sharesci_ray/pipelines/build.py", "tests/oracle.py")
        if not os.path.isfile(os.path.join(root, p))
    ]
    if missing:
        print(f"perfbench: not a sharesci-ray checkout ({root} lacks {missing})", file=sys.stderr)
        return 2
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    env = dict(os.environ)
    # Ray workers import the engine and the oracle from this checkout
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.bench", *sys.argv[1:]],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.extend(child.stdout), daemon=True)
    reader.start()
    try:
        code = child.wait(timeout=HARD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {HARD_DEADLINE_S}s; stopped", file=sys.stderr)
        child.kill()
        child.wait()
        code = -1
    _stop_all()
    reader.join(timeout=5)
    result = [ln for ln in lines if ln.startswith('{"correct"')]
    for ln in lines:
        if ln not in result:
            sys.stdout.write(ln)
    if code != 0 or not result:
        return 1
    sys.stdout.write(result[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
