"""Host context: a 1-wide fixed-work probe, load average and process memory.

The probe is context for reading a result on a shared machine, not a
metric: a slow probe means the whole run saw a slow CPU.
"""

from __future__ import annotations

import os
import time


def loop_s(n: int = 200_000) -> float:
    """Seconds for a fixed single-threaded arithmetic loop of ``n`` steps."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def probe() -> dict:
    """Time the fixed loop at 1M steps; add the load average and the CPU
    time counters."""
    out = {"probe_s": round(loop_s(1_000_000), 4), "cpus": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/stat") as f:
            # jiffies: user nice system idle iowait irq softirq steal ...
            out["cpu_jiffies"] = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        pass
    try:
        out["loadavg"] = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        pass
    return out


def steal_frac(before: dict, after: dict) -> float | None:
    """Share of CPU time between two probes that the hypervisor gave to
    other guests."""
    a, b = before.get("cpu_jiffies"), after.get("cpu_jiffies")
    if not a or not b or len(a) < 8 or len(b) < 8:
        return None
    total = sum(b[:8]) - sum(a[:8])
    return round((b[7] - a[7]) / total, 4) if total > 0 else None


def children() -> dict[int, list[int]]:
    """ppid → child pids, from /proc."""
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces and parentheses: split after it
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = children()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cpu_ticks(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime
    except (OSError, IndexError, ValueError):
        return 0


SETTLE_BUSY_FRAC = 0.2  # of one CPU
SETTLE_WINDOW_S = 0.1
SETTLE_MAX_S = 3.0


def settle() -> float:
    """Wait until this process and its descendants (Ray's daemons and
    workers) use less than a fifth of one CPU over 0.1 s, with
    the file system's dirty pages flushed first: a worker still starting,
    an actor being torn down, a finished job's clean-up or the write-back
    of earlier output would otherwise run inside the next timed call.  Returns the
    seconds waited (at most ``SETTLE_MAX_S``)."""
    hz = os.sysconf("SC_CLK_TCK")
    me = os.getpid()
    t0 = time.perf_counter()
    os.sync()  # dirty pages of earlier writes would be flushed during the call

    def ticks() -> int:
        return sum(_cpu_ticks(p) for p in [me, *descendants(me)])

    while time.perf_counter() - t0 < SETTLE_MAX_S:
        c0, w0 = ticks(), time.perf_counter()
        time.sleep(SETTLE_WINDOW_S)
        if (ticks() - c0) / hz < SETTLE_BUSY_FRAC * (time.perf_counter() - w0):
            break
    return time.perf_counter() - t0


def _rss_anon_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read(5) == b"ray::"
    except OSError:
        return False


def rss_mb() -> float:
    """Private (anonymous) resident memory of this process plus its Ray worker
    processes.  Shared object-store pages are left out, so nothing is
    counted twice."""
    me = os.getpid()
    pids = [me] + [p for p in descendants(me) if _is_ray_worker(p)]
    return sum(_rss_anon_kb(p) for p in pids) / 1024.0
