"""Deadline-bounded, optionally traced calls into the program.

Every call the benchmark makes into the engine goes through :class:`Calls`.
It counts the call as attempted, enforces a deadline, times the call itself
(inside the thread that runs it, so hand-off costs stay out of the sample)
and, when tracing is on, records a span.  A call that misses its deadline is
a stall: it counts as failed, its worker thread is abandoned, and
:class:`Stall` tells the caller to give up on the rest of the run instead of
hanging.
"""

from __future__ import annotations

import contextlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout


class Stall(Exception):
    """A call into the program missed its deadline."""


class Tracer:
    """In-memory spans: (id, parent id, name, start, end), written out at the
    end of the run.  Disabled, it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []

    def record(self, name: str, t0: float, t1: float) -> None:
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((len(self.spans), parent, name, t0, t1))

    @contextlib.contextmanager
    def step(self, name: str):
        """Parent span of the calls made inside one step of the run."""
        if not self.enabled:
            yield
            return
        idx, parent, t0 = len(self.spans), (self._stack[-1] if self._stack else None), time.perf_counter()
        self.spans.append((idx, parent, name, t0, t0))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (idx, parent, name, t0, time.perf_counter())

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _i, _p, n, t0, t1 in self.spans if n == name]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, p, n, t0, t1 in self.spans:
                f.write(json.dumps({"id": i, "parent": p, "name": n, "start": t0, "end": t1}) + "\n")


def _timed(fn, args, kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    t1 = time.perf_counter()
    return out, t0, t1


class Calls:
    """Attempt / failure ledger plus the deadline-bounded call helpers."""

    def __init__(self, tracer: Tracer, run_deadline: float):
        self.tracer = tracer
        self.run_deadline = run_deadline  # perf_counter() value
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._pool = ThreadPoolExecutor(1)

    def _timeout(self, timeout: float) -> float:
        return max(0.1, min(timeout, self.run_deadline - time.perf_counter()))

    def _stall(self, name: str) -> Stall:
        self.failed += 1
        self.notes.append(f"stall: {name}")
        # the stuck thread cannot be stopped; later calls get a fresh one
        self._pool.shutdown(wait=False)
        self._pool = ThreadPoolExecutor(1)
        return Stall(name)

    def run(self, name: str, fn, *args, timeout: float = 60.0, **kwargs):
        """Call ``fn(*args, **kwargs)`` under a deadline → (result, seconds)."""
        self.attempted += 1
        fut = self._pool.submit(_timed, fn, args, kwargs)
        try:
            out, t0, t1 = fut.result(timeout=self._timeout(timeout))
        except FutureTimeout:
            raise self._stall(name) from None
        except Exception as e:
            self.failed += 1
            self.notes.append(f"error: {name}: {type(e).__name__}: {e}"[:300])
            raise
        self.tracer.record(name, t0, t1)
        return out, t1 - t0

    def get(self, name: str, method, *args, timeout: float = 30.0):
        """``ray.get(method.remote(*args))`` under a deadline → (result, seconds),
        timed from submit to result on this thread."""
        import ray

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = ray.get(method.remote(*args), timeout=self._timeout(timeout))
        except ray.exceptions.GetTimeoutError:
            self.failed += 1
            self.notes.append(f"stall: {name}")
            raise Stall(name) from None
        except Exception as e:
            self.failed += 1
            self.notes.append(f"error: {name}: {type(e).__name__}: {e}"[:300])
            raise
        t1 = time.perf_counter()
        self.tracer.record(name, t0, t1)
        return out, t1 - t0

    def check(self, ok: bool, what: str) -> None:
        """Count one checked output; a wrong one is a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.notes) < 50:
                self.notes.append(f"mismatch: {what}"[:300])

    def close(self) -> None:
        self._pool.shutdown(wait=False)
