"""Run plumbing shared by the workloads: spans, the Ray session, the
per-run scratch directory, deadlines and input hashing.

Nothing here imports the program; ``run.py`` puts the checkout on the
import path before any workload module is loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import statistics
import time

# Marks every process of one benchmark session: Ray's raylet, gcs_server
# and workers inherit this process's environment, so the marker finds them
# even after they were re-parented away from it.
SESSION_MARK = "PERFBENCH_SESSION"


class Interrupted(BaseException):
    """SIGTERM/SIGINT or the run deadline: unwinds to the cleanup
    ``finally`` in run.py (a BaseException, so no ``except Exception``
    in a library on the way can swallow it)."""


class StopSignals:
    """Turns SIGTERM, SIGINT and a SIGALRM deadline into ``Interrupted``.

    Raised inside native code, the exception may surface wrapped in
    another one (a ``SystemError`` out of a Cython frame); ``reason``
    tells the caller a stop signal was the cause."""

    def __init__(self):
        self.reason = None
        self._holding = False

    def install(self, deadline_s: float) -> None:
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
            signal.signal(sig, self._stop)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)

    def hold(self) -> None:
        """From now on a signal is only recorded: cleanup runs to its
        end."""
        self._holding = True
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _stop(self, signum, _frame):
        if self.reason is None:
            self.reason = ("deadline" if signum == signal.SIGALRM
                           else signal.Signals(signum).name)
            if not self._holding:
                raise Interrupted(self.reason)


class Tracer:
    """In-memory spans, written out once when the run ends.

    A span is one call into a layer: name, start, end (seconds since the
    tracer was made), the id of the enclosing span and the run id.  A
    disabled tracer records nothing, so the same code runs traced and
    untraced."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run_id": self.run_id,
               "start": time.perf_counter() - self._t0, "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` (from span index
        ``since`` on)."""
        return sum(s["end"] - s["start"] for s in self.spans[since:]
                   if s["name"] == name and s["end"] is not None)

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans, **extra},
                      f, indent=1)


def median(xs) -> float:
    return float(statistics.median(xs))


def quantile(xs, q: float) -> float:
    """Linear-interpolated quantile, ``0 <= q <= 1``."""
    s = sorted(xs)
    if len(s) == 1:
        return float(s[0])
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_bytes(path: str, suffix: str = "") -> tuple[int, int]:
    """(total bytes, file count) of the files under ``path`` ending in
    ``suffix``."""
    total = count = 0
    for d, _, files in os.walk(path):
        for name in files:
            if name.endswith(suffix):
                total += os.path.getsize(os.path.join(d, name))
                count += 1
    return total, count


def _proc_status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


class RaySession:
    """One Ray session at ``num_cpus`` CPUs with its state under
    ``temp_dir``, and the means to prove it is gone afterwards."""

    def __init__(self, temp_dir: str, session_id: str, num_cpus: int):
        self.temp_dir = temp_dir
        self.session_id = session_id
        self.num_cpus = num_cpus
        self.started = False

    def start(self) -> None:
        import logging

        os.environ[SESSION_MARK] = self.session_id
        import ray

        self.started = True
        ray.init(num_cpus=self.num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 1024 * 1024,
                 _temp_dir=self.temp_dir)
        # ray.init installs its own SIGTERM handler; ours must win so the
        # signal reaches the cleanup path as Interrupted
        signal.signal(signal.SIGTERM, signal.getsignal(signal.SIGINT))
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def processes(self) -> list[int]:
        """PIDs (other than this process) carrying the session marker."""
        mark = f"{SESSION_MARK}={self.session_id}".encode()
        me = os.getpid()
        out = []
        for name in os.listdir("/proc"):
            if not name.isdigit() or int(name) == me:
                continue
            try:
                with open(f"/proc/{name}/environ", "rb") as f:
                    if mark in f.read().split(b"\0"):
                        out.append(int(name))
            except OSError:
                continue
        return out

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of this process and every session process."""
        kb = _proc_status_kb(os.getpid(), "VmHWM")
        kb += sum(_proc_status_kb(p, "VmHWM") for p in self.processes())
        return kb / 1024.0

    def stop(self, grace_s: float = 10.0) -> list[str]:
        """Shut Ray down, wait for its processes, kill survivors.
        Returns a description of every process that had to be killed."""
        if not self.started:
            return []
        import ray

        try:
            ray.shutdown()
        finally:
            self.started = False
        end = time.monotonic() + grace_s
        left = self.processes()
        while left and time.monotonic() < end:
            time.sleep(0.1)
            left = self.processes()
        strays = []
        for pid in left:
            strays.append(f"{pid}: {_cmdline(pid)[:120]}")
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        end = time.monotonic() + 5.0
        while self.processes() and time.monotonic() < end:
            time.sleep(0.1)
        return strays
