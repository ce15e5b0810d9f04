"""Process-tree helpers for tests that run a Ray job in a child process:
list a child's descendants through /proc (no psutil here) and SIGKILL
the whole tree, Ray daemons that left the process group included."""

import os
import signal
import subprocess


def descendants(root_pid: int) -> list[int]:
    """All live descendant pids of root_pid via /proc (no psutil here)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            children.setdefault(int(fields[1]), []).append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    out, stack = [], [root_pid]
    while stack:
        for kid in children.get(stack.pop(), []):
            out.append(kid)
            stack.append(kid)
    return out


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\x00", b" ").decode(errors="replace")
    except OSError:
        return ""


def kill_tree(proc: subprocess.Popen):
    """SIGKILL the job's whole tree: process group first, then any
    stragglers that detached from the group (Ray daemons)."""
    pids = descendants(proc.pid)
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for pid in [proc.pid, *pids]:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    proc.wait(timeout=30)
