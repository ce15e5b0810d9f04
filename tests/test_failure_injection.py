"""End-to-end failure injection: SIGKILL the DRIVER and (separately) a
Ray WORKER mid-rollup-job, then prove resume/retry yields byte-identical
row sets vs an uninterrupted run.

The earlier crash tests (test_state.py) simulate failure with a raised
exception inside the driver process; these run the real CLI job entry in
a subprocess (its own Ray cluster) and deliver real SIGKILLs:

- driver kill: no Python cleanup runs anywhere — the manifest must gate
  the rerun to exactly the unfinished partitions, and the combined output
  must equal a fresh run (resume-equals-fresh, north-rule resumability).
- worker kill: Ray's task retry must absorb the lost worker with NO rerun
  needed — the same invocation completes with equal output.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow.dataset as pads
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_FILES = 16
N_PARTS = 8


def _read_rollups(out_dir: str) -> pd.DataFrame:
    frames = []
    for name in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, name)
        if os.path.isdir(p) and not name.endswith(".tmp"):
            frames.append(pads.dataset(p).to_table().to_pandas())
    df = pd.concat(frames, ignore_index=True)
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)


def _cli(args, **kw):
    return [sys.executable, "-m", "matrixprofile_1_ray.cli", *args]


def _rollup_cmd(corpus: str, out: str):
    # jobs=1 so the manifest grows strictly one partition at a time — the
    # mid-job kill window is well-defined; 2 cpus keeps each partition
    # slow enough (~1-2 s) that polling can land between completions
    return _cli(["rollup", "--input", corpus, "--output", out,
                 "--partitions", str(N_PARTS), "--jobs", "1",
                 "--num-cpus", "2"])


def _manifest_lines(out: str) -> int:
    path = os.path.join(out, "_manifest.jsonl")
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


def _descendants(root_pid: int) -> list[int]:
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


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\x00", b" ").decode(errors="replace")
    except OSError:
        return ""


def _kill_tree(proc: subprocess.Popen):
    """SIGKILL the job's whole tree: process group first, then any
    stragglers that detached from the group (Ray daemons)."""
    pids = _descendants(proc.pid)
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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Deterministic pre-tokenized sequence corpus, written in-session."""
    from matrixprofile_1_ray.sources.sequences import (
        write_synthetic_sequences,
    )

    path = str(tmp_path_factory.mktemp("failinj") / "corpus")
    # 16 files of 150 rows -> 8 resume partitions of 2 files each
    write_synthetic_sequences(path, N_FILES * 150, seed=11,
                              rows_per_block=150)
    return path


@pytest.fixture(scope="module")
def fresh_run(corpus, tmp_path_factory):
    """One uninterrupted run — the equality baseline for both kill tests."""
    out = str(tmp_path_factory.mktemp("failinj") / "fresh")
    res = subprocess.run(_rollup_cmd(corpus, out), cwd=REPO,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-2000:]
    report = json.loads(res.stdout.strip().splitlines()[-1])
    assert report["done"] == N_PARTS
    return out


def test_driver_sigkill_then_resume_equals_fresh(corpus, fresh_run,
                                                 tmp_path):
    out = str(tmp_path / "killed")
    proc = subprocess.Popen(_rollup_cmd(corpus, out), cwd=REPO,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        # kill after >=2 partitions committed but well before all 8
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            n = _manifest_lines(out)
            if n >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("job exited before the kill could be injected")
            time.sleep(0.05)
        else:
            pytest.fail("no partition completed within the deadline")
    finally:
        _kill_tree(proc)

    n_before = _manifest_lines(out)
    assert 2 <= n_before < N_PARTS, (
        f"kill landed outside the mid-job window ({n_before} partitions "
        f"done) — widen the corpus if this recurs")

    # resume: completed partitions are skipped, the rest run to done
    res = subprocess.run(_rollup_cmd(corpus, out), cwd=REPO,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-2000:]
    report = json.loads(res.stdout.strip().splitlines()[-1])
    assert report["skipped"] >= 2
    assert report["skipped"] + report["done"] == N_PARTS
    # a partition mid-write at kill time may or may not have committed its
    # manifest line; either way the rerun total covers every partition
    assert report["skipped"] >= n_before - 1

    pd.testing.assert_frame_equal(_read_rollups(out),
                                  _read_rollups(fresh_run))


def test_worker_sigkill_job_survives(corpus, fresh_run, tmp_path):
    out = str(tmp_path / "wkill")
    proc = subprocess.Popen(_rollup_cmd(corpus, out), cwd=REPO,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    killed = []
    try:
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline and len(killed) < 2:
            if proc.poll() is not None:
                break
            # target ACTIVE task workers (ray::MapBatches..., ray::Write
            # ...), not system actors (_StatsActor etc.) or idle workers
            active = [pid for pid in _descendants(proc.pid)
                      if "ray::Map" in _cmdline(pid)
                      or "ray::Write" in _cmdline(pid)
                      or "ray::Read" in _cmdline(pid)]
            for pid in active[:2 - len(killed)]:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except (ProcessLookupError, PermissionError):
                    pass
            time.sleep(0.02)
        out_text, _ = proc.communicate(timeout=600)
    except Exception:
        _kill_tree(proc)
        raise

    assert killed, "no active ray:: worker surfaced to kill mid-job"
    assert proc.returncode == 0, (
        f"job died after worker SIGKILL (killed pids {killed})")
    report = json.loads(out_text.strip().splitlines()[-1])
    assert report["done"] == N_PARTS and report["skipped"] == 0

    pd.testing.assert_frame_equal(_read_rollups(out),
                                  _read_rollups(fresh_run))
