"""One-CPU benchmark of the flagship write path, skewed profiles and tiered
serving.

    python3 perfbench/run.py --workload docs_ingest --seed 1 --seconds 25 \
        --trace 0

Runs one workload against the program in this checkout, checks its outputs
against computations made apart from the program, and prints one JSON
object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
and the spans go to ``.bench_traces/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import uuid

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 160        # before cleanup (up to 15 s more): 3 minutes a run
RAY_CPUS = 1


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["docs_ingest", "skewed_profiles", "tiered_serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _ray_temp_dir(scratch: str) -> tuple[str, str | None]:
    """Ray keeps its sockets under its temp dir, and a Unix socket path
    may not exceed 107 bytes; Ray appends about 70.  When the scratch dir
    is too deep for that, Ray gets a short symlink to it from the system
    temp dir: the session still lives in the checkout.  Returns the path
    to give Ray and the link's directory (None without one)."""
    real = os.path.join(scratch, "ray")
    os.makedirs(real)
    if len(real) + 70 <= 107:
        return real, None
    link_dir = tempfile.mkdtemp(prefix="pb")
    os.symlink(real, os.path.join(link_dir, "r"))
    return os.path.join(link_dir, "r"), link_dir


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(ROOT, "matrixprofile_1_ray")):
        print(f"no program to benchmark: {ROOT}/matrixprofile_1_ray is "
              f"missing", file=sys.stderr)
        return 2
    sf_dir = os.environ.get(
        "GRAFT_SF_DIR", os.path.join(os.path.expanduser("~"), "testdata",
                                     "sf0.1"))
    if not os.path.isfile(os.path.join(sf_dir, "documents.parquet")):
        print(f"no corpus: {sf_dir}/documents.parquet is missing (set "
              f"GRAFT_SF_DIR)", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # Ray workers import the program too: they inherit PYTHONPATH, not
    # this process's sys.path
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    base = os.path.join(ROOT, ".bench_scratch")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="r", dir=base)
    # the native kernel's build cache, per run, inside the checkout
    os.environ["XDG_CACHE_HOME"] = os.path.join(scratch, "cache")
    # Ray gives each 1-CPU worker one BLAS/OpenMP thread; the in-process
    # layer chain of a traced run gets the same
    os.environ.setdefault("OMP_NUM_THREADS", str(RAY_CPUS))

    import harness
    import workloads

    run_id = uuid.uuid4().hex[:12]
    ray_tmp, link_dir = _ray_temp_dir(scratch)
    session = harness.RaySession(ray_tmp, run_id, RAY_CPUS)
    tracer = harness.Tracer(run_id, bool(args.trace))
    ctx = workloads.Ctx(scratch=scratch, sf_dir=sf_dir,
                        seed=args.seed, seconds=args.seconds, tracer=tracer,
                        session=session)
    result = None
    checks, strays = [], []
    stop = harness.StopSignals()
    stop.install(DEADLINE_S - (time.perf_counter() - T_START))
    try:
        checks, attempted, failed, e2e, layers = \
            workloads.WORKLOADS[args.workload](ctx)
        correct = all(ok for _, ok, _ in checks)
        if args.trace:
            layers["setup.ray_init_s"] = ctx.setup["ray_init"]
            layers["setup.warm_s"] = ctx.setup["warm"]
            metrics = _metrics(spec["per_layer"], layers)
        else:
            e2e["setup_s"] = sum(ctx.setup.values())
            metrics = _metrics(spec["end_to_end"], e2e)
        result = {"correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
    except BaseException:
        if stop.reason is None:
            raise
        print(f"stopped: {stop.reason}", file=sys.stderr)
    finally:
        stop.hold()
        try:
            strays = session.stop()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            if link_dir:
                shutil.rmtree(link_dir, ignore_errors=True)
    if strays:
        print(f"killed {len(strays)} stray Ray processes: {strays}",
              file=sys.stderr)
    ctx.info["stray_processes_killed"] = strays
    ctx.info["setup_parts_s"] = ctx.setup
    ctx.info["checks"] = [{"name": n, "ok": ok, "detail": d}
                          for n, ok, d in checks]
    if args.trace:
        path = os.path.join(ROOT, ".bench_traces",
                            f"{args.workload}-seed{args.seed}-{run_id}.json")
        tracer.write(path, {"workload": args.workload, "info": ctx.info})
        ctx.info["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"info": ctx.info}, default=str))
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


def _metrics(spec: list, values: dict) -> dict:
    """Every metric BENCHMARK.json lists, with its unit; a per-layer
    metric the workload never produced (a layer it does not call) reads
    0."""
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in spec}


if __name__ == "__main__":
    sys.exit(main())
