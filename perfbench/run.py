"""schmlab benchmark: time to a full set of certificates, and their quality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-bare --seed 1 --seconds 20 --trace 0

One harness process runs every job of the workload one at a time: CLI jobs
as ``python -m schmlab`` subprocesses, the other jobs in process.  It
repeats the whole job list while the next pass still fits in --seconds
(at least once), re-checks every output with numpy alone (checks.py), and
prints every metric with its unit.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).

With --trace 1, CLI jobs run in process through ``cli.main(argv)``; one
untraced pass and one traced pass (tracing.py) give the per-layer
figures and the tracing overhead.  Full records go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
COLD_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "cold_start_s": "s", "peak_rss_mb": "MB"}

ALL3 = ("calls", "total_s", "self_s")
SPAN_METRICS = {
    # cli-bare: remix upper bound and the per-vector SVD truncation
    "schmidt.sn_upper_bound": ALL3,
    "states.schmidt_rank": ("calls",),
    "states.PureState.normalized": ("calls",),
    "numpy.linalg.svd": ("calls", "self_s"),
    # edge-split: subtraction search, packing, PSD shave
    "schmidt.edge_decompose": ALL3,
    "schmidt.max_subtractable": ALL3,
    "schmidt._subtractable_candidates": ALL3,
    "schmidt._packing_weights": ALL3,
    "schmidt._project_to_support_sr": ("calls", "self_s"),
    "schmidt._seesaw_min_overlap": ("calls", "self_s"),
    "numpy.linalg.cholesky": ("calls",),
    "numpy.linalg.eigvalsh": ("calls",),
    "numpy.linalg.solve": ("calls",),
    # witness: shift-and-invert descent and the seesaw grid oracle
    "schmidt.min_overlap_sr": ALL3,
    "schmidt.min_overlap_grid": ALL3,
    "schmidt.build_witness": ALL3,
    "scipy.linalg.cho_factor": ("calls",),
    "scipy.linalg.cho_solve": ("calls",),
    "numpy.linalg.eigh": ("calls",),
    "numpy.linalg.qr": ("calls",),
    # cli-short: front end, file formats, lower bound, channels, builders
    "cli.main": ALL3,
    "io.load_state": ALL3,
    "io.load_channel": ALL3,
    "io.save_state": ALL3,
    "io.certificate_to_dict": ALL3,
    "schmidt.sn_lower_bound": ALL3,
    "channels.certify_peb": ALL3,
    "channels.kraus_to_choi": ALL3,
    "channels.choi_to_kraus": ALL3,
    "channels.kraus_rank_profile": ALL3,
    "constructions.build_sn_k_state": ALL3,
    "constructions.build_rotation_state": ALL3,
    "constructions.rotation_erosion_sweep": ALL3,
    "linalg.eigh": ALL3,
    "linalg.min_eigenvalue": ALL3,
    "linalg.partial_trace": ALL3,
}
OTHER_LAYER_METRICS = {
    "import.schmlab_s": "s",
    "import.scipy_linalg_s": "s",
    "schmidt.remix_trials": "count",
    "schmidt.overlap_restarts": "count",
    "schmidt.grid_samples": "count",
    "schmidt.subtract_restarts": "count",
    "schmidt.edge_rounds": "count",
    "schmidt.edge_removed": "count",
    "bound_gap": "count",
    "edge_p_sum": "1",
    "witness_eps_sum": "1",
    "fail_ratio": "1",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "1",
}


def per_layer_units() -> dict:
    units = {}
    for name, fields in SPAN_METRICS.items():
        for f in fields:
            units[f"{name}.{f}"] = "count" if f == "calls" else "s"
    units.update(OTHER_LAYER_METRICS)
    return units


class JobFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SCHMLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_subprocess(argv: list) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed


def cold_start() -> float:
    """What every CLI call pays before any work: start, import, parse."""
    return timed_subprocess([sys.executable, "-m", "schmlab", "--version"])


def environment(threads_setting) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no machine-readable build info
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.platform()}",
        "SCHMLAB_THREADS": threads_setting if threads_setting is not None else "unset",
    }


def execute(job, cli_in_process: bool):
    if job.call is not None:
        return job.call()
    if job.output is not None and job.output.exists():
        job.output.unlink()
    if cli_in_process:
        from schmlab import cli

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise JobFailed(f"cli.main exited {code}")
        return job.output
    proc = subprocess.run([sys.executable, "-m", "schmlab", *job.argv],
                          env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise JobFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return job.output


def run_pass(jobs, cli_in_process: bool, tracer=None):
    """Run every job once; return (per-job results, first start to last end)."""
    results = []
    first = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        start = time.perf_counter()
        try:
            out, err = execute(job, cli_in_process), None
        except Exception as exc:  # a failed job is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((job, out, err, time.perf_counter() - start))
    return results, time.perf_counter() - first


def check_pass(results, pass_index: int) -> list:
    records = []
    for job, out, err, seconds in results:
        quality = {}
        if err is None:
            try:
                quality = job.check(out)
            except Exception as exc:  # any failed check counts as a failed job
                err = f"check: {type(exc).__name__}: {exc}"
        records.append({"job": job.name, "pass": pass_index, "seconds": seconds,
                        "ok": err is None, "error": err, **job.meta, **quality})
    return records


def quality(records: list) -> dict:
    """Certificate quality of one pass; outputs are deterministic per seed."""
    first = [r for r in records if r["pass"] == 0]
    return {
        "bound_gap": sum(r["upper"] - r["lower"] for r in first if "upper" in r),
        "edge_p_sum": sum(r["p"] for r in first
                          if "p" in r and r.get("class") == "mixture"),
        "witness_eps_sum": sum(r["eps"] for r in first
                               if "eps" in r and r.get("class") == "mixed"),
        "edge_rounds": sum(r.get("rounds", 0) for r in first),
        "edge_removed": sum(r.get("removed", 0) for r in first),
    }


def import_times() -> dict:
    """Cumulative import time of schmlab and scipy.linalg in a fresh interpreter."""
    samples = {"schmlab": [], "scipy.linalg": []}
    for _ in range(COLD_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import schmlab"],
                              env=child_env(), capture_output=True, text=True, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found[parts[2].strip()] = int(parts[1]) / 1e6
        for name in samples:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def untraced(args, jobs, workdir: Path):
    if args.workload in inputs.IN_PROCESS:
        tracing.assert_unpatched()
    setup = statistics.median(
        timed_subprocess([sys.executable, str(HERE / "run.py"), "--workload",
                          args.workload, "--seed", str(args.seed),
                          "--setup-only", str(workdir / f"setup{i}")])
        for i in range(SETUP_REPEATS))
    cold = [cold_start() for _ in range(COLD_REPEATS // 2)]
    records, walls = [], []
    begin = time.perf_counter()
    while True:
        results, wall = run_pass(jobs, cli_in_process=False)
        walls.append(wall)
        records += check_pass(results, len(walls) - 1)
        if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break
    cold += [cold_start() for _ in range(COLD_REPEATS - len(cold))]
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    metrics = {"setup_s": setup, "wall_s": statistics.median(walls),
               "cold_start_s": statistics.median(cold), "peak_rss_mb": sum(usage) / 1024.0}
    return metrics, records, {"pass_walls_s": walls}


def traced(args, jobs):
    import schmlab.cli  # noqa: F401  loads every layer before patching
    import schmlab.io  # noqa: F401

    tracing.assert_unpatched()
    results, base_wall = run_pass(jobs, cli_in_process=True)
    records = check_pass(results, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, wall = run_pass(jobs, cli_in_process=True, tracer=tracer)
    finally:
        tracer.uninstall()
    tracing.assert_unpatched()
    records += check_pass(results, 1)
    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")

    metrics = {}
    for name, fields in SPAN_METRICS.items():
        stats = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for f in fields:
            metrics[f"{name}.{f}"] = stats[f]
    imports = import_times()
    metrics["import.schmlab_s"] = imports["schmlab"]
    metrics["import.scipy_linalg_s"] = imports["scipy.linalg"]
    for _, name in tracing.TAG_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    return metrics, records, {"base_wall": base_wall, "wall": wall, "spans": summary}


def report(args, metrics: dict, units: dict, records: list, extra: dict, env: dict):
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    q = quality(records)
    if args.trace:
        metrics.update({
            "schmidt.edge_rounds": q["edge_rounds"], "schmidt.edge_removed": q["edge_removed"],
            "bound_gap": q["bound_gap"], "edge_p_sum": q["edge_p_sum"],
            "witness_eps_sum": q["witness_eps_sum"], "fail_ratio": failed / attempted,
            "trace.wall_s": extra["wall"], "trace.untraced_wall_s": extra["base_wall"],
            "trace.overhead": extra["wall"] / extra["base_wall"],
        })
    print("environment: " + json.dumps(env, sort_keys=True))
    for r in records:
        fields = {k: v for k, v in r.items() if k not in ("job", "pass", "seconds", "ok", "error")}
        status = "ok" if r["ok"] else f"FAILED {r['error']}"
        print(f"  pass {r['pass']} {r['job']:<24} {r['seconds']:8.3f} s  {fields}  {status}")
    print(f"quality: bound_gap={q['bound_gap']} edge_p_sum={q['edge_p_sum']:.6g} "
          f"witness_eps_sum={q['witness_eps_sum']:.6g} fail_ratio={failed}/{attempted}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "quality": q, "jobs": records,
              **{k: v for k, v in extra.items() if k not in ("base_wall", "wall")}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "schmlab" / "__init__.py").is_file():
        print(f"error: no schmlab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    threads_setting = os.environ.pop("SCHMLAB_THREADS", None)
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        workdir = Path(args.setup_only)
        workdir.mkdir(parents=True)
        inputs.make_jobs(args.workload, args.seed, workdir)
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = inputs.make_jobs(args.workload, args.seed, workdir)
        if args.trace:
            metrics, records, extra = traced(args, jobs)
            units = per_layer_units()
        else:
            metrics, records, extra = untraced(args, jobs, workdir)
            units = END_TO_END
        report(args, metrics, units, records, extra, environment(threads_setting))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
