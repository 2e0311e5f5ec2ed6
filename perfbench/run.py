"""gemdiff benchmark: one workload, its metrics, and a correctness verdict.

    python3 perfbench/run.py --workload sweeps-1d --seed 0 --seconds 32 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``perfbench/workloads.py``) with the ``GEM_*`` variables cleared and the
BLAS/OpenMP pools pinned to one thread, so the workload's own thread count
is the only parallelism.  An invocation

1. times ``import gemdiff`` + ``load_config`` in SETUP_SAMPLES fresh
   interpreters (``setup_s`` is their median);
2. runs untraced passes until ``--seconds`` would be exceeded, at least
   MIN_PASSES of them, and reports the sum over jobs of each job's median
   wall time, and the median peak memory;
3. on a workload with more than one thread, runs one untimed pass at one
   thread, whose artifacts must be byte-identical;
4. with ``--trace 1``, runs one traced pass and reports the per-layer
   metrics instead of the end-to-end ones.

Every check of every pass counts toward ``checks_passed_ratio``; any
failed check, job that raised, or artifact digest that differs between
passes makes the result incorrect and the exit status 1.  The last line
of standard output is the JSON result; the lines before it record the
environment, the per-check deviation table and each metric with its unit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import CONFIG, EXPERIMENTS, WORKLOADS, tolerance_used  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("checks_passed_ratio", "1"),
    ("tol_used_max", "1"),
)

# span name -> per-layer metrics drawn from it: (metric suffix, stat, unit)
_LAYER_STATS = (
    ("config.load_config", (("s", "s", "s"),)),
    ("solver1d.run_cycle", (("calls", "calls", "count"), ("self_s", "self_s", "s"))),
    (
        "solver1d.advance_step",
        (("calls", "calls", "count"), ("self_s", "self_s", "s"), ("cells", "work", "cells")),
    ),
    ("solver1d.slave_field", (("calls", "calls", "count"), ("s", "s", "s"))),
    ("solver1d.StepKernels.build", (("calls", "calls", "count"),)),
    ("transverse.solve_banded", (("calls", "calls", "count"), ("s", "s", "s"))),
    ("transverse.run_cycle_realspace", (("calls", "calls", "count"), ("self_s", "self_s", "s"))),
    ("transverse.run_cycle_quasi1d", (("calls", "calls", "count"), ("self_s", "self_s", "s"))),
    ("transverse.efficiency_kspace", (("calls", "calls", "count"), ("s", "s", "s"))),
    ("transverse.intensity_and_width", (("s", "s", "s"),)),
    ("transverse.extract_phase", (("s", "s", "s"),)),
    ("pulses.sample_temporal", (("calls", "calls", "count"), ("s", "s", "s"))),
    ("analytic.eff_total", (("s", "s", "s"),)),
    ("analytic.eff_write_exact", (("s", "s", "s"),)),
    ("analytic.hg_efficiency", (("s", "s", "s"),)),
    ("analytic.phase_theta", (("s", "s", "s"),)),
    ("model.derive_groups", (("calls", "calls", "count"),)),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"harness.experiment.%s.s" % exp: "s" for exp in EXPERIMENTS}
    units["harness.run_experiment.self_s"] = "s"
    units["harness.pool.wait_s"] = "s"
    for span, stats in _LAYER_STATS:
        for suffix, _, unit in stats:
            units["%s.%s" % (span, suffix)] = unit
    units["solver1d.advance_step.cells_per_s"] = "1/s"
    units["solver1d.fft_pair.calls"] = "count"
    units["solver1d.fft_pair.s"] = "s"
    units["svgplot.plot.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def per_layer(layers: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the span statistics of one traced pass."""

    def stat(span: str, key: str) -> float:
        return layers.get(span, {}).get(key, 0)

    values = {}
    for exp in EXPERIMENTS:
        values["harness.experiment.%s.s" % exp] = stat("harness.experiment." + exp, "s")
    values["harness.run_experiment.self_s"] = sum(
        stat("harness.experiment." + exp, "self_s") for exp in EXPERIMENTS
    )
    values["harness.pool.wait_s"] = sum(stats["wait_s"] for stats in layers.values())
    for span, stats in _LAYER_STATS:
        for suffix, key, _ in stats:
            values["%s.%s" % (span, suffix)] = stat(span, key)
    step_s = stat("solver1d.advance_step", "s")
    values["solver1d.advance_step.cells_per_s"] = (
        stat("solver1d.advance_step", "work") / step_s if step_s > 0 else 0.0
    )
    values["solver1d.fft_pair.calls"] = stat("solver1d.fft", "calls")
    values["solver1d.fft_pair.s"] = stat("solver1d.fft", "s") + stat("solver1d.ifft", "s")
    values["svgplot.plot.s"] = stat("svgplot.line_plot", "s") + stat("svgplot.heatmap", "s")
    values["trace.overhead_s"] = overhead_s
    return values


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("GEM_")}
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(root: Path, result: Path, args: list[str]) -> dict:
    """One fresh-interpreter pass or setup sample; its JSON result."""
    command = [sys.executable, str(HERE / "workloads.py"), *args, "--root", str(root)]
    command += ["--result", str(result)]
    subprocess.run(command, cwd=root, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(result.read_text(encoding="utf-8"))


def environment() -> dict:
    def cache(name: str):
        try:
            size = os.sysconf(name)
        except (ValueError, OSError):
            return None
        return size if size > 0 else None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": cache("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache("SC_LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": 1,
    }


def check_rows(result: dict) -> list[dict]:
    """The deviation table: every check of a pass with its tolerance share."""
    rows = []
    for job, data in result["jobs"].items():
        for check in data["checks"]:
            rows.append(
                {
                    "job": job,
                    "name": check["name"],
                    "value": check["value"],
                    "target": check["target"],
                    "kind": check["kind"],
                    "tolerance": check["tolerance"],
                    "tol_used": tolerance_used(check),
                    "passed": check["passed"],
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    needed = [root / "src" / "gemdiff" / "__init__.py", root / CONFIG]
    absent = [str(path) for path in needed if not path.is_file()]
    if absent:
        print("perfbench: not a gemdiff checkout, missing %s" % ", ".join(absent), file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = HERE / "work" / ("%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()

    setups = [
        run_child(root, work / ("setup-%d.json" % i), ["setup", "--seed", str(args.seed)])
        for i in range(SETUP_SAMPLES)
    ]
    env["config_digest"] = setups[0]["config_digest"]

    def one_pass(tag: str, threads: int, trace: int) -> dict:
        out = work / tag
        return run_child(
            root,
            work / (tag + ".json"),
            [
                "pass",
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--threads", str(threads),
                "--out", str(out),
                "--trace", str(trace),
            ],
        )

    threads = workload["threads"]
    passes = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(one_pass("pass-%d" % len(passes), threads, 0))
        last = time.perf_counter() - start
        spent = time.perf_counter() - began
        if len(passes) >= MIN_PASSES and spent + last > args.seconds:
            break
    extra = []
    if threads > 1:
        extra.append(("one-thread", one_pass("one-thread", 1, 0)))
    traced = None
    if args.trace:
        traced = one_pass("traced", threads, 1)
        extra.append(("traced", traced))

    reference = {job: data["digest"] for job, data in passes[0]["jobs"].items()}
    mismatches = [
        "%s %s" % (tag, job)
        for tag, result in [("pass-%d" % i, p) for i, p in enumerate(passes)] + extra
        for job, data in result["jobs"].items()
        if data["digest"] != reference[job]
    ]
    errors = [
        "%s: %s" % (job, data["error"].strip().splitlines()[-1])
        for result in passes
        for job, data in result["jobs"].items()
        if "error" in data
    ]
    attempted = failed = 0
    for result in passes:
        for data in result["jobs"].values():
            attempted += len(data["checks"]) + ("error" in data)
            failed += sum(not check["passed"] for check in data["checks"]) + ("error" in data)
    table = check_rows(passes[0])
    shares = [row["tol_used"] for row in table if row["tol_used"] is not None]
    walls = [p["wall_s"] for p in passes]
    # per-job medians, so a slow spell in one job of one pass is outvoted
    wall_s = sum(
        statistics.median(p["jobs"][job].get("wall_s", 0.0) for p in passes)
        for job in workload["jobs"]
    )
    correct = failed == 0 and not mismatches and bool(table)

    if args.trace:
        metrics = per_layer(traced["layers"], traced["wall_s"] - wall_s)
        units = per_layer_units()
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "checks_passed_ratio": (attempted - failed) / attempted if attempted else 0.0,
            "tol_used_max": max(shares) if shares else 0.0,
        }
        units = dict(END_TO_END)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "overrides": passes[0]["overrides"],
        "threads": threads,
        "environment": env,
        "pass_wall_s": walls,
        "setup_s": [s["setup_s"] for s in setups],
        "checks": table,
        "digests": reference,
        "digest_mismatches": mismatches,
        "errors": errors,
        "untraced_passes": len(passes),
        "metrics": metrics,
    }
    if traced is not None:
        report["trace_missing"] = traced["missing"]
        report["layers"] = traced["layers"]
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("workload %s seed %d threads %d overrides %s" % (
        args.workload, args.seed, threads, " ".join(report["overrides"]) or "none"))
    for key, value in env.items():
        print("env %s %s" % (key, value))
    for row in table:
        print(
            "check %-18s %-28s %-6s used=%-8s value=%s target=%s %s"
            % (
                row["job"],
                row["name"],
                row["kind"],
                "%.4f" % row["tol_used"] if row["tol_used"] is not None else "n/a",
                row["value"],
                row["target"],
                "PASS" if row["passed"] else "FAIL",
            )
        )
    for line in mismatches:
        print("digest mismatch: %s" % line)
    for line in errors:
        print("job raised: %s" % line)
    if traced is not None and traced["missing"]:
        print("perfbench: trace targets missing: %s" % ", ".join(traced["missing"]), file=sys.stderr)
    for name, value in metrics.items():
        print("metric %-40s %.6g %s" % (name, value, units[name]))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
