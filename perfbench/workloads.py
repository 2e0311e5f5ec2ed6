"""The benchmark's workloads and one pass over a workload.

A pass runs every job of a workload once against the benchmark config at
``standard`` fidelity, writes the artifacts, and reports the summed wall
time of the jobs, the process's peak resident memory, every tolerance
check, any job that raised, and a SHA-256 digest of each job's CSV and
``summary.json`` bytes.  Passes run in a fresh interpreter each::

    python3 perfbench/workloads.py setup --root . --seed 0 --result setup.json
    python3 perfbench/workloads.py pass --root . --workload sweeps-1d --seed 0 \\
        --threads 1 --out work/pass-0 --trace 0 --result pass-0.json

Only the standard library is imported at module level, so ``setup``
times the whole import of gemdiff and its numpy/scipy dependencies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path

CONFIG = "configs/rubidium_benchmark.cfg"
FIDELITY = "standard"

# Experiment jobs go through gemdiff.harness.run_experiment.  The full
# beam-width experiment (14 radial cycles) takes about a minute even at
# coarse fidelity, so its workload runs one hold point through the same
# library calls instead.
BEAM_JOB = "beam-width-point"
WORKLOADS = {
    "sweeps-1d": {
        "jobs": ("sweep-write", "sweep-hold", "sweep-transverse", "spinwave-kspace"),
        "threads": 1,
    },
    "beam-width": {"jobs": (BEAM_JOB,), "threads": 1},
    "budget-phase": {
        "jobs": ("storage-cycle", "efficiency-budget", "phase-profile"),
        "threads": 2,
    },
}
EXPERIMENTS = tuple(
    job for spec in WORKLOADS.values() for job in spec["jobs"] if job != BEAM_JOB
)

# Seeded perturbation: keys no experiment of the workloads pins, scaled by
# a factor drawn uniformly from [1 - PERTURBATION, 1 + PERTURBATION].
PERTURBED_KEYS = ("diffusivity", "t_width")
PERTURBATION = 0.02

# One hold point of the beam-width experiment at its standard radial grid:
# 2 us write lead, gradient kept on through the hold and flipped mid-hold,
# control off while holding, homogeneous and Gaussian control.
BEAM_T_LEAD = 2e-6
BEAM_T_HOLD = 8e-6
BEAM_GRID = {"n_medium": 160, "steps_per_width": 40.0, "n_r": 128}
BEAM_WIDTH_TOL = 0.10  # the experiment's width-law tolerance


def seed_overrides(seed: int, values: dict) -> list[str]:
    """``key=value`` override strings for a workload seed; none for seed 0."""
    if seed == 0:
        return []
    rng = random.Random(seed)
    return [
        "%s=%r" % (key, values[key] * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION)))
        for key in PERTURBED_KEYS
    ]


def load(root: Path, seed: int):
    """The benchmark config with the seed's overrides applied, and those."""
    from gemdiff import config

    base = config.load_config(root / CONFIG)
    overrides = seed_overrides(seed, base.values)
    if not overrides:
        return base, overrides
    return config.load_config(root / CONFIG, overrides), overrides


def import_gemdiff(root: Path):
    """Import gemdiff from the checkout's ``src``, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import gemdiff

    if Path(gemdiff.__file__).resolve().parent.parent != src:
        raise ImportError("gemdiff imported from %s, not %s" % (gemdiff.__file__, src))
    return gemdiff


def tolerance_used(check: dict) -> float | None:
    """Share of its tolerance a check uses; above 1 means it failed.

    rel: |value - target| / (tol |target|); abs: |value - target| / tol;
    range: distance from the centre over the half-width, except that a
    range starting at 0 is a one-sided smallness bound, value / hi;
    bool: 0 when true, 1 when false.
    """
    kind, value, target, tol = check["kind"], check["value"], check["target"], check["tolerance"]
    if kind == "bool":
        return 0.0 if check["passed"] else 1.0
    if value is None:
        return None
    if kind == "rel":
        return abs(value - target) / (tol * abs(target))
    if kind == "abs":
        return abs(value - target) / tol
    lo, hi = target
    if lo == 0.0 and value >= 0.0:
        return value / hi
    half = 0.5 * (hi - lo)
    return abs(value - (lo + half)) / half


def _check(name, value, target, tolerance, comparison, kind) -> dict:
    if kind == "rel":
        passed = math.isfinite(value) and abs(value - target) <= tolerance * abs(target)
    else:
        passed = bool(value)
    return {
        "name": name,
        "value": value if kind == "rel" else bool(value),
        "target": target,
        "tolerance": tolerance,
        "kind": kind,
        "comparison": comparison,
        "passed": bool(passed),
    }


def beam_width_point(cfg, out_dir: Path) -> dict:
    """Both controls at one beam-width hold time; width law as the check.

    The homogeneous-control width grows as w^2 = waist^2/4 + D (2 t_lead
    + t_hold), so (w^2 - waist^2/4) / (2 t_lead + t_hold) recovers D.
    The Gaussian control's phase curvature refocuses the beam, so its
    width must come out below the homogeneous one.
    """
    from dataclasses import replace

    from gemdiff import pulses, transverse
    from gemdiff.model import StorageProtocol

    out_dir.mkdir(parents=True, exist_ok=True)
    signal = replace(cfg.signal, t_lead=BEAM_T_LEAD, mode=(0, 0))
    tgrid = transverse.TransverseGrid.radial(signal.waist, n_r=BEAM_GRID["n_r"])
    protocol = StorageProtocol.gradient_through_hold(cfg.protocol.eta_write, BEAM_T_HOLD)
    controls = (
        ("homogeneous", pulses.ControlProfile.homogeneous(cfg.params.rabi_control)),
        ("gaussian", cfg.control),
    )
    rows = []
    for label, control in controls:
        record = transverse.run_cycle_realspace(
            cfg.params,
            protocol,
            signal,
            control,
            tgrid,
            n_medium=BEAM_GRID["n_medium"],
            steps_per_width=BEAM_GRID["steps_per_width"],
            store_fields=False,
        )
        profile = transverse.intensity_and_width(record)
        rows.append((label, profile.width, profile.width_moment, record.efficiency, profile.fit_ok))

    diff = cfg.params.diffusivity
    w_sq = {label: width**2 for label, width, *_ in rows}
    rate = (w_sq["homogeneous"] - signal.waist**2 / 4.0) / (2.0 * BEAM_T_LEAD + BEAM_T_HOLD)
    checks = [
        _check(
            "width_rate_homogeneous",
            rate,
            diff,
            BEAM_WIDTH_TOL,
            "(w^2 - waist^2/4) / (2 t_lead + t_hold) = D under a homogeneous control",
            "rel",
        ),
        _check(
            "gaussian_narrower",
            w_sq["gaussian"] < w_sq["homogeneous"],
            True,
            0.0,
            "the Gaussian control's phase curvature refocuses the output beam",
            "bool",
        ),
        _check(
            "width_fits_converged",
            all(row[4] for row in rows),
            True,
            0.0,
            "both Gaussian width fits converged",
            "bool",
        ),
    ]
    lines = ["# columns: control,w_fit,w_moment,efficiency,fit_ok"]
    lines += ["%s,%.12g,%.12g,%.12g,%d" % row for row in rows]
    (out_dir / "widths.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "job": BEAM_JOB,
        "config_digest": cfg.digest,
        "t_hold": BEAM_T_HOLD,
        "width_rate_homogeneous": rate,
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )
    return summary


def run_job(job: str, cfg, out_dir: Path, threads: int, tracer) -> dict:
    """One job of a workload; returns its summary (with ``checks``)."""
    from gemdiff import harness

    if job == BEAM_JOB:
        return beam_width_point(cfg, out_dir)
    spec = harness.ExperimentSpec(
        experiment=job, config=cfg, out_dir=out_dir, fidelity=FIDELITY, threads=threads
    )
    run = harness.run_experiment
    if tracer is not None:
        run = tracer.wrap(run, "harness.experiment." + job)
    return run(spec)


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of a job's CSVs and summary.json."""
    digest = hashlib.sha256()
    files = sorted(out_dir.glob("*.csv")) + [out_dir / "summary.json"]
    for path in files:
        if path.exists():
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_pass(root: Path, workload: str, seed: int, threads: int, out: Path, trace: bool) -> dict:
    """One pass over a workload in this process; see the module docstring."""
    import_gemdiff(root)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = {}
    wall = cpu = 0.0
    try:
        cfg, overrides = load(root, seed)
        for job in WORKLOADS[workload]["jobs"]:
            out_dir = out / job
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                summary = run_job(job, cfg, out_dir, threads, tracer)
            except Exception:  # a job that raises is a failed attempt, not a crash
                wall += time.perf_counter() - start
                cpu += time.process_time() - start_cpu
                jobs[job] = {"error": traceback.format_exc(), "checks": [], "digest": None}
                continue
            elapsed = time.perf_counter() - start
            wall += elapsed
            cpu += time.process_time() - start_cpu
            jobs[job] = {
                "wall_s": elapsed,
                "checks": summary["checks"],
                "digest": artifact_digest(out_dir),
            }
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "config_digest": cfg.digest,
        "overrides": overrides,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
    }
    if tracer is not None:
        import numpy as np

        from spans import layer_stats

        spans = tracer.spans()
        np.savez_compressed(out / "spans.npz", names=np.array(tracer.names), **spans)
        result["layers"] = layer_stats(tracer.names, spans)
        result["missing"] = tracer.missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass in a fresh interpreter")
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        start = time.perf_counter()
        import_gemdiff(args.root)
        cfg, _ = load(args.root, args.seed)
        result = {"setup_s": time.perf_counter() - start, "config_digest": cfg.digest}
    else:
        result = run_pass(
            args.root, args.workload, args.seed, args.threads, args.out, bool(args.trace)
        )
    args.result.write_text(json.dumps(result, allow_nan=False), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
