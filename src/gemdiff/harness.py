"""Named experiments and the ``gem`` command-line entry point.

Each experiment runs a documented parameter study against a config file
and writes its artifacts into ``<out>/<experiment>/``:

    *.csv         datasets; ``#`` header comments carry the format version,
                  config digest, fidelity and column names, and every row
                  carries the dimensionless group values it was computed
                  from, so collapse plots need no recomputation
    summary.json  every efficiency, decay parameter and fit value, plus the
                  tolerance checks with the comparison formula named
    *.svg         plots rendered by the built-in plotter

The process exits 0 only when every analytic-vs-numeric tolerance check
passes, so the command doubles as an acceptance runner.

Fidelity presets (longitudinal cells / steps per pulse width; the two
real-space experiments add the radial cell count, mode grids their size)::

              1d sweeps     single cycle   beam width        phase profile     modes
    coarse    256 / 40      192 /  50      128 / 32 /  96    128 / 32 /  96     32
    standard  384 / 60      256 / 100      160 / 40 / 128    192 / 48 / 128     64
    fine      512 / 96      384 / 150      256 / 64 / 160    256 / 64 / 160     96

Environment overrides (command-line flags win)::

    GEM_FIDELITY        default for --fidelity (coarse | standard | fine)
    GEM_THREADS         default for --threads
    GEM_OUT             default for --out
    GEM_MAX_CELL_STEPS  runtime guard cap on estimated cell updates

Every experiment hands its solver calls to one step, _solve, which prices
them from their own arguments against the cap before any runs.  The 1D
sweep points that share a time grid run as rows of one batched solve (see
solver1d.run_cycle), inline: small 1D arrays only lose under the GIL.
beam-width's hold times run as the groups of one real-space call per
control, which shares the write.  Only the real-space cycles use the
thread pool, gathered in call order, so output files are byte-identical
for any thread count (the header records the command line without
machine-local paths for the same reason).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import svgplot
from .config import RunConfig, load_config
from .model import (
    GuardBandError,
    ParameterError,
    StorageProtocol,
    derive_groups,
    echo_leakage,
    optimal_write_lead,
)
from .pulses import ControlProfile
from .analytic import (
    eff_hold,
    eff_total,
    eff_write_approx,
    eff_write_exact,
    hg_efficiency,
    hg_ratio,
    phase_theta,
)
from .solver1d import (
    _PHASES,
    Grid1D,
    _cycle_plan,
    _rows_of,
    efficiency_1d,
    run_cycle,
    spectrum_centroid,
    spinwave_spectrum,
)
from .transverse import (
    ModeGrid,
    Quasi1DRecord,
    TransverseGrid,
    extract_phase,
    fit_effective_diffusion,
    intensity_and_width,
    run_cycle_quasi1d,
    run_cycle_realspace,
)

CSV_FORMAT = "gem-csv/1"
JSON_FORMAT = "gem-json/1"

FIDELITY_NAMES = ("coarse", "standard", "fine")

# (n_medium, steps_per_width) for the 1D collapse sweeps and for single
# quasi-1D cycles; (n_medium, steps_per_width, n_r) for real-space runs.
_SWEEP_GRID = {"coarse": (256, 40.0), "standard": (384, 60.0), "fine": (512, 96.0)}
_CYCLE_GRID = {"coarse": (192, 50.0), "standard": (256, 100.0), "fine": (384, 150.0)}
_SPACE_GRID = {
    "coarse": (128, 32.0, 96),
    "standard": (160, 40.0, 128),
    "fine": (256, 64.0, 160),
}
_PHASE_GRID = {
    "coarse": (128, 32.0, 96),
    "standard": (192, 48.0, 128),
    "fine": (256, 64.0, 160),
}
_MODE_CELLS = {"coarse": 32, "standard": 64, "fine": 96}

_DEFAULT_CELL_STEP_CAP = 5e9


class RuntimeGuardError(RuntimeError):
    """Refusal to start a run whose estimated cost exceeds the cap."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment invocation: what to run, against which config, where."""

    experiment: str
    config: RunConfig
    out_dir: Path
    fidelity: str = "standard"
    threads: int = 1
    max_cell_steps: float = _DEFAULT_CELL_STEP_CAP
    command: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(
                "unknown experiment %r; choose from %s"
                % (self.experiment, ", ".join(sorted(EXPERIMENTS)))
            )
        if self.fidelity not in FIDELITY_NAMES:
            raise ParameterError(
                "unknown fidelity %r; presets are %s"
                % (self.fidelity, ", ".join(FIDELITY_NAMES))
            )
        if self.threads < 1:
            raise ParameterError("threads must be at least 1")
        if not self.max_cell_steps > 0:
            raise ParameterError("max_cell_steps must be positive")


# ---------------------------------------------------------------------------
# shared plumbing: artifacts, checks, worker pool, runtime guard
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):  # np.float64 too: nearly every cell, so tested first
        return "%.12g" % value if value == value else "nan"
    if isinstance(value, str):
        return value
    if value is None:
        return "nan"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    value = float(value)
    return "nan" if math.isnan(value) else "%.12g" % value


def _write_csv(spec: ExperimentSpec, name: str, columns, rows, notes=()) -> Path:
    """One dataset file; header comments carry the provenance.

    rows are streamed to the file, so a generator is never held whole.
    """
    path = spec.out_dir / (name + ".csv")
    lines = [
        "# format: " + CSV_FORMAT,
        "# experiment: " + spec.experiment,
        "# dataset: " + name,
        "# config: " + spec.config.digest,
        "# fidelity: " + spec.fidelity,
    ]
    if spec.command:
        lines.append("# command: " + spec.command)
    for note in notes:
        lines.append("# " + note)
    lines.append("# columns: " + ",".join(columns))
    with path.open("w", encoding="utf-8") as out:
        out.writelines(line + "\n" for line in lines)
        out.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
    return path


def _check(name, value, target, tolerance, comparison, kind="rel") -> dict:
    """One tolerance check row for the summary.

    kind "rel": |value - target| <= tolerance * |target|; "abs": the same
    unscaled, and failed when |target| <= tolerance (a null result of zero
    would pass it, so it tells nothing); "range": target = (lo, hi) bounds
    on the value; "bool": value must be truthy.  comparison names the
    formula the target came from (its provenance).
    """
    if kind != "bool":
        value = None if value is None else float(value)
        if value is not None and not math.isfinite(value):
            value = None
    if kind == "rel":
        passed = value is not None and abs(value - target) <= tolerance * abs(target)
    elif kind == "abs":
        passed = value is not None and abs(target) > tolerance >= abs(value - target)
    elif kind == "range":
        lo, hi = target
        passed = value is not None and lo <= value <= hi
        target = [lo, hi]
    elif kind == "bool":
        passed = bool(value)
        value = bool(value)
    else:
        raise ParameterError("unknown check kind %r" % (kind,))
    return {
        "name": name,
        "value": value,
        "target": target,
        "tolerance": tolerance,
        "kind": kind,
        "comparison": comparison,
        "passed": bool(passed),
    }


def _run_tasks(tasks, threads: int) -> list:
    """Run zero-arg callables; results come back in submission order.

    The order is the call order, never completion order, so emitted
    files do not depend on the thread count.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


def _estimate_cell_steps(call: partial) -> float:
    """Cost of one solver call in cell updates: the cells of every planned step.

    The call's own arguments, bound to its solver's signature, rebuild the
    _cycle_plan that _drive_cycle runs, and each span's steps are charged
    its group count times the cells of a group, rows x n_z (a real-space
    group has n_cols rows).  The rows go through the solver's _rows_of, so
    a bad row raises the solver's ParameterError before anything is priced.
    """
    bound = inspect.signature(call.func).bind(*call.args, **call.keywords)
    if call.func is run_cycle_quasi1d:  # one run_cycle on the grid's signal serves every mode
        args = bound.arguments
        bound = inspect.signature(run_cycle).bind(
            args["params"], args["protocol"], args["grid"].signal, **args.get("solver_kwargs", {})
        )
    bound.apply_defaults()
    args = bound.arguments
    param_rows, protocol_rows = _rows_of(args["params"], args["protocol"], args["signal"])
    n_rows = args["tgrid"].n_cols if call.func is run_cycle_realspace else 1  # rows per group
    _, plan = _cycle_plan(
        param_rows,
        protocol_rows,
        args["signal"],
        diffusion_phases=args.get("diffusion_phases", _PHASES),  # real space diffuses throughout
        steps_per_width=args["steps_per_width"],
        cut_times=args["sigma_times"],
        read=args.get("read", True),  # only real space can skip its read
    )
    spans = [span for _, phase_spans in plan for span in phase_spans]
    group_steps = sum(groups * sum(n for *_, n in pieces) for *_, groups, pieces in spans)
    n_z = Grid1D.build(param_rows[0].half_length, args["n_medium"]).n_z
    return float(n_z) * n_rows * group_steps


def _solve(spec: ExperimentSpec, calls: list) -> list:
    """Price, guard and run an experiment's solver calls; results in call order.

    calls are functools.partial calls of the solver bindings run_cycle,
    run_cycle_quasi1d and run_cycle_realspace.  Their summed cost must fit
    the cap before any of them runs.  Only real-space calls use the thread
    pool: small 1D arrays only lose under the GIL.
    """
    estimate = sum(_estimate_cell_steps(call) for call in calls)
    if estimate > spec.max_cell_steps:
        raise RuntimeGuardError(
            "estimated cost %.2g cell updates exceeds the cap %.2g; use a coarser "
            "--fidelity, shorten the hold times, or raise GEM_MAX_CELL_STEPS"
            % (estimate, spec.max_cell_steps)
        )
    pooled = any(call.func is run_cycle_realspace for call in calls)
    return _run_tasks(calls, spec.threads if pooled else 1)


class _Law(NamedTuple):
    """A collapse law: the dataset's checks, CSV and plot all read it."""

    tau: str  # the column the law is a function of
    predict: Callable[[float], float]  # scalar math, so the CSV digits stay put
    label: str
    title: str
    comparison: str
    tolerance: float = 0.03
    ylabel: str = "eps(D) / eps(0)"


_LAWS = {
    "write_collapse": _Law(
        "tau_write",
        lambda tau: math.exp(-tau),
        "exp(-tau)",
        "write-phase collapse",
        "eps(D)/eps(0) = exp(-tau_write), write-phase diffusion decay",
    ),
    "hold_collapse": _Law(
        "tau_hold",
        lambda tau: math.exp(-2.0 * tau),
        "exp(-2 tau)",
        "hold-phase collapse",
        "eps(D)/eps(0) = exp(-2 tau_hold), hold-phase diffusion decay",
    ),
    "transverse_collapse": _Law(
        "tau_perp",
        lambda tau: hg_efficiency((0, 0), tau),
        "1/(1+tau)",
        "transverse collapse",
        "eps_perp = 1/(1 + tau_perp), transverse diffusion of the (0,0) mode",
    ),
    "hg_ratio": _Law(
        "tau_perp",
        hg_ratio,
        "(1/(1+tau))^2",
        "HG (1,1)/(0,0) efficiency ratio",
        "eps(1,1)/eps(0,0) = (1/(1 + tau_perp))^2, Hermite-Gauss mode ordering",
        tolerance=0.02,
        ylabel="eps(1,1) / eps(0,0)",
    ),
}


def _law_table(spec: ExperimentSpec, name: str, columns, points):
    """One collapse dataset against its law in _LAWS: name[i] checks, CSV and SVG.

    points are (values of columns, eff_ratio) pairs, and columns hold the
    law's tau column.  Returns (checks, taus, max |rel_dev|).
    """
    law = _LAWS[name]
    at = columns.index(law.tau)
    rows, checks = [], []
    for i, (values, ratio) in enumerate(points):
        predicted = law.predict(values[at])
        rows.append((i, *values, ratio, predicted, ratio / predicted - 1.0))
        checks.append(
            _check("%s[%d]" % (name, i), ratio, predicted, law.tolerance, law.comparison)
        )
    _write_csv(spec, name, ("index", *columns, "eff_ratio", "predicted", "rel_dev"), rows)
    taus = [values[at] for values, _ in points]
    curve = np.linspace(0.0, max(taus) * 1.05, 200)
    svgplot.line_plot(
        spec.out_dir / (name + ".svg"),
        law.title,
        law.tau,
        law.ylabel,
        [
            ("numeric", taus, [ratio for _, ratio in points], "markers"),
            (law.label, curve, [law.predict(tau) for tau in curve], "dashed"),
        ],
    )
    return checks, taus, max(abs(row[-1]) for row in rows)


def _parked_lead(params, protocol, signal):
    """Carrier orientation and write lead that park the held wavenumber at 0.

    With t_lead = k_initial / eta_write the spectral centre ends the write
    phase at k = 0, so longitudinal decay during hold and read is
    negligible and the transverse factor can be studied on its own.  The
    carrier sign is flipped if the lead comes out negative the first way.
    """
    for trial in (params, replace(params, carrier_mismatch=-params.carrier_mismatch)):
        lead = optimal_write_lead(trial, protocol, signal)
        if lead > 0.0:
            return trial, lead
    raise ParameterError(
        "no carrier orientation gives a positive write lead "
        "(k_initial / eta_write <= 0 both ways)"
    )


def _require_gaussian_control(spec: ExperimentSpec) -> None:
    if spec.config.control.is_homogeneous:
        raise ParameterError(
            "%s needs a Gaussian control beam; set control_waist in the config"
            % spec.experiment
        )


def _tau_write_rate(params, protocol, signal) -> float:
    """d tau_write / d diffusivity at fixed timing (tau_write is linear in D)."""
    probe = 1e-9
    groups = derive_groups(params.with_diffusivity(probe), protocol, signal)
    return groups.tau_write / probe


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _baseline_ratios(spec: ExperimentSpec, cases, phase: str) -> list:
    """eps(D)/eps(0) per case and diffusivity, with diffusion in one phase only.

    cases are (protocol, signal, diffusivities); each runs as one batch with
    a D = 0 baseline row, since its points share a time grid.
    """
    n_medium, steps = _SWEEP_GRID[spec.fidelity]
    batches = _solve(
        spec,
        [
            partial(
                run_cycle,
                [spec.config.params.with_diffusivity(diff) for diff in [0.0] + diffs],
                protocol,
                signal,
                n_medium=n_medium,
                steps_per_width=steps,
                diffusion_phases=(phase,),
            )
            for protocol, signal, diffs in cases
        ],
    )
    return [[efficiency_1d(rec) / efficiency_1d(base) for rec in recs] for base, *recs in batches]


_WRITE_POINTS = ((12e-6, 1.0), (10e-6, 1.2), (8e-6, 1.5))
_WRITE_TAUS = (0.25, 0.75, 1.5)


def _exp_sweep_write(spec: ExperimentSpec):
    """Write-phase collapse: eps(D)/eps(0) against exp(-tau_write).

    Three (t_lead, eta_write) combinations each run three tau_write
    targets, the diffusivity solved per point from the linear tau(D) law,
    plus one D = 0 baseline per combination.  Diffusion acts in the write
    phase only, so the efficiency ratio isolates the write decay factor.
    """
    cfg = spec.config
    cases = []  # (protocol, signal, diffusivities)
    for t_lead, scale in _WRITE_POINTS:
        signal = replace(cfg.signal, t_lead=t_lead)
        protocol = StorageProtocol.standard(cfg.protocol.eta_write * scale, t_hold=0.0)
        rate = _tau_write_rate(cfg.params, protocol, signal)
        cases.append((protocol, signal, [tau / rate for tau in _WRITE_TAUS]))

    points = []
    for (protocol, signal, diffs), ratios in zip(cases, _baseline_ratios(spec, cases, "write")):
        for diff, ratio in zip(diffs, ratios):
            groups = derive_groups(cfg.params.with_diffusivity(diff), protocol, signal)
            values = (signal.t_lead, protocol.eta_write, diff, groups.tau_write, groups.alpha_write)
            points.append((values, ratio))
    columns = ("t_lead", "eta_write", "diffusivity", "tau_write", "alpha_write")
    checks, taus, max_dev = _law_table(spec, "write_collapse", columns, points)

    axes = (
        ("t_lead", tuple(point[0] for point in _WRITE_POINTS)),
        ("eta_write", tuple(cfg.protocol.eta_write * p[1] for p in _WRITE_POINTS)),
        ("diffusivity", tuple(values[2] for values, _ in points)),
    )
    results = {
        "points": len(points),
        "max_abs_rel_dev": max_dev,
        "tau_write_range": [min(taus), max(taus)],
    }
    return results, checks, axes


_HOLD_TAUS = (0.25, 0.5, 1.0, 1.5, 2.0)


def _exp_sweep_hold(spec: ExperimentSpec):
    """Hold-phase collapse: eps(D)/eps(0) against exp(-2 tau_hold).

    Fixture: a 0.4 us pulse written 10 us before the gradient flip and
    stored 50 us; the diffusivity is solved per point from
    tau_hold = D t_hold k_hold^2.  Diffusion acts in the hold only, so the
    ratio isolates the hold decay at the parked wavenumber k_hold.
    """
    cfg = spec.config
    signal = replace(cfg.signal, t_width=0.4e-6, t_lead=10e-6)
    protocol = StorageProtocol.standard(cfg.protocol.eta_write, t_hold=50e-6)
    k_hold = derive_groups(cfg.params, protocol, signal).k_hold
    if k_hold == 0.0:
        raise ParameterError(
            "held wavenumber is zero at this carrier; hold decay has nothing "
            "to collapse (tau_hold = D t_hold k_hold^2 vanishes)"
        )
    diffs = [tau / (protocol.t_hold * k_hold**2) for tau in _HOLD_TAUS]

    # the diffusion-free write is solved once and fans out at the hold
    (ratios,) = _baseline_ratios(spec, [(protocol, signal, diffs)], "hold")
    points = []
    for diff, ratio in zip(diffs, ratios):
        groups = derive_groups(cfg.params.with_diffusivity(diff), protocol, signal)
        values = (protocol.t_hold, diff, groups.k_hold, groups.tau_hold, groups.alpha_hold)
        points.append((values, ratio))
    columns = ("t_hold", "diffusivity", "k_hold", "tau_hold", "alpha_hold")
    checks, taus, max_dev = _law_table(spec, "hold_collapse", columns, points)

    results = {
        "points": len(points),
        "k_hold": k_hold,
        "max_abs_rel_dev": max_dev,
        "tau_hold_range": [min(taus), max(taus)],
    }
    return results, checks, (("diffusivity", tuple(diffs)),)


_PERP_TAUS = (0.25, 0.75, 1.5, 2.25, 3.0)
_HG_TAUS = (0.5, 1.0, 2.0)


def _exp_sweep_transverse(spec: ExperimentSpec):
    """Transverse collapse 1/(1 + tau_perp) and the HG (1,1)/(0,0) ratio.

    The carrier orientation and write lead park the held wavenumber at
    zero, taking longitudinal decay out of the picture; hold times are
    solved per point from tau_perp = 4 D (t_hold + 2 t_lead) / waist^2.
    The shared 1D solve runs diffusion-free (the per-mode transverse
    factors carry all the diffusion), so each run is its own baseline.
    """
    cfg = spec.config
    n_medium, steps = _SWEEP_GRID[spec.fidelity]
    diff = cfg.params.diffusivity
    if diff <= 0.0:
        raise ParameterError("transverse sweep needs diffusivity > 0 in the config")
    probe = StorageProtocol.standard(cfg.protocol.eta_write, t_hold=0.0)
    params, lead = _parked_lead(cfg.params, probe, cfg.signal)
    signal = replace(cfg.signal, t_lead=lead, mode=(0, 0))
    waist = signal.waist

    def hold_for(tau: float) -> float:
        t_hold = tau * waist**2 / (4.0 * diff) - 2.0 * lead
        if t_hold < 0.0:
            raise ParameterError(
                "tau_perp %.3g is below the write-phase floor; raise the "
                "diffusivity or the target" % tau
            )
        return t_hold

    n_modes = _MODE_CELLS[spec.fidelity]
    mode_grid = ModeGrid.build(signal, n=n_modes)
    hg_grid = ModeGrid.build(replace(signal, mode=(1, 1)), n=n_modes, window_factor=9.0)
    hg_grid00 = ModeGrid.build(signal, n=n_modes, window_factor=9.0)

    # one batch over every hold time: the diffusion-free write is solved
    # once, the exact hold fans it out, and each (0,0)/(1,1) HG pair
    # shares its 1D base
    collapse_holds = [hold_for(tau) for tau in _PERP_TAUS]
    hg_holds = [hold_for(tau) for tau in _HG_TAUS]
    protocols = [
        StorageProtocol.standard(cfg.protocol.eta_write, t_hold=t_hold)
        for t_hold in collapse_holds + hg_holds
    ]
    (records,) = _solve(
        spec,
        [
            partial(
                run_cycle_quasi1d,
                params,
                protocols,
                mode_grid,
                n_medium=n_medium,
                steps_per_width=steps,
                diffusion_phases=(),
            )
        ],
    )
    collapse_recs = records[: len(collapse_holds)]
    hg_bases = [rec.base for rec in records[len(collapse_holds):]]
    hg_recs00 = Quasi1DRecord.from_bases(hg_bases, hg_grid00)
    hg_recs11 = Quasi1DRecord.from_bases(hg_bases, hg_grid)

    def tau_perp(rec) -> float:
        return derive_groups(params, rec.base.protocol, signal).tau_perp

    points = [
        (
            (rec.base.protocol.t_hold, diff, tau_perp(rec)),
            rec.efficiency_kspace() / efficiency_1d(rec.base),
        )
        for rec in collapse_recs
    ]
    checks, taus, max_dev = _law_table(
        spec, "transverse_collapse", ("t_hold", "diffusivity", "tau_perp"), points
    )
    hg_points = [
        (
            (rec00.base.protocol.t_hold, tau_perp(rec00)),
            rec11.efficiency_kspace() / rec00.efficiency_kspace(),
        )
        for rec00, rec11 in zip(hg_recs00, hg_recs11)
    ]
    hg_checks, _, hg_max_dev = _law_table(spec, "hg_ratio", ("t_hold", "tau_perp"), hg_points)

    results = {
        "write_lead": lead,
        "carrier_mismatch": params.carrier_mismatch,
        "max_abs_rel_dev_collapse": max_dev,
        "max_abs_rel_dev_hg": hg_max_dev,
        "tau_perp_range": [min(taus), max(taus)],
    }
    return results, checks + hg_checks, (("t_hold", tuple(collapse_holds + hg_holds)),)


def _config_cycles(spec: ExperimentSpec, diffusivities) -> list:
    """Quasi-1D cycles of the config's protocol and signal, one per diffusivity."""
    cfg = spec.config
    n_medium, steps = _CYCLE_GRID[spec.fidelity]
    mode_grid = ModeGrid.build(
        cfg.signal,
        n=_MODE_CELLS[spec.fidelity],
        window_factor=9.0 if any(cfg.signal.mode) else 8.0,
    )
    (records,) = _solve(
        spec,
        [
            partial(
                run_cycle_quasi1d,
                [cfg.params.with_diffusivity(diff) for diff in diffusivities],
                cfg.protocol,
                mode_grid,
                n_medium=n_medium,
                steps_per_width=steps,
            )
        ],
    )
    return records


def _exp_storage_cycle(spec: ExperimentSpec):
    """One full cycle at the config parameters: traces and efficiency budget.

    Runs the quasi-1D cycle with the config diffusivity and again with
    D = 0, and reports the numeric efficiency ratio next to every closed
    form.  A transversely varying control in the config is taken at its
    peak value here (the quasi-1D reduction needs a uniform control); the
    real-space experiments cover the inhomogeneous case.
    """
    cfg = spec.config
    rec_d, rec_0 = _config_cycles(spec, [cfg.params.diffusivity, 0.0])

    groups = derive_groups(cfg.params, cfg.protocol, cfg.signal)
    totals = eff_total(cfg.params, cfg.protocol, cfg.signal)
    eps_w, alpha_w, tau_w = eff_write_approx(cfg.params, cfg.protocol, cfg.signal)
    eps_h, alpha_h, tau_h = eff_hold(cfg.params, cfg.protocol, cfg.signal)
    eps_w_exact = eff_write_exact(cfg.params, cfg.protocol, cfg.signal)
    eps_perp = hg_efficiency(cfg.signal.mode, groups.tau_perp)
    expected = totals.full
    if cfg.signal.mode != (0, 0):
        # swap the (0,0) transverse factor of the full form for the mode's own
        expected = totals.full * (1.0 + groups.tau_perp) * eps_perp

    ratio_1d = efficiency_1d(rec_d.base) / efficiency_1d(rec_0.base)
    ratio_3d = rec_d.efficiency_kspace() / rec_0.efficiency_kspace()
    leakage = echo_leakage(groups.optical_depth)

    breakdown = [
        ("beta", groups.optical_depth),
        ("k_initial", groups.k_initial),
        ("k_hold", groups.k_hold),
        ("tau_write", tau_w),
        ("tau_hold", tau_h),
        ("tau_perp", groups.tau_perp),
        ("alpha_write", alpha_w),
        ("alpha_hold", alpha_h),
        ("eps_write", eps_w),
        ("eps_write_exact", eps_w_exact),
        ("eps_hold", eps_h),
        ("eps_read", eps_w),
        ("eps_perp", eps_perp),
        ("eff_full", totals.full),
        ("eff_expected_mode", expected),
        ("eff_product", totals.product),
        ("eff_linearized", totals.linearized),
        ("eff_bound", totals.bound),
        ("numeric_ratio_1d", ratio_1d),
        ("numeric_ratio_3d", ratio_3d),
        ("echo_leakage", leakage),
        ("echo_peak_time", rec_d.base.echo_peak_time),
    ]
    _write_csv(spec, "breakdown", ("quantity", "value"), breakdown)

    base_d, base_0 = rec_d.base, rec_0.base
    _write_csv(
        spec,
        "write_trace",
        ("t", "f_in_abs2", "f_trans_abs2"),
        zip(base_d.t_write, np.abs(base_d.f_in) ** 2, np.abs(base_d.f_trans) ** 2),
    )
    _write_csv(
        spec,
        "read_trace",
        ("t", "f_out_abs2", "f_out_abs2_nodiff"),
        zip(base_d.t_out, np.abs(base_d.f_out) ** 2, np.abs(base_0.f_out) ** 2),
    )
    svgplot.line_plot(
        spec.out_dir / "traces.svg",
        "storage cycle",
        "t (s)",
        "|f|^2",
        [
            ("input", base_d.t_write, np.abs(base_d.f_in) ** 2, "line"),
            ("echo", base_d.t_out, np.abs(base_d.f_out) ** 2, "line"),
            ("echo, D=0", base_0.t_out, np.abs(base_0.f_out) ** 2, "dashed"),
        ],
    )

    checks = [
        _check(
            "numeric_vs_full",
            ratio_3d,
            expected,
            0.02,
            "eps_tot(D)/eps_tot(0) against the closed-form total "
            "sqrt(1/(1/alpha_hold + 2/alpha_write - 2)) "
            "exp(-2 tau_write - 2 tau_hold) / (1 + tau_perp)",
            kind="abs",
        ),
        _check(
            "echo_leakage_small",
            leakage,
            (0.0, 0.02),
            0.0,
            "exp(-2 pi |beta|) leakage must be small for the closed forms "
            "to describe the cycle",
            kind="range",
        ),
    ]
    results = dict(breakdown)
    results["bound_note"] = totals.bound_note
    return results, checks, ()


def _exp_spinwave_kspace(spec: ExperimentSpec):
    """Spin-wave spectrum evolution |sigma(k, t)|^2 and the centroid drift.

    Frames span write, hold and read.  Once the pulse is absorbed, every
    stored slice keeps rotating in the gradient, so the spectral centroid
    drifts at exactly -eta_write until the flip; the late-write frames are
    fitted for that slope.
    """
    cfg = spec.config
    n_medium, steps = _CYCLE_GRID[spec.fidelity]
    params, protocol, signal = cfg.params, cfg.protocol, cfg.signal
    window = protocol.write_window(signal)
    margin = 0.02 * window

    fit_lo = -0.4 * signal.t_lead
    fit_hi = -max(1.5 * signal.t_width, 0.04 * signal.t_lead)
    if fit_hi <= fit_lo:
        raise ParameterError(
            "write lead too short to fit the centroid drift; need "
            "t_lead well above t_width"
        )
    coarse = np.linspace(-window + margin, protocol.t_hold + window - margin, 36)
    fit_times = np.linspace(fit_lo, fit_hi, 12)
    times = np.unique(np.concatenate([coarse, fit_times]))

    (record,) = _solve(
        spec,
        [
            partial(
                run_cycle,
                params,
                protocol,
                signal,
                n_medium=n_medium,
                steps_per_width=steps,
                sigma_times=times,
            )
        ],
    )

    spectra = [
        spinwave_spectrum(frame, record.grid, params.k_matched) for _, frame in record.sigma_frames
    ]
    k = spectra[0][0]
    power = np.array([p for _, p in spectra])
    frame_t = np.array([t for t, _ in record.sigma_frames])
    peak = float(np.max(power))
    keep = np.nonzero(np.max(power, axis=0) >= 1e-9 * peak)[0]
    band = slice(int(keep[0]), int(keep[-1]) + 1)

    rows = []
    for ti, t in enumerate(frame_t):
        for ki in range(band.start, band.stop):
            rows.append((t, k[ki], power[ti, ki]))
    _write_csv(
        spec,
        "spectrum",
        ("t", "k", "power"),
        rows,
        notes=("power normalisation arbitrary; band clipped at 1e-9 of peak",),
    )

    centroids = np.array([spectrum_centroid(k, frame) for frame in power])
    in_fit = (frame_t >= fit_lo - 1e-12) & (frame_t <= fit_hi + 1e-12)
    slope, intercept = np.polyfit(frame_t[in_fit], centroids[in_fit], 1)
    drift_target = -protocol.eta_write
    _write_csv(
        spec,
        "centroid",
        ("t", "centroid_k", "in_fit_window"),
        zip(frame_t, centroids, in_fit),
    )

    svgplot.heatmap(
        spec.out_dir / "spectrum.svg",
        "spin-wave spectrum |sigma(k,t)|^2",
        "t (s)",
        "k (rad/m)",
        frame_t,
        k[band],
        power[:, band].T,
    )
    svgplot.line_plot(
        spec.out_dir / "centroid.svg",
        "spectral centroid drift",
        "t (s)",
        "k centroid (rad/m)",
        [
            ("numeric", frame_t, centroids, "line"),
            (
                "fit window drift",
                frame_t[in_fit],
                intercept + slope * frame_t[in_fit],
                "dashed",
            ),
        ],
    )

    checks = [
        _check(
            "centroid_drift",
            slope,
            drift_target,
            0.05,
            "d<k>/dt = -eta_write while the gradient is on (stored slices "
            "keep rotating)",
        )
    ]
    results = {
        "drift_fitted": float(slope),
        "drift_target": drift_target,
        "frames": len(frame_t),
        "fit_window": [fit_lo, fit_hi],
    }
    return results, checks, ()


_WIDTH_HOLDS = (0.0, 4e-6, 8e-6, 12e-6, 16e-6, 20e-6, 24e-6)


def _exp_beam_width(spec: ExperimentSpec):
    """Output-beam width growth: homogeneous versus Gaussian control.

    Fixture: write lead 2 us, gradient kept on through the hold and
    flipped mid-hold, control off while holding; both control profiles
    run at every hold time on the radial grid, one call per control with
    a group per hold time, so each control's write is solved once.  The
    w^2-vs-t_hold slope recovers D under a homogeneous control; under a
    Gaussian control beam the imprinted transverse phase curvature
    refocuses the beam and the apparent rate D_eff drops by about half.
    """
    cfg = spec.config
    _require_gaussian_control(spec)
    n_medium, steps, n_r = _SPACE_GRID[spec.fidelity]
    signal = replace(cfg.signal, t_lead=2e-6, mode=(0, 0))
    tgrid = TransverseGrid.radial(signal.waist, n_r=n_r)
    controls = (
        ("homogeneous", ControlProfile.homogeneous(cfg.params.rabi_control)),
        ("gaussian", cfg.control),
    )

    protocols = [
        StorageProtocol.gradient_through_hold(cfg.protocol.eta_write, h) for h in _WIDTH_HOLDS
    ]
    calls = [
        partial(
            run_cycle_realspace,
            cfg.params,
            protocols,
            signal,
            control,
            tgrid,
            n_medium=n_medium,
            steps_per_width=steps,
        )
        for _, control in controls
    ]

    diff = cfg.params.diffusivity
    w0_sq = signal.waist**2 / 4.0 + diff * 2.0 * signal.t_lead
    rows, widths = [], {}
    # fits run serially after the gather; the solver releases the GIL in
    # its FFT work, the fitter does not
    for (name, _), records in zip(controls, _solve(spec, calls)):
        widths[name] = []
        for t_hold, rec in zip(_WIDTH_HOLDS, records):
            prof = intensity_and_width(rec)
            analytic = w0_sq + diff * t_hold if name == "homogeneous" else math.nan
            row = (name, t_hold, prof.width, prof.width**2, prof.width_moment, analytic)
            rows.append((len(rows), *row, prof.fit_ok))
            widths[name].append(prof.width**2)
    _write_csv(
        spec,
        "widths",
        (
            "index",
            "control",
            "t_hold",
            "w_fit",
            "w_fit_sq",
            "w_moment",
            "w_sq_analytic",
            "fit_ok",
        ),
        rows,
        notes=("w_sq_analytic: waist^2/4 + D (2 t_lead + t_hold), homogeneous law",),
    )

    d_homo = fit_effective_diffusion(_WIDTH_HOLDS, widths["homogeneous"])
    d_gauss = fit_effective_diffusion(_WIDTH_HOLDS, widths["gaussian"])
    reduction = d_homo / d_gauss

    holds = np.asarray(_WIDTH_HOLDS)
    svgplot.line_plot(
        spec.out_dir / "widths.svg",
        "output width growth",
        "t_hold (s)",
        "w^2 (m^2)",
        [
            ("homogeneous", holds, widths["homogeneous"], "markers"),
            ("gaussian control", holds, widths["gaussian"], "markers"),
            ("w0^2 + D t_hold", holds, w0_sq + diff * holds, "dashed"),
        ],
    )

    checks = [
        _check(
            "width_slope_homogeneous",
            d_homo,
            diff,
            0.10,
            "d(w^2)/dt_hold = D under a homogeneous control (width law)",
        ),
        _check(
            "d_eff_gaussian",
            d_gauss,
            (0.0015, 0.0025),
            0.0,
            "apparent diffusion rate under the Gaussian control fixture",
            kind="range",
        ),
        _check(
            "narrowing_factor",
            reduction,
            (1.7, 2.5),
            0.0,
            "D_eff(homogeneous) / D_eff(gaussian) of about 2 from the "
            "control-induced phase curvature",
            kind="range",
        ),
    ]
    results = {
        "d_eff_homogeneous": d_homo,
        "d_eff_gaussian": d_gauss,
        "reduction_factor": reduction,
        "control_waist": cfg.control.waist,
        "write_lead": signal.t_lead,
    }
    return results, checks, (("t_hold", _WIDTH_HOLDS),)


def _exp_phase_profile(spec: ExperimentSpec):
    """Spin-wave phase map theta(r, z) against the closed-form curvature.

    Fixture: 0.35 us pulse written 2 us ahead, 16 us hold with the
    gradient kept on and flipped mid-hold, diffusion off (the closed form
    describes the diffusion-free phase; the short pulse keeps the write
    bandwidth correction out of the comparison).  The quadratic
    coefficient is fitted through the origin over r <= w_c / 2 at z = 0.
    """
    cfg = spec.config
    _require_gaussian_control(spec)
    n_medium, steps, n_r = _PHASE_GRID[spec.fidelity]
    params = cfg.params.with_diffusivity(0.0)
    signal = replace(cfg.signal, t_width=0.35e-6, t_lead=2e-6, mode=(0, 0))
    protocol = StorageProtocol.gradient_through_hold(cfg.protocol.eta_write, 16e-6)
    tgrid = TransverseGrid.radial(signal.waist, n_r=n_r)

    rec_gauss, rec_homo = _solve(
        spec,
        [
            partial(
                run_cycle_realspace,
                params,
                protocol,
                signal,
                control,
                tgrid,
                n_medium=n_medium,
                steps_per_width=steps,
                sigma_times=(protocol.flip_time(),),  # the mid-hold frame extract_phase reads
                read=False,  # the frame is the only output read: the cycle ends there
            )
            for control in (cfg.control, ControlProfile.homogeneous(cfg.params.rabi_control))
        ],
    )

    pmap = extract_phase(rec_gauss, rec_homo)
    map_rows = (
        (r, z, pmap.theta[i, j]) for j, z in enumerate(pmap.z) for i, r in enumerate(pmap.r)
    )
    _write_csv(spec, "phase_map", ("r", "z", "theta"), map_rows)

    r, theta = pmap.at_z(0.0)
    waist_c = cfg.control.waist
    closed = phase_theta(params, protocol, signal, cfg.control, 0.0, r)
    fit_band = (r <= 0.5 * waist_c) & np.isfinite(theta)
    if not np.any(fit_band):
        raise ParameterError("no usable phase samples inside r <= w_c / 2")
    # theta(0) = 0 exactly, so the quadratic is fitted through the origin
    coeff_num = float(
        np.sum(theta[fit_band] * r[fit_band] ** 2) / np.sum(r[fit_band] ** 4)
    )
    coeff_closed = float(phase_theta(params, protocol, signal, cfg.control, 0.0, 1.0))
    _write_csv(
        spec,
        "phase_fit",
        ("r", "theta_numeric", "theta_closed", "in_fit_band"),
        zip(r, theta, closed, fit_band),
        notes=("theta at z = 0, mid-hold; fit band r <= control_waist / 2",),
    )

    show = r <= 1.2 * waist_c
    svgplot.line_plot(
        spec.out_dir / "phase_profile.svg",
        "control-induced spin-wave phase",
        "r (m)",
        "theta (rad)",
        [
            ("numeric", r[show], theta[show], "markers"),
            ("closed form", r[show], closed[show], "dashed"),
        ],
    )

    checks = [
        _check(
            "phase_curvature",
            coeff_num,
            coeff_closed,
            0.05,
            "quadratic coefficient of theta(r) at z = 0, mid-hold, against "
            "the closed-form control-phase expression",
        )
    ]
    results = {
        "coeff_numeric": coeff_num,
        "coeff_closed": coeff_closed,
        "theta_at_half_waist": coeff_num * (0.5 * waist_c) ** 2,
        "snapshot_time": pmap.t,
        "t_hold": protocol.t_hold,
    }
    return results, checks, ()


_BUDGET_SCALES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)


def _exp_efficiency_budget(spec: ExperimentSpec):
    """Closed-form efficiency budget against the numeric cycle over D.

    Sweeps the diffusivity at fixed timing and tabulates the full closed
    form, the per-phase product, the small-decay linearized budget and the
    protocol-level upper bound next to the numeric quasi-1D ratio
    eps(D)/eps(0).
    """
    cfg = spec.config
    if cfg.params.diffusivity <= 0.0:
        raise ParameterError(
            "efficiency-budget sweeps multiples of the config diffusivity; "
            "set diffusivity > 0"
        )
    diffs = [scale * cfg.params.diffusivity for scale in _BUDGET_SCALES]
    effs = [rec.efficiency_kspace() for rec in _config_cycles(spec, diffs)]

    rows = []
    checks = []
    bound_gaps = []
    for diff, eff in zip(diffs, effs):
        params = cfg.params.with_diffusivity(diff)
        groups = derive_groups(params, cfg.protocol, cfg.signal)
        totals = eff_total(params, cfg.protocol, cfg.signal)
        ratio = eff / effs[0]
        rows.append(
            (
                len(rows),
                diff,
                groups.tau_write,
                groups.tau_hold,
                groups.tau_perp,
                totals.full,
                totals.product,
                totals.linearized,
                totals.bound,
                ratio,
                ratio - totals.full,
            )
        )
        if totals.bound is not None:
            bound_gaps.append(totals.bound - totals.full)
        checks.append(
            _check(
                "budget_vs_numeric[%d]" % (len(rows) - 1),
                ratio,
                totals.full,
                0.02,
                "numeric eps(D)/eps(0) against the closed-form total",
                kind="abs",
            )
        )

    fulls = [row[5] for row in rows]
    ratios = [row[9] for row in rows]
    checks.append(
        _check(
            "full_monotone_in_D",
            all(a >= b - 1e-12 for a, b in zip(fulls, fulls[1:])),
            True,
            0.0,
            "closed-form total must not increase with diffusivity",
            kind="bool",
        )
    )
    checks.append(
        _check(
            "numeric_monotone_in_D",
            all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:])),
            True,
            0.0,
            "numeric ratio must not increase with diffusivity",
            kind="bool",
        )
    )
    if bound_gaps:
        checks.append(
            _check(
                "bound_is_upper",
                min(bound_gaps) >= -1e-12,
                True,
                0.0,
                "protocol-level bound must sit above the full closed form",
                kind="bool",
            )
        )

    _write_csv(
        spec,
        "budget",
        (
            "index",
            "diffusivity",
            "tau_write",
            "tau_hold",
            "tau_perp",
            "eff_full",
            "eff_product",
            "eff_linearized",
            "eff_bound",
            "numeric_ratio",
            "dev",
        ),
        rows,
    )
    bounds = [row[8] if row[8] is not None else math.nan for row in rows]
    svgplot.line_plot(
        spec.out_dir / "budget.svg",
        "efficiency budget",
        "diffusivity (m^2/s)",
        "eps_tot",
        [
            ("numeric", diffs, ratios, "markers"),
            ("full", diffs, fulls, "line"),
            ("product", diffs, [row[6] for row in rows], "dashed"),
            ("linearized", diffs, [row[7] for row in rows], "dashed"),
            ("bound", diffs, bounds, "dashed"),
        ],
    )
    results = {
        "max_abs_dev": max(abs(row[10]) for row in rows),
        "eff_full_at_config": fulls[_BUDGET_SCALES.index(1.0)],
        "numeric_ratio_at_config": ratios[_BUDGET_SCALES.index(1.0)],
    }
    return results, checks, (("diffusivity", tuple(diffs)),)


EXPERIMENTS = {
    "sweep-write": _exp_sweep_write,
    "sweep-hold": _exp_sweep_hold,
    "sweep-transverse": _exp_sweep_transverse,
    "storage-cycle": _exp_storage_cycle,
    "spinwave-kspace": _exp_spinwave_kspace,
    "beam-width": _exp_beam_width,
    "phase-profile": _exp_phase_profile,
    "efficiency-budget": _exp_efficiency_budget,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment, write its artifacts, return the summary dict."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    results, checks, axes = EXPERIMENTS[spec.experiment](spec)
    passed = all(check["passed"] for check in checks)
    summary = _jsonable(
        {
            "format": JSON_FORMAT,
            "experiment": spec.experiment,
            "config_digest": spec.config.digest,
            "config_values": dict(sorted(spec.config.values.items())),
            "fidelity": spec.fidelity,
            "sweep_axes": [[name, list(values)] for name, values in axes],
            "results": results,
            "checks": checks,
            "passed": passed,
        }
    )
    path = spec.out_dir / "summary.json"
    path.write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return summary


def _jsonable(value):
    """Strict-JSON view of a result tree: non-finite floats become null."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    return value


_ENV_HELP = """\
environment overrides (flags win):
  GEM_FIDELITY        default for --fidelity
  GEM_THREADS         default for --threads
  GEM_OUT             default for --out
  GEM_MAX_CELL_STEPS  runtime guard cap on estimated cell updates

exit status: 0 all tolerance checks passed, 1 a check failed,
2 bad usage, config error, or runtime-guard refusal.
"""


def _env_number(name: str, cast, default):
    """Environment override `name` read by cast, else default; junk, NaN or < 1 is bad input."""
    text = os.environ.get(name) or default
    try:
        value = cast(text)
    except ValueError:
        value = math.nan
    if not value >= 1:
        raise ParameterError("%s=%r is not a valid %s of at least 1" % (name, text, cast.__name__))
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gem",
        description="Run a named gradient-echo-memory diffusion experiment "
        "and write CSV/JSON/SVG artifacts.",
        epilog=_ENV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override one config value (repeatable)",
    )
    parser.add_argument(
        "--out",
        default=os.environ.get("GEM_OUT", "gem-out"),
        help="output root; artifacts land in <out>/<experiment>/",
    )
    parser.add_argument(
        "--fidelity",
        choices=FIDELITY_NAMES,
        default=os.environ.get("GEM_FIDELITY", "standard"),
    )
    parser.add_argument(
        "--threads",
        type=int,
        help="worker threads for the real-space cycles (default: up to 4)",
    )
    args = parser.parse_args(argv)

    command = "gem %s --fidelity %s" % (args.experiment, args.fidelity)
    command += "".join(" --set %s" % item for item in args.overrides)

    try:
        threads = args.threads
        if threads is None:
            threads = _env_number("GEM_THREADS", int, min(4, os.cpu_count() or 1))
        cap = _env_number("GEM_MAX_CELL_STEPS", float, _DEFAULT_CELL_STEP_CAP)
        config = load_config(args.config, args.overrides)
        spec = ExperimentSpec(
            experiment=args.experiment,
            config=config,
            out_dir=Path(args.out) / args.experiment,
            fidelity=args.fidelity,
            threads=threads,
            max_cell_steps=cap,
            command=command,
        )
        summary = run_experiment(spec)
    except (OSError, ParameterError, GuardBandError, RuntimeGuardError) as exc:
        print("gem: %s" % exc, file=sys.stderr)
        return 2

    for check in summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            "%s %s: value=%s target=%s (%s, tol %s)"
            % (
                status,
                check["name"],
                _cell(check["value"]),
                check["target"],
                check["kind"],
                check["tolerance"],
            )
        )
    n_pass = sum(1 for check in summary["checks"] if check["passed"])
    print(
        "%s: %d/%d checks passed; artifacts in %s"
        % (args.experiment, n_pass, len(summary["checks"]), spec.out_dir)
    )
    return 0 if summary["passed"] else 1
