"""Acceptance gate: the headline physics claims at their stated tolerances.

Each criterion is one test that prints a single "ACCEPTANCE NN PASS/FAIL"
line (replayed in the terminal summary by conftest) and then asserts.  The
heavyweight experiments run once per module at standard fidelity through
the public harness and are shared where two criteria read the same
artifacts; every criterion also carries a wall-clock budget.
"""

import cmath
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import fft, ifft

from gemdiff import (
    DecayFactors,
    ModeGrid,
    StorageProtocol,
    derive_groups,
    eff_hold,
    eff_total,
    eff_transverse,
    eff_write_approx,
    efficiency_1d,
    phase_factor,
    run_cycle,
    run_cycle_quasi1d,
)
from gemdiff.config import load_config
from gemdiff.harness import ExperimentSpec, run_experiment
from gemdiff.model import stark_residual

TAU = 2.0 * math.pi
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "rubidium_benchmark.cfg"
THREADS = min(4, os.cpu_count() or 1)

# wall-clock budgets per criterion (seconds)
BUDGET_SWEEP = 300.0
BUDGET_HEADLINE = 600.0
BUDGET_WIDTH_LAW = 900.0
BUDGET_NARROWING = 1800.0
BUDGET_PHASE = 900.0
BUDGET_HG = 600.0
BUDGET_PROPERTIES = 300.0


@pytest.fixture(scope="module")
def bench_config():
    return load_config(CONFIG)


def _timed_experiment(name, tmp_path_factory):
    """Run one experiment at standard fidelity, return (summary, elapsed)."""
    out = tmp_path_factory.mktemp("acceptance") / name
    spec = ExperimentSpec(
        experiment=name,
        config=load_config(CONFIG),
        out_dir=out,
        fidelity="standard",
        threads=THREADS,
    )
    start = time.perf_counter()
    summary = run_experiment(spec)
    return summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def write_run(tmp_path_factory):
    return _timed_experiment("sweep-write", tmp_path_factory)


@pytest.fixture(scope="module")
def hold_run(tmp_path_factory):
    return _timed_experiment("sweep-hold", tmp_path_factory)


@pytest.fixture(scope="module")
def transverse_run(tmp_path_factory):
    """Shared by the transverse-collapse and the mode-ratio criteria."""
    return _timed_experiment("sweep-transverse", tmp_path_factory)


@pytest.fixture(scope="module")
def cycle_run(tmp_path_factory):
    return _timed_experiment("storage-cycle", tmp_path_factory)


@pytest.fixture(scope="module")
def width_run(tmp_path_factory):
    """Shared by the width-law and the anomalous-narrowing criteria."""
    return _timed_experiment("beam-width", tmp_path_factory)


@pytest.fixture(scope="module")
def phase_run(tmp_path_factory):
    return _timed_experiment("phase-profile", tmp_path_factory)


def _named(summary, prefix):
    checks = [c for c in summary["checks"] if c["name"].startswith(prefix)]
    assert checks, f"no checks named {prefix}*"
    return checks


def test_01_optical_depth_magnitude(bench_config, record_acceptance):
    # benchmark medium must sit at |beta| = 3.8 +/- 0.1
    start = time.perf_counter()
    cfg = bench_config
    groups = derive_groups(cfg.params, cfg.protocol, cfg.signal)
    elapsed = time.perf_counter() - start
    beta_mag = abs(groups.optical_depth)
    ok = abs(beta_mag - 3.8) <= 0.1
    record_acceptance(
        1,
        "optical depth |beta| = 3.8 +/- 0.1",
        ok,
        f"|beta| = {beta_mag:.4f}, {elapsed * 1e6:.0f} us",
    )
    assert ok


def test_02_write_collapse(write_run, record_acceptance):
    # >= 8 runs varying (D, t_lead, eta); eps(D)/eps(0) on exp(-tau_write)
    # within 3% each over tau_write in [0, 1.5]
    summary, elapsed = write_run
    checks = _named(summary, "write_collapse")
    results = summary["results"]
    lo, hi = results["tau_write_range"]
    axes = {name: values for name, values in summary["sweep_axes"]}
    varied = all(len(set(axes[k])) >= 2 for k in ("t_lead", "eta_write", "diffusivity"))
    ok = (
        all(c["passed"] for c in checks)
        and results["points"] >= 8
        and varied
        and -1e-9 <= lo
        and hi <= 1.5 + 1e-9
        and elapsed <= BUDGET_SWEEP
    )
    record_acceptance(
        2,
        "write-phase collapse onto exp(-tau_write)",
        ok,
        f"{results['points']} runs, tau in [{lo:.2f}, {hi:.2f}], "
        f"max dev {results['max_abs_rel_dev']:.2%} of 3%, {elapsed:.1f} s",
    )
    assert ok


def test_03_hold_collapse(hold_run, record_acceptance):
    # eps(D)/eps(0) on exp(-2 tau_hold) within 3% over tau_hold in [0, 2]
    summary, elapsed = hold_run
    checks = _named(summary, "hold_collapse")
    results = summary["results"]
    lo, hi = results["tau_hold_range"]
    ok = (
        all(c["passed"] for c in checks)
        and -1e-9 <= lo
        and hi <= 2.0 + 1e-9
        and elapsed <= BUDGET_SWEEP
    )
    record_acceptance(
        3,
        "hold-phase collapse onto exp(-2 tau_hold)",
        ok,
        f"{results['points']} runs, tau in [{lo:.2f}, {hi:.2f}], "
        f"max dev {results['max_abs_rel_dev']:.2%} of 3%, {elapsed:.1f} s",
    )
    assert ok


def test_04_transverse_collapse(transverse_run, record_acceptance):
    # quasi-1D eps ratio on 1/(1 + tau_perp) within 3% over tau_perp in [0, 3]
    summary, elapsed = transverse_run
    checks = _named(summary, "transverse_collapse")
    results = summary["results"]
    lo, hi = results["tau_perp_range"]
    ok = (
        all(c["passed"] for c in checks)
        and -1e-9 <= lo
        and hi <= 3.0 + 1e-9
        and elapsed <= BUDGET_SWEEP
    )
    record_acceptance(
        4,
        "transverse collapse onto 1/(1 + tau_perp)",
        ok,
        f"{len(checks)} points, tau in [{lo:.2f}, {hi:.2f}], "
        f"max dev {results['max_abs_rel_dev_collapse']:.2%} of 3%, {elapsed:.1f} s",
    )
    assert ok


def test_05_headline_efficiency(cycle_run, record_acceptance):
    # benchmark cycle: closed-form total at 0.93 +/- 0.01 and the numeric
    # ratio eps(D)/eps(0) within 2 percentage points of it
    summary, elapsed = cycle_run
    results = summary["results"]
    (numeric_check,) = _named(summary, "numeric_vs_full")
    full = results["eff_full"]
    ratio = results["numeric_ratio_3d"]
    ok = (
        abs(full - 0.93) <= 0.01
        and numeric_check["passed"]
        and elapsed <= BUDGET_HEADLINE
    )
    record_acceptance(
        5,
        "headline efficiency 0.93 +/- 0.01, numeric within 2 pp",
        ok,
        f"closed form {full:.4f}, numeric ratio {ratio:.4f} "
        f"(gap {abs(ratio - full) * 100:.2f} pp of 2), {elapsed:.1f} s",
    )
    assert ok


def test_06_width_law_homogeneous(width_run, record_acceptance):
    # d(w^2)/dt_hold fitted under a homogeneous control equals D within 10%
    summary, elapsed = width_run
    (check,) = _named(summary, "width_slope_homogeneous")
    ok = check["passed"] and elapsed <= BUDGET_WIDTH_LAW
    record_acceptance(
        6,
        "homogeneous width law d(w^2)/dt = D within 10%",
        ok,
        f"slope {check['value']:.3e} vs D {check['target']:.3e} "
        f"(dev {abs(check['value'] / check['target'] - 1.0):.2%}), {elapsed:.1f} s",
    )
    assert ok


def test_07_anomalous_narrowing(width_run, record_acceptance):
    # wide-control fixture: apparent rate 0.002 +/- 0.0005 and reduction
    # factor about 2 against the homogeneous-control rate
    summary, elapsed = width_run
    (d_eff,) = _named(summary, "d_eff_gaussian")
    (reduction,) = _named(summary, "narrowing_factor")
    ok = d_eff["passed"] and reduction["passed"] and elapsed <= BUDGET_NARROWING
    record_acceptance(
        7,
        "anomalous narrowing D_eff = 0.002 +/- 0.0005, factor in [1.7, 2.5]",
        ok,
        f"D_eff {d_eff['value']:.5f}, reduction {reduction['value']:.2f}, "
        f"{elapsed:.1f} s",
    )
    assert ok


def test_08_control_phase_curvature(phase_run, record_acceptance):
    # theta(r) at z = 0 and half the hold: fitted quadratic coefficient
    # over r <= w_c/2 against the closed form within 5%
    summary, elapsed = phase_run
    (check,) = _named(summary, "phase_curvature")
    ok = check["passed"] and elapsed <= BUDGET_PHASE
    record_acceptance(
        8,
        "control-phase curvature at z = 0, mid-hold within 5%",
        ok,
        f"fitted {check['value']:.4e} vs closed {check['target']:.4e} "
        f"(dev {abs(check['value'] / check['target'] - 1.0):.2%}), {elapsed:.1f} s",
    )
    assert ok


def test_09_hermite_gauss_ratio(transverse_run, record_acceptance):
    # eps(1,1)/eps(0,0) on (1/(1 + tau_perp))^2 within 2% over [0, 2];
    # each check's target encodes its tau_perp
    summary, elapsed = transverse_run
    checks = _named(summary, "hg_ratio")
    taus = [1.0 / math.sqrt(c["target"]) - 1.0 for c in checks]
    results = summary["results"]
    ok = (
        all(c["passed"] for c in checks)
        and min(taus) >= -1e-9
        and max(taus) <= 2.0 + 1e-9
        and elapsed <= BUDGET_HG
    )
    record_acceptance(
        9,
        "mode ratio eps(1,1)/eps(0,0) = (1/(1 + tau_perp))^2 within 2%",
        ok,
        f"{len(checks)} points, tau in [{min(taus):.2f}, {max(taus):.2f}], "
        f"max dev {results['max_abs_rel_dev_hg']:.2%} of 2%, {elapsed:.1f} s",
    )
    assert ok


def _unit_modulus_deviation(params, signal):
    """Worst | |G| - 1 | of the echo phase factor over gradients and holds."""
    t = np.linspace(0.0, 4.0 * signal.t_width, 257)
    worst = 0.0
    for scale in (0.6, 1.0, 1.7):
        for t_hold in (0.0, 20e-6):
            proto = StorageProtocol.standard(
                eta_write=-TAU * 10e6 * scale, t_hold=t_hold
            )
            g = phase_factor(params, proto, signal, t)
            worst = max(worst, float(np.max(np.abs(np.abs(g) - 1.0))))
    return worst


def _monotone_closed_forms(params, protocol, signal):
    """Every closed-form efficiency non-increasing in D and in t_hold."""
    held = replace(protocol, t_hold=10e-6)

    def factors(p, proto):
        totals = eff_total(p, proto, signal)
        return (
            totals.full,
            totals.product,
            eff_write_approx(p, proto, signal)[0],
            eff_hold(p, proto, signal)[0],
            eff_transverse(p, proto, signal)[0],
        )

    over_d = [factors(params.with_diffusivity(d), held) for d in
              (0.0, 0.002, 0.004, 0.008, 0.016)]
    over_t = [factors(params, replace(held, t_hold=th)) for th in
              (0.0, 10e-6, 20e-6, 40e-6)]
    return all(
        a >= b - 1e-12
        for seq in (over_d, over_t)
        for row_a, row_b in zip(seq, seq[1:])
        for a, b in zip(row_a, row_b)
    )


def _monotone_numeric(params, protocol, signal):
    """Numeric 1D efficiency non-increasing in diffusivity."""
    effs = [
        efficiency_1d(
            run_cycle(
                params.with_diffusivity(d),
                protocol,
                signal,
                n_medium=96,
                steps_per_width=20.0,
            )
        )
        for d in (0.0, 0.004, 0.012)
    ]
    return all(a >= b - 1e-9 for a, b in zip(effs, effs[1:]))


def _zero_diffusion_identity(params, protocol, signal):
    """D = 0: every decay factor is exactly 1 and the total is 1."""
    df = DecayFactors.from_run(params.with_diffusivity(0.0), protocol, signal)
    t = np.linspace(0.0, 3.0 * signal.t_width, 64)
    ones = (
        np.all(df.write(t) == 1.0)
        and np.all(df.hold(t) == 1.0)
        and np.all(df.read(t) == 1.0)
        and np.all(df.perp(1e3, 2e3, t) == 1.0)
    )
    totals = eff_total(params.with_diffusivity(0.0), protocol, signal)
    return bool(ones) and abs(totals.full - 1.0) < 1e-12


def _hold_heat_propagator(params, signal):
    """Idle hold equals one exact spectral heat step at k_matched offset."""
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=18e-6)
    rec = run_cycle(params, proto, signal, n_medium=96, steps_per_width=24.0)
    grid = rec.grid
    kernel = np.exp(
        -params.diffusivity * (grid.q + params.k_matched) ** 2 * proto.t_hold
    )
    rotation = cmath.exp(-1j * stark_residual(params, 0.0) * proto.t_hold)
    expected = ifft(fft(rec.sigma_end_write) * kernel) * rotation
    dev = np.max(np.abs(rec.sigma_end_hold - expected)) / np.max(
        np.abs(rec.sigma_end_hold)
    )
    return dev < 1e-12


def _gradient_hold_propagator(params, signal):
    """Gradient-on hold equals the closed-form propagator of its +-eta pieces.

    Each piece of length 2h decays the wave k = q + k_matched, which the
    gradient drifts to k - eta s, by exp(-D int (k - eta s)^2 ds): the half
    before the rotation at the entering k, the half after it at the leaving
    one.  A finely stepped Strang hold converges to it at second order,
    down to a floor set by the grid (the rotation is not a pure shift of
    the periodic grid's spectrum).
    """
    eta = -TAU * 10e6
    proto = StorageProtocol.gradient_through_hold(eta, 6e-6)
    rec = run_cycle(
        params, proto, signal, n_medium=96, steps_per_width=24.0, diffusion_phases=("hold",)
    )
    z, kappa = rec.grid.z, rec.grid.q + params.k_matched
    d, residual = params.diffusivity, stark_residual(params, 0.0)
    pieces = ((eta, proto.flip_time()), (-eta, proto.t_hold - proto.flip_time()))

    def rotate(sigma, drift, t):
        return sigma * np.exp(-1j * drift * z * t) * cmath.exp(-1j * residual * t)

    def decay(sigma, drift, h):
        # exp(-D int_0^h (kappa - drift s)^2 ds)
        return ifft(
            fft(sigma) * np.exp(-d * (kappa**2 * h - drift * kappa * h**2 + drift**2 * h**3 / 3))
        )

    expected = rec.sigma_end_write
    for drift, length in pieces:
        h = 0.5 * length
        expected = decay(rotate(decay(expected, drift, h), drift, length), -drift, h)
    peak = np.max(np.abs(rec.sigma_end_hold))
    exact = np.max(np.abs(rec.sigma_end_hold - expected)) / peak < 1e-12

    devs = []
    for dt in (100e-9, 50e-9, 25e-9):
        strang = rec.sigma_end_write
        for drift, length in pieces:
            n = round(length / dt)
            for _ in range(n):
                strang = decay(rotate(decay(strang, 0.0, 0.5 * dt), drift, dt), 0.0, 0.5 * dt)
        devs.append(np.max(np.abs(strang - rec.sigma_end_hold)) / peak)
    # measured: 1.6e-7, 4.5e-8, then the floor of 2.3e-8
    return exact and devs[0] > 3.0 * devs[1] and devs[2] < 5e-8


def _parseval_equivalence(params, signal):
    """Quasi-1D efficiency agrees between k-space and real-space quadrature."""
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=10e-6)
    grid = ModeGrid.build(signal)
    rec = run_cycle_quasi1d(params, proto, grid, n_medium=64, steps_per_width=16.0)
    k = rec.efficiency_kspace()
    return abs(k - rec.efficiency_realspace()) / k < 1e-6


def _self_convergence(params, protocol, signal):
    """Halving dt four-folds the split error: step ratio near (16 + 4)/4."""
    runs = [
        run_cycle(
            params, protocol, signal, n_medium=128, steps_per_width=spw
        ).sigma_end_write
        for spw in (20.0, 40.0, 80.0)
    ]
    ratio = np.linalg.norm(runs[0] - runs[2]) / np.linalg.norm(runs[1] - runs[2])
    return 4.0 < ratio < 6.0


def _thread_determinism(tmp_path_factory):
    """Identical artifacts from the same experiment at 1 and 2 threads."""
    outs = []
    for threads in (1, 2):
        out = tmp_path_factory.mktemp("determinism") / f"threads{threads}"
        run_experiment(
            ExperimentSpec(
                experiment="storage-cycle",
                config=load_config(CONFIG),
                out_dir=out,
                fidelity="coarse",
                threads=threads,
            )
        )
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    if names != sorted(p.name for p in outs[1].iterdir()):
        return False
    return all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in names
    )


def test_10_property_suite(bench_config, tmp_path_factory, record_acceptance):
    # structural invariants: unit-modulus phase, monotone decay, D = 0
    # identity, exact idle and gradient-on hold propagators, Parseval,
    # 2nd-order convergence, thread-count determinism
    cfg = bench_config
    params, protocol, signal = cfg.params, cfg.protocol, cfg.signal
    start = time.perf_counter()
    try:
        outcomes = {
            "unit_modulus": _unit_modulus_deviation(params, signal) < 1e-12,
            "monotone_closed": _monotone_closed_forms(params, protocol, signal),
            "monotone_numeric": _monotone_numeric(params, protocol, signal),
            "zero_d_identity": _zero_diffusion_identity(params, protocol, signal),
            "hold_propagator": _hold_heat_propagator(params, signal),
            "gradient_hold_propagator": _gradient_hold_propagator(params, signal),
            "parseval": _parseval_equivalence(params, signal),
            "self_convergence": _self_convergence(params, protocol, signal),
            "thread_determinism": _thread_determinism(tmp_path_factory),
        }
    except Exception as err:
        record_acceptance(10, "property suite", False, f"raised {err!r}")
        raise
    elapsed = time.perf_counter() - start
    failed = sorted(name for name, passed in outcomes.items() if not passed)
    ok = not failed and elapsed <= BUDGET_PROPERTIES
    record_acceptance(
        10,
        "property suite",
        ok,
        f"{len(outcomes) - len(failed)}/{len(outcomes)} properties"
        + (f", failed: {', '.join(failed)}" if failed else "")
        + f", {elapsed:.1f} s",
    )
    assert ok, failed
