"""Transverse routes: mode decomposition, real-space solvers, beam observables."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_banded

from gemdiff import (
    ModeGrid,
    ParameterError,
    SignalSpec,
    StorageProtocol,
    TransverseGrid,
    eff_total,
    extract_phase,
    fit_effective_diffusion,
    intensity_and_width,
    output_width,
    run_cycle,
    run_cycle_quasi1d,
    run_cycle_realspace,
)
from gemdiff.pulses import ControlProfile, sample_transverse
from gemdiff.transverse import (
    RealspaceRecord,
    _CartesianDiffusion,
    _RadialDiffusion,
)

TAU = 2.0 * math.pi
WAIST = 1.45e-3

FAST = dict(n_medium=64, steps_per_width=16.0)


@pytest.fixture(scope="module")
def quasi_record(bench_params, bench_protocol, bench_signal):
    grid = ModeGrid.build(bench_signal.waist)
    return run_cycle_quasi1d(bench_params, bench_protocol, bench_signal, grid, **FAST)


@pytest.fixture(scope="module")
def radial_record(bench_params, bench_protocol, bench_signal):
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=40)
    return run_cycle_realspace(
        bench_params, bench_protocol, bench_signal, control, tgrid, **FAST
    )


@pytest.fixture(scope="module")
def cart_record(bench_params, bench_protocol, bench_signal):
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    tgrid = TransverseGrid.cartesian(bench_signal.waist, n=24)
    return run_cycle_realspace(
        bench_params,
        bench_protocol,
        bench_signal,
        control,
        tgrid,
        **FAST,
    )


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_mode_grid_rejects_unresolved_samples():
    with pytest.raises(ParameterError, match="at least 6 waists"):
        ModeGrid.build(WAIST, window_factor=5.0)
    with pytest.raises(ParameterError, match="even number"):
        ModeGrid.build(WAIST, n=63)
    # a wide window with few points leaves the spectrum hot at Nyquist
    with pytest.raises(ParameterError, match="increase n"):
        ModeGrid.build(WAIST, n=16, window_factor=12.0)
    # higher-order modes decay more slowly: (1,1) needs a wider window
    with pytest.raises(ParameterError, match="increase window_factor"):
        ModeGrid.build(WAIST, mode=(1, 1), n=64, window_factor=8.0)
    grid = ModeGrid.build(WAIST, mode=(1, 1), n=64, window_factor=9.0)
    assert grid.n == 64
    assert grid.window == pytest.approx(9.0 * WAIST)


def test_radial_grid_is_staggered_with_exact_disc_area():
    grid = TransverseGrid.radial(WAIST, n_r=40, window_factor=8.0)
    assert grid.kind == "radial"
    assert grid.r[0] == pytest.approx(0.5 * grid.dr)
    assert np.all(np.diff(grid.r) > 0)
    # sum of 2 pi r_j dr over the staggered cells is exactly pi R^2
    window = 8.0 * WAIST
    assert float(np.sum(grid.weights)) == pytest.approx(
        math.pi * window**2, rel=1e-12
    )


def test_cartesian_grid_weights_tile_the_window():
    grid = TransverseGrid.cartesian(WAIST, n=24, window_factor=8.0)
    assert grid.kind == "cartesian"
    assert grid.n_cols == 24 * 24
    assert float(np.sum(grid.weights)) == pytest.approx((8.0 * WAIST) ** 2, rel=1e-12)
    with pytest.raises(ParameterError, match="even number"):
        TransverseGrid.cartesian(WAIST, n=23)
    with pytest.raises(ParameterError, match="at least 8"):
        TransverseGrid.radial(WAIST, n_r=4)


# ---------------------------------------------------------------------------
# transverse diffusion operators against the heat kernel
# ---------------------------------------------------------------------------


def test_radial_step_spreads_a_gaussian_conservatively():
    # free diffusion of exp(-r^2/w0^2): w^2(t) = w0^2 + 4 D t with
    # amplitude w0^2 / w^2(t); Crank-Nicolson should track it to its
    # second-order accuracy and conserve the integral to round-off
    w0 = WAIST
    d = 0.004
    grid = TransverseGrid.radial(w0, n_r=128, window_factor=8.0)
    op = _RadialDiffusion(grid, d, dt_half=1e-6)
    sigma = np.exp(-grid.r[:, None] ** 2 / w0**2).astype(complex)
    mass0 = float(np.sum(grid.weights * sigma[:, 0].real))
    for _ in range(40):
        sigma = op.propagate(sigma)
    t = 40 * 1e-6
    w_sq = w0**2 + 4.0 * d * t
    exact = (w0**2 / w_sq) * np.exp(-grid.r**2 / w_sq)
    dev = np.max(np.abs(sigma[:, 0] - exact)) / np.max(exact)
    assert dev < 2e-3
    mass1 = float(np.sum(grid.weights * sigma[:, 0].real))
    assert mass1 == pytest.approx(mass0, rel=1e-12)


def _banded_cn_half_step(grid, d, dt_half):
    """Oracle: one Crank-Nicolson half-step as a banded solve of its own."""
    r, dr = grid.r, grid.dr
    inner = np.r_[0.0, r[:-1] + 0.5 * dr] / (r * dr * dr)  # the axis face carries no flux
    outer = np.r_[r[:-1] + 0.5 * dr, 0.0] / (r * dr * dr)  # nor does the outer edge
    lam = 0.5 * d * dt_half
    band = np.array(
        [np.r_[0.0, -lam * outer[:-1]], 1.0 + lam * (inner + outer), np.r_[-lam * inner[1:], 0.0]]
    )

    def step(sigma):
        rhs = (1.0 - lam * (inner + outer))[:, None] * sigma
        rhs[1:] += lam * inner[1:, None] * sigma[:-1]
        rhs[:-1] += lam * outer[:-1, None] * sigma[1:]
        return solve_banded((1, 1), band, rhs)

    return step


@pytest.mark.parametrize("k", [1, 2, 40])
def test_radial_propagator_equals_banded_solves(k):
    grid = TransverseGrid.radial(WAIST, n_r=64, window_factor=8.0)
    d, dt_half = 0.004, 1e-6
    rng = np.random.default_rng(k)
    sigma0 = np.exp(-grid.r[:, None] ** 2 / WAIST**2) * (
        rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8))
    )
    step = _banded_cn_half_step(grid, d, dt_half)
    expected = sigma0
    for _ in range(k):
        expected = step(expected)
    op = _RadialDiffusion(grid, d, dt_half)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(op.propagate(sigma0, k) - expected)) <= 1e-13 * scale
    stepped = sigma0
    for _ in range(k):
        stepped = op.propagate(stepped)
    assert np.max(np.abs(stepped - expected)) <= 1e-13 * scale


def test_radial_propagator_power_conserves_mass():
    grid = TransverseGrid.radial(WAIST, n_r=128, window_factor=8.0)
    op = _RadialDiffusion(grid, 0.004, dt_half=1e-6)
    sigma = np.exp(-grid.r[:, None] ** 2 / WAIST**2).astype(complex)
    mass0 = float(np.sum(grid.weights * sigma[:, 0].real))
    spread = op.propagate(sigma, 2 * 160)
    mass1 = float(np.sum(grid.weights * spread[:, 0].real))
    assert mass1 == pytest.approx(mass0, rel=1e-12)
    assert spread[0, 0].real < 0.5 * sigma[0, 0].real  # and it did spread


def test_cartesian_fused_kernel_equals_two_half_steps():
    grid = TransverseGrid.cartesian(WAIST, n=32, window_factor=8.0)
    op = _CartesianDiffusion(grid, 0.004, dt_half=5e-6)
    x = grid.x
    sigma = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / WAIST**2).reshape(-1, 1)
    sigma = sigma * np.exp(1j * np.arange(4))[None, :]
    twice = op.propagate(op.propagate(sigma))
    assert np.max(np.abs(op.propagate(sigma, 2) - twice)) <= 1e-13 * np.max(np.abs(twice))


def test_cartesian_step_is_spectrally_exact_on_a_gaussian():
    # free-space heat kernel, except for periodic images at the window
    # edge (~e^-16 of peak); the centre of the grid is image-free
    w0 = WAIST
    d = 0.004
    grid = TransverseGrid.cartesian(w0, n=64, window_factor=8.0)
    op = _CartesianDiffusion(grid, d, dt_half=5e-6)
    x = grid.x
    sigma0 = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / w0**2)
    sigma = op.propagate(sigma0.reshape(-1, 1).astype(complex)).reshape(64, 64)
    t = 5e-6
    w_sq = w0**2 + 4.0 * d * t
    exact = (w0**2 / w_sq) * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / w_sq)
    centre = np.abs(x) <= 2.0 * w0
    block = np.ix_(centre, centre)
    assert_allclose(sigma.real[block], exact[block], atol=1e-12)
    assert_allclose(sigma.real, exact, atol=1e-6)
    assert np.max(np.abs(sigma.imag)) < 1e-12


# ---------------------------------------------------------------------------
# quasi-1D decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode, window", [((0, 0), 8.0), ((1, 1), 9.0)])
def test_batched_quasi1d_matches_single_calls(bench_params, bench_signal, mode, window):
    # rows differ in D and in the exact hold; each row's base is wrapped
    # with its own transverse decay rates
    signal = replace(bench_signal, mode=mode)
    grid = ModeGrid.build(signal.waist, mode, n=32, window_factor=window)
    rows = [bench_params.with_diffusivity(d) for d in (0.004, 0.0, 0.002)]
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in (2e-6, 2e-6, 5e-6)]
    batch = run_cycle_quasi1d(rows, protos, signal, grid, **FAST)
    for rec, params, proto in zip(batch, rows, protos):
        single = run_cycle_quasi1d(params, proto, signal, grid, **FAST)
        assert rec.efficiency_kspace() == pytest.approx(single.efficiency_kspace(), rel=1e-12)
        assert np.array_equal(rec.gamma, single.gamma)


def test_quasi1d_kspace_and_realspace_efficiencies_agree(quasi_record):
    # the two quadratures are related by Parseval; they must agree far
    # below any physical tolerance
    a = quasi_record.efficiency_kspace()
    b = quasi_record.efficiency_realspace()
    assert abs(a - b) / a < 1e-6


def test_quasi1d_axis_mode_carries_no_transverse_decay(quasi_record):
    assert quasi_record.gamma[0, 0] == 0.0
    assert_allclose(quasi_record.perp_factor(0.0), 1.0, rtol=0)
    f00 = quasi_record.f_out_mode(0, 0)
    assert_allclose(
        f00, quasi_record.base.f_out * quasi_record.mode_amp[0, 0], rtol=1e-15
    )


def test_quasi1d_intensity_peaks_on_axis(quasi_record):
    x, intensity = quasi_record.intensity_realspace()
    n = x.size
    peak = np.unravel_index(np.argmax(intensity), intensity.shape)
    assert peak == (n // 2, n // 2)
    assert x[n // 2] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# the three routes to the same efficiency
# ---------------------------------------------------------------------------


def test_three_routes_agree_with_the_closed_form(
    quasi_record,
    radial_record,
    cart_record,
    bench_params,
    bench_protocol,
    bench_signal,
):
    full = eff_total(bench_params, bench_protocol, bench_signal).full
    routes = {
        "quasi1d": quasi_record.efficiency_kspace(),
        "radial": radial_record.efficiency,
        "cartesian": cart_record.efficiency,
    }
    for name, eff in routes.items():
        assert abs(eff - full) < 0.01, (name, eff, full)
    vals = list(routes.values())
    assert max(vals) - min(vals) < 0.005


def test_radial_columns_are_scaled_1d_cycles_without_diffusion(bench_params, bench_signal):
    # with a homogeneous control and D = 0 the columns decouple into the
    # 1D cycle times the input profile; the routes integrate the input
    # envelope on different grids, so output energies are compared
    params = bench_params.with_diffusivity(0.0)
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    control = ControlProfile.homogeneous(params.rabi_control)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    rec = run_cycle_realspace(params, proto, bench_signal, control, tgrid, **FAST)
    base = run_cycle(params, proto, bench_signal, **FAST)
    profile = sample_transverse(bench_signal, tgrid.r, 0.0)
    assert np.array_equal(rec.t_out, base.t_out)
    expected = profile[:, None] * base.f_out
    peak = np.max(np.abs(expected), axis=1, keepdims=True)
    assert np.all(np.abs(rec.f_out - expected) <= 1e-10 * peak)
    assert_allclose(rec.intensity / np.abs(profile) ** 2, base.output_energy, rtol=1e-10)


def test_realspace_snapshots_at_requested_times(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=6e-6)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    t_w, t_h = -3.3e-6, 2e-6  # inside the write; inside the exact hold (D > 0)
    rec = run_cycle_realspace(
        bench_params, proto, bench_signal, control, tgrid, sigma_times=(t_w, t_h), **FAST
    )
    times = [t for t, _ in rec.sigma_frames]
    assert len(times) == 3
    window = proto.write_window(bench_signal)
    dt0 = bench_signal.t_width / FAST["steps_per_width"]
    dt = window / math.ceil(window / dt0)  # the write's step, re-fitted to its window
    assert t_w <= times[0] < t_w + dt  # first write step boundary at or after t_w
    assert times[1] == t_h  # the hold is cut there
    assert times[2] == pytest.approx(proto.flip_time(), rel=1e-12)  # mid-hold, always taken
    for _, frame in rec.sigma_frames:
        assert frame.shape == (tgrid.n_cols, rec.grid.n_z)


def test_snapshots_inside_fused_steps_leave_the_cycle_unchanged(bench_params, bench_signal):
    # unread step boundaries merge the diffusion half-steps on either side;
    # a snapshot due at one in the driven write settles them there and
    # must not move the cycle
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 6e-6)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    dt0 = bench_signal.t_width / FAST["steps_per_width"]
    window = proto.write_window(bench_signal)
    flip = proto.flip_time()
    t_w = -window + 7 * (window / math.ceil(window / dt0))  # a write step boundary
    t_h = 3 * (flip / math.ceil(flip / dt0))  # inside the first exact hold piece

    def run(protocol, times=()):
        return run_cycle_realspace(
            bench_params, protocol, bench_signal, control, tgrid, sigma_times=times, **FAST
        )

    base, written, extra = run(proto), run(proto, (t_w,)), run(proto, (t_w, t_h))
    assert written.efficiency == pytest.approx(base.efficiency, rel=1e-12)
    assert np.max(np.abs(written.intensity - base.intensity)) <= 1e-12 * np.max(base.intensity)
    (time_w, frame_w), (time_h, frame_h), _ = extra.sigma_frames
    assert time_w == pytest.approx(t_w, rel=1e-12)
    assert time_h == pytest.approx(t_h, rel=1e-12)
    assert frame_w.shape == frame_h.shape == (tgrid.n_cols, extra.grid.n_z)
    # a snapshot inside the hold cuts the exact gradient-on piece [0, flip]
    # in two.  The pieces are exact for the continuous operator, but on the
    # periodic grid the rotation is not a pure shift of the spectrum: they
    # move the state at the flip by 6e-9 of its peak (measured), the output
    # by at most twice that to first order.  The transverse sub-steps match,
    # 3 + 45 of the uncut 48 (the 45 is 45.00000000000001 before round-off)
    cut_error = 2e-8
    mid, mid_cut = base.sigma_frames[-1][1], extra.sigma_frames[-1][1]
    assert np.max(np.abs(mid_cut - mid)) <= cut_error * np.max(np.abs(mid))
    assert extra.efficiency == pytest.approx(base.efficiency, rel=2 * cut_error)
    assert np.max(np.abs(extra.intensity - base.intensity)) <= 2 * cut_error * np.max(
        base.intensity
    )
    # a hold that flips at t_h ends its first piece there: its mid-hold
    # snapshot is the snapshot at t_h
    settled = run(replace(proto, hold_flip_time=t_h)).sigma_frames[0][1]
    assert np.max(np.abs(frame_h - settled)) <= 1e-12 * np.max(np.abs(settled))


def test_cartesian_output_stays_axisymmetric(cart_record):
    profile = intensity_and_width(cart_record)
    assert profile.asymmetry is not None
    assert profile.asymmetry < 1e-6


def test_radial_output_width_matches_transport_formula(
    radial_record, bench_params, bench_protocol, bench_signal
):
    profile = intensity_and_width(radial_record)
    assert profile.fit_ok
    assert profile.asymmetry is None  # radial grids are axisymmetric by construction
    expected = output_width(bench_params, bench_protocol, bench_signal)
    assert profile.width == pytest.approx(expected, rel=0.05)
    assert profile.width_moment == pytest.approx(expected, rel=0.05)


def test_width_growth_rate_recovers_the_diffusivity(bench_params):
    # w^2 versus hold time is a line of slope D for the fitted output
    # widths; a short-pulse mini-sweep recovers it within a few percent
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    tgrid = TransverseGrid.radial(WAIST, n_r=40)
    signal = SignalSpec(amplitude=1.0, t_width=0.4e-6, t_lead=2e-6, waist=WAIST)
    holds = (0.0, 10e-6, 20e-6, 30e-6)
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in holds]
    recs = run_cycle_realspace(bench_params, protos, signal, control, tgrid, **FAST)
    widths_sq = [intensity_and_width(rec).width ** 2 for rec in recs]
    slope = fit_effective_diffusion(holds, widths_sq)
    assert slope == pytest.approx(bench_params.diffusivity, rel=0.10)


@pytest.mark.parametrize(
    "kind, make, holds",
    [
        ("radial", StorageProtocol.gradient_through_hold, (0.0, 2e-6, 4e-6)),
        ("cartesian", StorageProtocol.standard, (3e-6, 1e-6)),
    ],
)
def test_grouped_holds_equal_their_single_calls(bench_params, bench_signal, kind, make, holds):
    # one call per hold list: the groups share the write and part ways at
    # the hold, where each flips (and takes its mid-hold frame) at its own time
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    if kind == "radial":
        tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    else:
        tgrid = TransverseGrid.cartesian(bench_signal.waist, n=12)
    protos = [make(-TAU * 10e6, h) for h in holds]
    grouped = run_cycle_realspace(bench_params, protos, bench_signal, control, tgrid, **FAST)
    assert len(grouped) == len(protos)
    for got, proto in zip(grouped, protos):
        want = run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **FAST)
        assert got.protocol == proto
        for name in ("intensity", "t_out", "f_out"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.output_energy == want.output_energy
        assert got.guard_ratio == want.guard_ratio
        assert [t for t, _ in got.sigma_frames] == [t for t, _ in want.sigma_frames]
        assert all(
            np.array_equal(a, b) for (_, a), (_, b) in zip(got.sigma_frames, want.sigma_frames)
        )
        pmap = extract_phase(got, want)  # each group's own mid-hold frame
        assert pmap.t == proto.flip_time()
        assert np.nanmax(np.abs(pmap.theta)) < 1e-12


def test_fit_effective_diffusion_is_a_plain_line_fit():
    t = np.array([0.0, 1e-5, 2e-5, 3e-5, 4e-5])
    assert fit_effective_diffusion(t, 7e-7 + 0.0031 * t) == pytest.approx(
        0.0031, rel=1e-9
    )
    with pytest.raises(ParameterError, match="at least 4"):
        fit_effective_diffusion([0.0, 1e-5, 2e-5], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# real-space record plumbing and validation
# ---------------------------------------------------------------------------


def test_realspace_rejects_mismatched_setups(
    bench_params, bench_protocol, bench_signal
):
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    tgrid = TransverseGrid.radial(WAIST, n_r=16)
    ring = SignalSpec(1.0, 1e-6, 5e-6, WAIST, mode=(1, 1))
    with pytest.raises(ParameterError, match="axisymmetric"):
        run_cycle_realspace(bench_params, bench_protocol, ring, control, tgrid)
    wrong = ControlProfile.homogeneous(0.5 * bench_params.rabi_control)
    with pytest.raises(ParameterError, match="rabi_peak"):
        run_cycle_realspace(
            bench_params, bench_protocol, bench_signal, wrong, tgrid
        )
    # grouped protocols may differ only in t_hold
    protos = [StorageProtocol.standard(-TAU * eta, 2e-6) for eta in (10e6, 12e6)]
    with pytest.raises(ParameterError, match="differ in eta_write"):
        run_cycle_realspace(bench_params, protos, bench_signal, control, tgrid)


def test_realspace_guard_and_energy_bookkeeping(radial_record):
    assert set(radial_record.guard_ratio) == {"write", "hold", "read"}
    assert all(v < 1e-4 for v in radial_record.guard_ratio.values())
    assert 0.0 < radial_record.efficiency < 1.0
    # output energy is the weighted column quadrature of the intensity map
    recon = float(
        np.sum(radial_record.tgrid.weights * radial_record.intensity)
    )
    assert recon == pytest.approx(radial_record.output_energy, rel=1e-12)


def test_synthetic_gaussian_profile_widths():
    tgrid = TransverseGrid.radial(WAIST, n_r=96)
    w = 0.8e-3
    record = RealspaceRecord(
        params=None,
        protocol=None,
        signal=None,
        control=None,
        grid=None,
        tgrid=tgrid,
        t_out=np.array([]),
        f_out=None,
        intensity=np.exp(-tgrid.r**2 / (2.0 * w**2)),
        intensity_in=np.zeros(tgrid.n_cols),
        input_energy=1.0,
        output_energy=1.0,
    )
    profile = intensity_and_width(record)
    assert profile.fit_ok
    assert profile.width == pytest.approx(w, rel=1e-6)
    assert profile.width_moment == pytest.approx(w, rel=1e-3)
    assert profile.fit_residual < 1e-9
    empty = RealspaceRecord(
        params=None,
        protocol=None,
        signal=None,
        control=None,
        grid=None,
        tgrid=tgrid,
        t_out=np.array([]),
        f_out=None,
        intensity=np.zeros(tgrid.n_cols),
        intensity_in=np.zeros(tgrid.n_cols),
        input_energy=1.0,
        output_energy=0.0,
    )
    with pytest.raises(ParameterError, match="empty"):
        intensity_and_width(empty)


# ---------------------------------------------------------------------------
# phase extraction
# ---------------------------------------------------------------------------


def test_extract_phase_of_identical_records_is_zero(radial_record):
    pmap = extract_phase(radial_record, radial_record)
    assert pmap.t == radial_record.protocol.flip_time()
    assert pmap.theta.shape == (radial_record.tgrid.n_cols, pmap.z.size)
    assert np.nanmax(np.abs(pmap.theta)) < 1e-12
    r, theta_mid = pmap.at_z(0.0)
    assert r.shape == theta_mid.shape


def test_extract_phase_validates_inputs(radial_record, cart_record):
    with pytest.raises(ParameterError, match="matching grids"):
        extract_phase(radial_record, cart_record)
    with pytest.raises(ParameterError, match="snapshot"):
        extract_phase(radial_record, radial_record, t=123.0)
