"""Transverse routes: mode decomposition, the radial real-space solver, beam observables."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.fft import fft2
from scipy.linalg import solve_banded

from gemdiff import (
    Grid1D,
    ModeGrid,
    ParameterError,
    SignalSpec,
    StorageProtocol,
    TransverseGrid,
    eff_total,
    efficiency_1d,
    extract_phase,
    fit_effective_diffusion,
    intensity_and_width,
    output_width,
    run_cycle,
    run_cycle_quasi1d,
    run_cycle_realspace,
    solver1d,
    transverse,
)
from gemdiff.pulses import ControlProfile, sample_transverse
from gemdiff.solver1d import _integral
from gemdiff.transverse import (
    RealspaceRecord,
    _RadialDiffusion,
    _edge_amplitude_ok,
)

TAU = 2.0 * math.pi
WAIST = 1.45e-3

FAST = dict(n_medium=64, steps_per_width=16.0)


@pytest.fixture(scope="module")
def quasi_record(bench_params, bench_protocol, bench_signal):
    grid = ModeGrid.build(bench_signal)
    return run_cycle_quasi1d(bench_params, bench_protocol, grid, **FAST)


@pytest.fixture(scope="module")
def radial_record(bench_params, bench_protocol, bench_signal):
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=40)
    return run_cycle_realspace(
        bench_params,
        bench_protocol,
        bench_signal,
        control,
        tgrid,
        sigma_times=(bench_protocol.flip_time(),),  # the mid-hold frame extract_phase reads
        **FAST,
    )


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _beam(mode=(0, 0)):
    """A unit input on the WAIST beam in transverse mode `mode`."""
    return SignalSpec(1.0, 1e-6, 0.0, WAIST, mode=mode)


def test_mode_grid_rejects_unresolved_samples():
    with pytest.raises(ParameterError, match="at least 6 waists"):
        ModeGrid.build(_beam(), window_factor=5.0)
    with pytest.raises(ParameterError, match="even number"):
        ModeGrid.build(_beam(), n=63)
    # a wide window with few points leaves the spectrum hot at Nyquist
    with pytest.raises(ParameterError, match="increase n"):
        ModeGrid.build(_beam(), n=16, window_factor=12.0)
    # higher-order modes decay more slowly: (1,1) needs a wider window
    with pytest.raises(ParameterError, match="increase window_factor"):
        ModeGrid.build(_beam((1, 1)), n=64, window_factor=8.0)
    grid = ModeGrid.build(_beam((1, 1)), n=64, window_factor=9.0)
    assert grid.n == 64
    assert grid.n * grid.dx == pytest.approx(9.0 * WAIST)


@pytest.mark.parametrize("mode, window", [((0, 0), 8.0), ((1, 1), 9.0)])
def test_mode_grid_keeps_the_spectrum_of_its_mode(mode, window):
    # sampled and transformed once, at build, scaled by the spacing records read
    grid = ModeGrid.build(_beam(mode), n=32, window_factor=window)
    assert grid.signal == _beam(mode)
    samples = sample_transverse(_beam(mode), grid.x[:, None], grid.x[None, :])
    dx = grid.dx
    assert np.array_equal(grid.amp, fft2(samples) * dx * dx)


@pytest.mark.parametrize("window_factor", [8.0, 9.0])
@pytest.mark.parametrize("n", [32, 64, 96])
def test_mode_grid_refuses_a_mode_beyond_the_window_before_sampling(n, window_factor):
    # the turning-point test refuses no order that the sampled edge checks
    # accept, at every fidelity's n and window_factor
    for m in range(21):
        try:
            ModeGrid.build(_beam((m, 0)), n=n, window_factor=window_factor)
        except ParameterError as exc:
            if "turns beyond" in str(exc):
                axis = (np.arange(n) - n // 2) * (window_factor * WAIST / n)
                samples = sample_transverse(_beam((m, 0)), axis[:, None], axis[None, :])
                assert not _edge_amplitude_ok(samples), m
    # an order far beyond the window is refused at once, not sampled
    with pytest.raises(ParameterError, match="turns beyond"):
        ModeGrid.build(_beam((10**30, 0)), n=n, window_factor=window_factor)


def test_radial_grid_is_staggered_with_exact_disc_area():
    grid = TransverseGrid.radial(WAIST, n_r=40)
    assert grid.r[0] == pytest.approx(0.5 * grid.dr)
    assert np.all(np.diff(grid.r) > 0)
    # sum of 2 pi r_j dr over the staggered cells is exactly pi R^2
    window = 8.0 * WAIST
    assert float(np.sum(grid.weights)) == pytest.approx(
        math.pi * window**2, rel=1e-12
    )
    with pytest.raises(ParameterError, match="at least 8"):
        TransverseGrid.radial(WAIST, n_r=4)


# ---------------------------------------------------------------------------
# transverse diffusion operators against the heat kernel
# ---------------------------------------------------------------------------


def test_radial_step_spreads_a_gaussian_conservatively():
    # free diffusion of exp(-r^2/w0^2): w^2(t) = w0^2 + 4 D t with
    # amplitude w0^2 / w^2(t); Crank-Nicolson should track it to its
    # second-order accuracy and conserve the integral to round-off.  Each
    # call is one half-step of 1 us: half of a 2 us step at dt0 = 2 us
    w0 = WAIST
    d = 0.004
    grid = TransverseGrid.radial(w0, n_r=128)
    op = _RadialDiffusion(grid, d, dt0=2e-6)
    sigma = np.exp(-grid.r[:, None] ** 2 / w0**2).astype(complex)
    mass0 = float(np.sum(grid.weights * sigma[:, 0].real))
    for _ in range(40):
        sigma = op.propagate(sigma, 2e-6, 1)
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
    # k half-steps of a dt0 step, as one power, as k calls, and as the half
    # of one k dt0 step (k sub-steps of dt0), are k banded solves
    grid = TransverseGrid.radial(WAIST, n_r=64)
    d, dt_half = 0.004, 1e-6
    rng = np.random.default_rng(k)
    sigma0 = np.exp(-grid.r[:, None] ** 2 / WAIST**2) * (
        rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8))
    )
    step = _banded_cn_half_step(grid, d, dt_half)
    expected = sigma0
    for _ in range(k):
        expected = step(expected)
    dt0 = 2.0 * dt_half
    op = _RadialDiffusion(grid, d, dt0)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(op.propagate(sigma0, dt0, k) - expected)) <= 1e-13 * scale
    stepped = sigma0
    for _ in range(k):
        stepped = op.propagate(stepped, dt0, 1)
    assert np.max(np.abs(stepped - expected)) <= 1e-13 * scale
    assert np.max(np.abs(op.propagate(sigma0, k * dt0, 1) - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("n_r", [16, 40, 128, 130])
@pytest.mark.parametrize("n_halves", [1, 2, 320])
def test_radial_power_multiplies_only_its_band(n_r, n_halves):
    # P^n is kept as block rows, each with the contiguous column band outside
    # which every entry is below the floor: the block product is the dense
    # product to round-off, and each dropped entry is at most the floor
    grid = TransverseGrid.radial(WAIST, n_r=n_r)
    dt0 = 1e-6 / 40
    op = _RadialDiffusion(grid, 0.004, dt0)
    dense = np.linalg.matrix_power(op.half(0.5 * dt0), n_halves)
    floor = transverse._BAND_FLOOR * np.max(np.abs(dense))
    blocks = op.blocks(0.5 * dt0, n_halves)
    assert [rows.start for rows, *_ in blocks] == list(range(0, n_r, transverse._BLOCK_ROWS))
    assert blocks[-1][0].stop == n_r
    for rows, cols, block in blocks:
        assert np.array_equal(block, dense[rows, cols])
        dropped = np.abs(dense[rows]).copy()
        dropped[:, cols] = 0.0
        assert np.max(dropped) <= floor
    if n_halves == 1 and n_r >= 40:
        assert blocks[0][1].stop < n_r  # a short step's power is banded
    rng = np.random.default_rng(n_r + n_halves)
    shape = (2, n_r, 24)
    sigma = np.exp(-(grid.r[:, None] ** 2) / WAIST**2) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    want = np.matmul(dense, sigma.view(float)).view(complex)
    got = op.propagate(sigma, dt0, n_halves)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    out = np.empty_like(sigma)
    assert op.propagate(sigma, dt0, n_halves, out) is out
    assert np.array_equal(out, got)


def test_radial_propagator_power_conserves_mass():
    # both halves of one 320 us step: 160 sub-steps of 2 us, one matrix power
    grid = TransverseGrid.radial(WAIST, n_r=128)
    op = _RadialDiffusion(grid, 0.004, dt0=2e-6)
    sigma = np.exp(-grid.r[:, None] ** 2 / WAIST**2).astype(complex)
    mass0 = float(np.sum(grid.weights * sigma[:, 0].real))
    spread = op.propagate(sigma, 160 * 2e-6, 2)
    mass1 = float(np.sum(grid.weights * spread[:, 0].real))
    assert mass1 == pytest.approx(mass0, rel=1e-12)
    assert spread[0, 0].real < 0.5 * sigma[0, 0].real  # and it did spread


def test_transverse_half_commutes_with_the_exit_functional():
    # an exit read owes the state a transverse half: P applied to the medium
    # integral per column equals the integral of P sigma
    tgrid = TransverseGrid.radial(WAIST, n_r=32)
    op = _RadialDiffusion(tgrid, 0.004, dt0=4e-8)
    grid = Grid1D.build(0.1, n_medium=64)
    rng = np.random.default_rng(3)
    shape = (2, tgrid.n_cols, grid.n_z)
    sigma = np.exp(-(tgrid.r[:, None] ** 2) / WAIST**2) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    want = _integral(op.propagate(sigma, 4e-8, 1), grid)
    got = op.propagate(_integral(sigma, grid), 4e-8, 1)
    assert got.shape == want.shape == (2, tgrid.n_cols, 1)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_radial_steps_per_group_equal_their_scalar_calls():
    # one step length per group: each group is its scalar call, bit for bit,
    # and a group whose step is zero is copied
    tgrid = TransverseGrid.radial(WAIST, n_r=40)
    dt0 = 2.5e-8
    op = _RadialDiffusion(tgrid, 0.004, dt0)
    rng = np.random.default_rng(5)
    shape = (4, tgrid.n_cols, 24)
    sigma = np.exp(-(tgrid.r[:, None] ** 2) / WAIST**2) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    steps = np.array([3e-6, 0.0, dt0, 1.7e-6])
    for halves in (1, 2):
        got = op.propagate(sigma, steps, halves)
        for g, step in enumerate(steps):
            assert np.array_equal(got[g], op.propagate(sigma[g], step, halves)), (g, halves)
        assert np.array_equal(got[1], sigma[1])
        out = np.empty_like(sigma)
        assert op.propagate(sigma, steps, halves, out) is out
        assert np.array_equal(out, got)


# ---------------------------------------------------------------------------
# quasi-1D decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode, window", [((0, 0), 8.0), ((1, 1), 9.0)])
def test_batched_quasi1d_matches_single_calls(bench_params, bench_signal, mode, window):
    # rows differ in D and in the exact hold; each row's base is wrapped
    # with its own transverse decay rates
    grid = ModeGrid.build(replace(bench_signal, mode=mode), n=32, window_factor=window)
    rows = [bench_params.with_diffusivity(d) for d in (0.004, 0.0, 0.002)]
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in (2e-6, 2e-6, 5e-6)]
    batch = run_cycle_quasi1d(rows, protos, grid, **FAST)
    for rec, params, proto in zip(batch, rows, protos):
        single = run_cycle_quasi1d(params, proto, grid, **FAST)
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


def test_quasi1d_intensity_peaks_on_axis(quasi_record):
    x, intensity = quasi_record.intensity_realspace()
    n = x.size
    peak = np.unravel_index(np.argmax(intensity), intensity.shape)
    assert peak == (n // 2, n // 2)
    assert x[n // 2] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# the two routes to the same efficiency
# ---------------------------------------------------------------------------


def test_quasi1d_and_radial_routes_agree_with_the_closed_form(
    quasi_record,
    radial_record,
    bench_params,
    bench_protocol,
    bench_signal,
):
    full = eff_total(bench_params, bench_protocol, bench_signal).full
    routes = {
        "quasi1d": quasi_record.efficiency_kspace(),
        "radial": radial_record.efficiency,
    }
    for name, eff in routes.items():
        assert abs(eff - full) < 0.01, (name, eff, full)
    vals = list(routes.values())
    assert max(vals) - min(vals) < 0.005


def test_radial_columns_are_scaled_1d_cycles_without_diffusion(
    bench_params, bench_signal, monkeypatch
):
    # with a homogeneous control and D = 0 the columns decouple into the
    # 1D cycle times the input profile, and both routes integrate input and
    # output by the same trapezoid rule over the same step times.  A 2 us
    # lead (beam-width's) cuts the pulse off at the start of the write window,
    # where an input integrated on any other time grid would differ.  Real
    # space steps the drive by the midpoint rule, so the 1D cycle does too
    monkeypatch.setattr(solver1d, "_Propagators", lambda *args: None)
    params = bench_params.with_diffusivity(0.0)
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    control = ControlProfile.homogeneous(params.rabi_control)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    for signal in (bench_signal, replace(bench_signal, t_lead=2e-6)):
        rec = run_cycle_realspace(params, proto, signal, control, tgrid, **FAST)
        base = run_cycle(params, proto, signal, **FAST)
        profile = sample_transverse(signal, tgrid.r, 0.0)
        assert np.array_equal(rec.t_out, base.t_out)
        expected = profile[:, None] * base.f_out
        peak = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.all(np.abs(rec.f_out - expected) <= 1e-10 * peak)
        assert_allclose(rec.intensity / np.abs(profile) ** 2, base.output_energy, rtol=1e-10)
        assert rec.efficiency == pytest.approx(efficiency_1d(base), rel=1e-10)


def test_realspace_snapshots_at_requested_times(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=6e-6)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    t_w, t_h = -3.3e-6, 2e-6  # inside the write; inside the exact hold (D > 0)
    rec = run_cycle_realspace(
        bench_params, proto, bench_signal, control, tgrid, sigma_times=(t_w, t_h), **FAST
    )
    times = [t for t, _ in rec.sigma_frames]
    assert len(times) == 2
    assert times[0] == t_w  # the driven write is cut there, off its step grid
    assert times[1] == t_h  # the hold is cut there
    for _, frame in rec.sigma_frames:
        assert frame.shape == (tgrid.n_cols, rec.grid.n_z)


def test_snapshots_inside_fused_steps_leave_the_cycle_unchanged(bench_params, bench_signal):
    # unread step boundaries merge the diffusion half-steps on either side;
    # a snapshot due at one in the driven write is taken from a settled
    # copy and leaves the cycle bit-identical
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

    base, written = run(proto, (flip,)), run(proto, (t_w, flip))
    extra = run(proto, (t_w, t_h, flip))
    assert written.efficiency == base.efficiency
    assert np.array_equal(written.intensity, base.intensity)
    assert np.array_equal(written.f_out, base.f_out)
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
    # a hold that flips at t_h ends its first piece there, so its frame at
    # t_h is the settled state that the cut hold's frame at t_h must match
    settled = run(replace(proto, hold_flip_time=t_h), (t_h,)).sigma_frames[0][1]
    assert np.max(np.abs(frame_h - settled)) <= 1e-12 * np.max(np.abs(settled))


def test_a_radial_read_step_takes_one_state_propagation(bench_params, bench_signal, monkeypatch):
    # a read boundary owes a transverse half: it is applied to the exit
    # integral, and merged into the next step's half as one GEMM by P^2
    shapes = []
    real = _RadialDiffusion.propagate

    def counted(self, sigma, step, halves, out=None):
        shapes.append(sigma.shape[-1])
        return real(self, sigma, step, halves, out)

    monkeypatch.setattr(_RadialDiffusion, "propagate", counted)
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=0.0)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    rec = run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **FAST)
    dt0 = bench_signal.t_width / FAST["steps_per_width"]
    n_write = math.ceil(proto.write_window(bench_signal) / dt0)
    n_read = rec.t_out.size - 1
    assert n_read == n_write
    # one per step and one at each piece end; one per read inside the read span
    assert shapes.count(rec.grid.n_z) == (n_write + 1) + (n_read + 1)
    assert shapes.count(1) == n_read - 1


def test_a_radial_cycle_builds_each_half_step_once(bench_params, bench_signal, monkeypatch):
    # one operator per call: the read reuses the write's half-step, and the
    # two equal spans of a hold that flips at its middle share one (2.05 us
    # each: 33 sub-steps, of a length unlike the write's step)
    solves = []
    real = transverse.solve_banded

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transverse, "solve_banded", counted)
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 4.1e-6)
    assert proto.flip_time() == proto.t_hold - proto.flip_time() == 2.05e-6
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    assert bench_params.diffusivity > 0.0
    run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **FAST)
    assert len(solves) == 2


def test_a_radial_cycle_steps_in_two_state_buffers(bench_params, bench_signal, monkeypatch):
    # every state a step core receives is one of the driver's two state
    # buffers, however many steps the cycle takes
    states = []
    real = solver1d.advance_step

    def kept(sigma, *args, **kwargs):
        states.append(sigma)  # kept alive: a fresh state per step would show here
        return real(sigma, *args, **kwargs)

    monkeypatch.setattr(solver1d, "advance_step", kept)
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **FAST)
    assert len(states) > 100
    assert len({state.__array_interface__["data"][0] for state in states}) <= 2


def test_radial_output_width_matches_transport_formula(
    radial_record, bench_params, bench_protocol, bench_signal
):
    profile = intensity_and_width(radial_record)
    assert profile.fit_ok
    expected = output_width(bench_params, bench_protocol, bench_signal)
    assert profile.width == pytest.approx(expected, rel=0.05)
    assert profile.width_moment == pytest.approx(expected, rel=0.05)


def test_a_faint_output_fits_its_width_without_a_warning(radial_record):
    # the fit's covariance, which is never read, overflows on a faint output
    faint = replace(radial_record, intensity=radial_record.intensity * 1e-290)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = intensity_and_width(faint)
    assert profile.fit_ok
    assert profile.width == pytest.approx(intensity_and_width(radial_record).width, rel=1e-9)


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
    "make, holds",
    [
        (StorageProtocol.gradient_through_hold, (0.0, 2e-6, 4e-6)),
        (StorageProtocol.standard, (3e-6, 1e-6)),  # diffusing gradient-off holds
    ],
)
def test_grouped_holds_equal_their_single_calls(bench_params, bench_signal, make, holds):
    # one call per hold list: the groups share the write and part ways at
    # the hold, where each flips at its own time; a frame in the shared write
    # is taken from the one state every group starts from
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    protos = [make(-TAU * 10e6, h) for h in holds]
    frames = dict(sigma_times=(-1e-6,), **FAST)
    grouped = run_cycle_realspace(bench_params, protos, bench_signal, control, tgrid, **frames)
    assert len(grouped) == len(protos)
    for got, proto in zip(grouped, protos):
        want = run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **frames)
        assert got.protocol == proto
        for name in ("intensity", "t_out", "f_out"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.output_energy == want.output_energy
        assert got.guard_ratio == want.guard_ratio
        assert len(got.sigma_frames) == 1
        assert [t for t, _ in got.sigma_frames] == [t for t, _ in want.sigma_frames]
        assert all(
            np.array_equal(a, b) for (_, a), (_, b) in zip(got.sigma_frames, want.sigma_frames)
        )


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
    # a snapshot time is one time for every group, not one per group
    protos = [StorageProtocol.standard(-TAU * 10e6, hold) for hold in (2e-6, 4e-6)]
    with pytest.raises(ParameterError, match="scalar"):
        per_group = (np.array([1e-6, 2e-6]),)
        run_cycle_realspace(bench_params, protos, bench_signal, control, tgrid, sigma_times=per_group)


def test_realspace_takes_frames_only_on_request(
    bench_params, bench_protocol, bench_signal, radial_record
):
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    unasked = run_cycle_realspace(
        bench_params, bench_protocol, bench_signal, control, tgrid, **FAST
    )
    assert unasked.sigma_frames == []
    assert [t for t, _ in radial_record.sigma_frames] == [radial_record.protocol.flip_time()]


def test_a_cycle_without_its_read_ends_at_its_last_frame(bench_params, bench_signal, monkeypatch):
    # extract_phase reads only the mid-hold frame: a call with read=False
    # stops there, and its frame is the full call's, bit for bit
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 4e-6)
    frame = dict(sigma_times=(proto.flip_time(),), **FAST)
    full = run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **frame)
    steps = []
    real = solver1d.advance_step

    def counted(*args, **kwargs):
        steps.append(kwargs["drive_on"])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver1d, "advance_step", counted)
    short = run_cycle_realspace(
        bench_params, proto, bench_signal, control, tgrid, read=False, **frame
    )
    [(t_full, mid_full)], [(t_short, mid_short)] = full.sigma_frames, short.sigma_frames
    assert t_short == t_full == proto.flip_time()
    assert np.array_equal(mid_short, mid_full)
    # the write's steps and the one exact piece up to the flip; no read step
    dt0 = bench_signal.t_width / FAST["steps_per_width"]
    assert steps == [True] * math.ceil(proto.write_window(bench_signal) / dt0) + [False]
    assert set(short.guard_ratio) == {"write", "hold"}
    assert short.guard_ratio["write"] == full.guard_ratio["write"]
    assert short.input_energy == full.input_energy
    assert short.t_out is short.f_out is short.intensity is short.output_energy is None
    with pytest.raises(ParameterError, match="no read was run"):
        short.efficiency
    with pytest.raises(ParameterError, match="no read was run"):
        intensity_and_width(short)
    with pytest.raises(ParameterError, match="needs sigma_times"):
        run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, read=False, **FAST)


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


def test_extract_phase_validates_inputs(bench_params, bench_protocol, bench_signal, radial_record):
    # a radial record on another n_r holds a frame at the same time, on other columns
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    coarser = run_cycle_realspace(
        bench_params,
        bench_protocol,
        bench_signal,
        control,
        TransverseGrid.radial(bench_signal.waist, n_r=24),
        sigma_times=(bench_protocol.flip_time(),),
        **FAST,
    )
    with pytest.raises(ParameterError, match="matching grids"):
        extract_phase(radial_record, coarser)
    with pytest.raises(ParameterError, match="snapshot"):
        extract_phase(radial_record, radial_record, t=123.0)
