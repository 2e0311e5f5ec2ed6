"""Split-step integrator against exact limits and known propagators."""

import cmath
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.fft import fft, ifft
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm as scipy_expm

from gemdiff import (
    CycleRecord,
    Grid1D,
    GuardBandError,
    ParameterError,
    SignalSpec,
    StorageProtocol,
    efficiency_1d,
    run_cycle,
)
from gemdiff.model import stark_residual
from gemdiff import solver1d
from gemdiff.pulses import ControlProfile, sample_temporal
from gemdiff.transverse import TransverseGrid, run_cycle_realspace
from gemdiff.solver1d import (
    StepKernels,
    _field,
    advance_step,
    slave_field,
    spectrum_centroid,
    spinwave_spectrum,
    to_physical_frame,
)

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------


def test_grid_faces_land_on_grid_points():
    grid = Grid1D.build(0.1, n_medium=96)
    assert grid.z[grid.i_left] == pytest.approx(-0.1, abs=1e-15)
    assert grid.z[grid.i_right] == pytest.approx(0.1, abs=1e-15)
    assert grid.n_z == 256  # next power of two above 96 * 1.5
    assert grid.i_right - grid.i_left == 96
    assert grid.mask[grid.medium].sum() == 97
    assert grid.mask.sum() == 97


def test_grid_guard_slices_cover_outer_pads():
    grid = Grid1D.build(0.1, n_medium=96)
    left, right = grid.guard_slices()
    assert left.stop <= grid.i_left
    assert right.start > grid.i_right
    # outer half of each band
    assert left.stop == grid.i_left // 2
    assert grid.n_z - right.start == (grid.n_z - 1 - grid.i_right) // 2


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(n_medium=14), "even number"),
        (dict(n_medium=97), "even number"),
    ],
)
def test_grid_rejects_bad_shapes(kwargs, match):
    with pytest.raises(ParameterError, match=match):
        Grid1D.build(0.1, **kwargs)


def _field_scale(params, grid, coupling=None):
    """slave_field's scale for the physical field: i (g N / c) dz / 2."""
    coupling = params.coupling_eff if coupling is None else coupling
    return 1j * (coupling * params.density / params.light_speed) * (0.5 * grid.dz)


def test_slave_field_integrates_from_entrance(bench_params):
    # d_z E = i (g_eff N / c) sigma, E(-L) = f_in: a constant sigma gives
    # a linear ramp across the medium
    grid = Grid1D.build(bench_params.half_length, n_medium=64)
    sigma = grid.mask.astype(complex)
    e = slave_field(sigma[grid.medium], _field_scale(bench_params, grid), 2.0 + 0j)
    slope = bench_params.coupling_eff * bench_params.density / bench_params.light_speed
    assert e.shape == (grid.i_right - grid.i_left + 1,)
    assert e[0] == pytest.approx(2.0)
    ramp = 1j * slope * (grid.z[grid.medium] + bench_params.half_length)
    assert_allclose(e, 2.0 + ramp, rtol=1e-12)


@pytest.mark.parametrize("rows", [(), (1,), (5,), (128,)])
def test_slave_field_integral_is_scipy_cumulative_trapezoid(bench_params, rows):
    # the running sum S and its folded scale i k dz / 2 give the field
    # of scipy's cumulative_trapezoid taken in extended precision, to a
    # few ulps of each row's peak, on the 385-point medium slice, for one
    # row and for (rows, n_z) states, contiguous or not
    grid = Grid1D.build(bench_params.half_length, n_medium=384)
    rng = np.random.default_rng(7)
    full = rows + (grid.n_z,)
    sigma = rng.standard_normal(full) + 1j * rng.standard_normal(full)
    fin = 0.3 - 0.2j
    scale = bench_params.coupling_eff * bench_params.density / bench_params.light_speed
    cum = cumulative_trapezoid(
        sigma[..., grid.medium].astype(np.clongdouble),
        dx=np.longdouble(grid.dz),
        axis=-1,
        initial=0.0,
    )
    want = fin + 1j * np.longdouble(scale) * cum
    peak = np.max(np.abs(want), axis=-1)
    for medium in (sigma[..., grid.medium], sigma[..., grid.medium].copy()):
        e = slave_field(medium, _field_scale(bench_params, grid), fin)
        assert e.shape == medium.shape
        assert np.all(np.max(np.abs(e - want), axis=-1) <= 4e-15 * peak)


def _midpoint_reference(
    sigma, kern, grid, *, coupling_eff, fin_now, fin_mid, drive_on, density, light_speed
):
    """advance_step's driven step on the full grid, masked to the medium, in
    extended precision from the same inputs and step factors."""
    assert drive_on
    ld, cld = np.longdouble, np.clongdouble
    sigma, rot_full, rot_half = (
        np.asarray(a, dtype=cld) for a in (sigma, kern.rot_full, kern.rot_half)
    )
    dt, g = np.asarray(kern.dt, dtype=ld), np.asarray(coupling_eff, dtype=ld)
    fin_now, fin_mid = np.asarray(fin_now, dtype=cld), np.asarray(fin_mid, dtype=cld)
    mask = grid.mask.astype(ld)

    def field(values, fin):
        # slaved field on every grid point: fin before the medium, the exit value after it
        cum = cumulative_trapezoid(values[..., grid.medium], dx=ld(grid.dz), axis=-1, initial=0.0)
        e = np.empty(np.broadcast_shapes(values.shape, fin.shape), dtype=cld)
        e[..., : grid.i_left] = fin
        e[..., grid.medium] = fin + 1j * (g * ld(density) / ld(light_speed)) * cum
        e[..., grid.i_right + 1 :] = e[..., grid.i_right : grid.i_right + 1]
        return e

    sig_p = sigma + (ld(0.5) * dt) * (1j * g) * field(sigma, fin_now) * mask
    sig_p = rot_half * sig_p
    kick = (1j * g) * field(sig_p, fin_mid) * mask
    return rot_full * sigma + (dt * rot_half) * kick


def _drive_fixture(bench_params, shape, n_medium, dt=2e-8):
    """A driven step's inputs on a random (groups, rows, n_z) state."""
    grid = Grid1D.build(bench_params.half_length, n_medium=n_medium)
    assert grid.n_z == shape[-1]
    rng = np.random.default_rng(11)
    sigma = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows = np.linspace(1.0, 0.2, shape[1])[:, None]
    coupling = bench_params.coupling_eff * rows
    residual = stark_residual(bench_params, rows)
    kern = StepKernels.build(grid, dt, -TAU * 10e6, residual, 0.004, bench_params.k_matched, 0.0)
    kwargs = dict(
        coupling_eff=coupling,
        fin_now=0.3 - 0.2j,
        fin_mid=(0.1 + 0.4j) * np.linspace(1.0, 0.0, shape[1])[:, None],
        drive_on=True,
        density=bench_params.density,
        light_speed=bench_params.light_speed,
    )
    return sigma, kern, grid, kwargs


@pytest.mark.parametrize("groups", [1, 2])
def test_drive_acts_on_the_medium_only(bench_params, groups):
    # advance_step drives sigma[..., grid.medium] alone: it is the full-grid
    # masked midpoint step, within 2 ulps of the peak of an extended-precision
    # reference, and the padding gets the rotation and light shift and
    # nothing else; the input state is left as it was
    dt = np.array([2e-8, 3e-8])[:, None, None] if groups > 1 else 2e-8
    sigma, kern, grid, kwargs = _drive_fixture(bench_params, (groups, 3, 256), 96, dt)
    before = sigma.copy()
    got = advance_step(sigma, kern, grid, **kwargs)
    want = _midpoint_reference(sigma, kern, grid, **kwargs)
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= 2.0 * eps * np.max(np.abs(want))
    pad = grid.mask == 0.0
    assert np.array_equal(got[..., pad], (kern.rot_full * sigma)[..., pad])
    assert np.array_equal(sigma, before)


@pytest.mark.parametrize("shape, n_medium", [((1, 1, 1024), 384), ((1, 128, 512), 192)])
def test_a_driven_step_holds_two_running_sums(bench_params, shape, n_medium):
    # the predictor and the corrector each fill one medium-sized buffer, so
    # a driven step peaks at no more than 3 medium-sized arrays beyond the
    # state it returns (one more than its two buffers, for numpy's own)
    sigma, kern, grid, kwargs = _drive_fixture(bench_params, shape, n_medium)
    medium = sigma[..., grid.medium].nbytes
    advance_step(sigma, kern, grid, **kwargs)  # warm: first-call caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = advance_step(sigma, kern, grid, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (peak - out.nbytes) / medium <= 3.0


def test_exit_functional_reads_the_settled_exit_field(bench_params):
    # a boundary inside a piece owes the state its after half: the exit
    # field read through spec . probe is the field slaved to the settled
    # state; groups at D = 0 are left out of the spectrum and read directly
    grid = Grid1D.build(bench_params.half_length, n_medium=96)
    rng = np.random.default_rng(5)
    shape = (4, 3, grid.n_z)
    sigma = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    diffusivity = np.array([0.004, 0.0, 0.02, 0.0])[:, None, None]
    residual = stark_residual(bench_params, 1.0)
    kern = StepKernels.build(
        grid, 2e-8, -TAU * 10e6, residual, diffusivity, bench_params.k_matched, 0.0
    )
    assert kern.diff_rows.tolist() == [0, 2]
    before = sigma.copy()
    spec = kern.spectrum(sigma)
    coupling = bench_params.coupling_eff * np.array([[1.0], [0.6], [0.3]])
    fin = 0.2 - 0.1j
    consts = (coupling, bench_params.density, bench_params.light_speed, fin)
    got = _field(kern.integral(sigma, spec, grid), *consts)[..., 0]
    settled = kern.resume(sigma, spec, kern.after)
    scale = _field_scale(bench_params, grid, coupling)
    want = slave_field(settled[..., grid.medium], scale, fin)[..., -1]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(settled[[1, 3]], before[[1, 3]])


def test_grid_mask_is_built_once_and_read_only():
    grid = Grid1D.build(0.1, n_medium=96)
    assert grid.mask is grid.mask
    with pytest.raises(ValueError):
        grid.mask[0] = 1.0


# ---------------------------------------------------------------------------
# exact limits of the full cycle
# ---------------------------------------------------------------------------


def test_pass_through_without_control(bench_params, bench_protocol, bench_signal):
    # with the control off nothing couples to the coherence; the medium
    # contributes only the factored-out dispersion phase e^{2 i a L}
    off = replace(bench_params, rabi_control=0.0)
    rec = run_cycle(off, bench_protocol, bench_signal, n_medium=64, steps_per_width=20.0)
    phase = cmath.exp(2j * off.dispersion_shift * off.half_length)
    assert_allclose(rec.f_trans, phase * rec.f_in, atol=1e-12)
    assert rec.stored_end_write == pytest.approx(0.0, abs=1e-20)


def test_diffusion_free_echo_is_nearly_lossless(bench_params, bench_protocol, bench_signal):
    # beta = -3.77 is deep enough to absorb and re-emit essentially all
    # of the pulse; the echo is the time reverse of the input
    cold = bench_params.with_diffusivity(0.0)
    rec = run_cycle(cold, bench_protocol, bench_signal, n_medium=192, steps_per_width=60.0)
    eff = efficiency_1d(rec)
    assert 0.98 < eff <= 1.001
    envelope = np.abs(
        np.array([sample_temporal(bench_signal, -t) for t in rec.t_out])
    )
    out = np.abs(rec.f_out)
    overlap = np.trapezoid(out * envelope, rec.t_out) / math.sqrt(
        np.trapezoid(out**2, rec.t_out) * np.trapezoid(envelope**2, rec.t_out)
    )
    assert overlap > 0.99
    assert rec.echo_peak_time == pytest.approx(bench_signal.t_lead, rel=0.05)


def test_idle_hold_is_one_exact_heat_step(bench_params, bench_signal):
    # with gradient and control off during the hold, the solver takes a
    # single exact spectral step: the k-space heat kernel at k_matched
    # offset, times the uniform residual light-shift rotation
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=18e-6)
    rec = run_cycle(
        bench_params,
        proto,
        bench_signal,
        n_medium=96,
        steps_per_width=24.0,
    )
    grid = rec.grid
    kernel = np.exp(
        -bench_params.diffusivity
        * (grid.q + bench_params.k_matched) ** 2
        * proto.t_hold
    )
    rotation = cmath.exp(-1j * stark_residual(bench_params, 0.0) * proto.t_hold)
    expected = ifft(fft(rec.sigma_end_write) * kernel) * rotation
    dev = np.max(np.abs(rec.sigma_end_hold - expected)) / np.max(
        np.abs(rec.sigma_end_hold)
    )
    assert dev < 1e-12


def test_gradient_only_hold_without_diffusion_is_one_exact_rotation(bench_params, bench_signal):
    # with no diffusion acting, a gradient-on hold is a pure rotation,
    # exact at any step size: one step per piece, cut at a snapshot time
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 6e-6)
    t_snap = 1.2345e-6  # no step boundary of a dt0 grid
    rec = run_cycle(
        bench_params,
        proto,
        bench_signal,
        n_medium=96,
        steps_per_width=24.0,
        diffusion_phases=("write", "read"),
        sigma_times=(t_snap,),
    )
    z, eta = rec.grid.z, proto.eta_hold
    residual = stark_residual(bench_params, 0.0)
    start = rec.sigma_end_write
    peak = np.max(np.abs(start))
    ((t, frame),) = rec.sigma_frames
    assert t == t_snap
    expected = start * np.exp(-1j * eta * z * t_snap) * cmath.exp(-1j * residual * t_snap)
    assert np.max(np.abs(frame - expected)) <= 1e-12 * peak
    # the gradient flips at mid-hold, so the two halves' rotations cancel
    expected = start * cmath.exp(-1j * residual * proto.t_hold)
    assert np.max(np.abs(rec.sigma_end_hold - expected)) <= 1e-12 * peak


def test_self_convergence_is_second_order(bench_params, bench_protocol, bench_signal):
    # real space keeps the midpoint drive, whose columns see a Gaussian
    # control: halving dt four-folds its error at the end of the write,
    # ||s(h) - s(h/4)|| / ||s(h/2) - s(h/4)|| -> (16 + 4) / 4 = 5 (measured
    # 4.996).  The 1D drive is exact in time instead (the step-independence
    # test below)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    runs = [
        run_cycle_realspace(
            bench_params,
            bench_protocol,
            bench_signal,
            control,
            tgrid,
            n_medium=64,
            steps_per_width=spw,
            sigma_times=(0.0,),
            read=False,
        ).sigma_frames[0][1]
        for spw in (20.0, 40.0, 80.0)
    ]
    coarse = np.linalg.norm(runs[0] - runs[2])
    fine = np.linalg.norm(runs[1] - runs[2])
    assert 4.0 < coarse / fine < 6.0


def test_1d_efficiency_is_step_independent(
    bench_params, bench_protocol, bench_signal, monkeypatch
):
    # the exponential drive leaves only the input's quadratic interpolation
    # to the step: from 6 steps per width on, the efficiency agrees with a
    # 1600-steps-per-width midpoint reference (whose own error is about
    # 4e-6) to within 1e-5 (measured: -0.9, +2.4, +4.1, +4.3 e-6)
    cycle = partial(run_cycle, bench_params, bench_protocol, bench_signal, n_medium=64)
    got = {spw: efficiency_1d(cycle(steps_per_width=spw)) for spw in (6.0, 8.0, 16.0, 32.0)}
    monkeypatch.setattr(solver1d, "_Propagators", lambda *args: None)  # the midpoint drive
    ref = efficiency_1d(cycle(steps_per_width=1600.0))
    for spw, eff in got.items():
        assert abs(eff - ref) < 1e-5, spw


def _propagators(params, n_medium=64):
    grid = Grid1D.build(params.half_length, n_medium=n_medium)
    residual = stark_residual(params, params.rabi_control)
    return solver1d._Propagators(
        grid, params.coupling_eff, params.density, params.light_speed, residual
    )


def test_the_propagator_starts_at_the_identity_and_is_a_semigroup(bench_params):
    eta = -TAU * 10e6
    drives = _propagators(bench_params)
    zero, _ = drives(0.0, eta, True)
    assert np.array_equal(zero, np.eye(len(zero)))
    # P(a) P(b) = P(a + b), as transposes: P(b)^T P(a)^T = P(a + b)^T
    (a_t, _), (b_t, _), (ab_t, _) = (drives(h, eta, False) for h in (4e-8, 9e-8, 13e-8))
    assert np.max(np.abs(b_t @ a_t - ab_t)) <= 1e-14 * np.max(np.abs(ab_t))
    # lower triangular: the field at z sees only upstream coherence
    assert not np.any(np.tril(ab_t, -1))


def test_the_read_propagator_is_the_conjugate_of_the_write(bench_params):
    # P_{-eta}(h) = exp(-2 i residual h) conj(P_eta(h)), against its own expm
    eta, h = -TAU * 10e6, 1e-6 / 8.0
    drives = _propagators(bench_params)
    drives(h, eta, True)  # the write builds its propagator
    derived, weights = drives(h, -eta, False)
    assert weights is None and len(drives.known) == 2
    direct, _ = _propagators(bench_params)(h, -eta, False)
    assert np.max(np.abs(derived - direct)) <= 1e-13 * np.max(np.abs(direct))
    # a read step at a step that differs in round-off only reuses it
    again, _ = drives(h * (1.0 + 4e-16), -eta, False)
    assert again is derived and len(drives.known) == 2


@pytest.mark.parametrize("scale", [0.0, 0.3, 1.0, 7.0, 40.0])
def test_lean_expm_matches_scipy(scale):
    # the scaling-and-squaring [7/7] Pade, on a triangular generator and
    # on a general matrix, against scipy's expm (norms 0 to 40)
    rng = np.random.default_rng(9)
    for a in (
        np.triu(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))),
        rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)),
    ):
        a *= scale / max(np.max(np.sum(np.abs(a), axis=0)), 1e-300)
        want = scipy_expm(a)
        got = solver1d._expm(a.copy())
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_stacked_groups_step_as_their_single_solves(bench_params):
    # one triangular product serves every group; each group's new state is
    # the one it gets alone, to the bit
    eta, h = -TAU * 10e6, 1e-6 / 8.0
    grid = Grid1D.build(bench_params.half_length, n_medium=64)
    drives = _propagators(bench_params)
    residual = stark_residual(bench_params, bench_params.rabi_control)
    kern = StepKernels.build(
        grid, h, eta, residual, 0.0, bench_params.k_matched, 0.0, drives(h, eta, True)
    )
    rng = np.random.default_rng(3)
    sigma = rng.standard_normal((5, 1, grid.n_z)) + 1j * rng.standard_normal((5, 1, grid.n_z))
    kwargs = dict(
        coupling_eff=bench_params.coupling_eff,
        fin_now=0.3 - 0.2j,
        fin_mid=0.5 + 0.1j,
        fin_next=0.2 + 0.4j,
        drive_on=True,
        density=bench_params.density,
        light_speed=bench_params.light_speed,
    )
    stacked = advance_step(sigma, kern, grid, **kwargs)
    for g in range(len(sigma)):
        assert np.array_equal(stacked[g], advance_step(sigma[g : g + 1], kern, grid, **kwargs)[0])
    # the padding gets the rotation and light shift alone
    pad = grid.mask == 0.0
    assert np.array_equal(stacked[..., pad], (kern.rot_full * sigma)[..., pad])


def test_echo_peak_time_is_the_vertex_of_a_sampled_gaussian(
    bench_params, bench_protocol, bench_signal
):
    # three samples of a Gaussian's log power lie on a parabola: its vertex
    # is the peak however far off the sampling grid it falls
    rec = run_cycle(bench_params, bench_protocol, bench_signal, n_medium=64)
    t_width = bench_signal.t_width
    t = np.arange(-40, 41) * (t_width / 8.0)
    for centre in (0.3137 * t_width, -0.0613 * t_width, 0.0625 * t_width):
        f = np.exp(-(((t - centre) / t_width) ** 2) + 0.7j * t / t_width)
        peaked = replace(rec, t_out=t, f_out=f)
        assert abs(peaked.echo_peak_time - centre) <= 1e-9 * t_width
    # at an end of the read the strongest sample stands
    assert replace(rec, t_out=t, f_out=np.exp(t / t_width)).echo_peak_time == t[-1]


def test_spinwave_centroid_drifts_at_minus_eta(bench_params, bench_protocol, bench_signal):
    # after the pulse is fully absorbed the stored wavenumber obeys
    # dk/dt = -eta exactly; sample the drift-only part of the write
    times = np.arange(-2.8e-6, -0.7e-6, 0.2e-6)
    rec = run_cycle(
        bench_params,
        bench_protocol,
        bench_signal,
        n_medium=96,
        steps_per_width=24.0,
        sigma_times=times,
    )
    sampled = np.array([t for t, _ in rec.sigma_frames])
    cents = np.array(
        [
            spectrum_centroid(*spinwave_spectrum(frame, rec.grid, bench_params.k_matched))
            for _, frame in rec.sigma_frames
        ]
    )
    slope = np.polyfit(sampled, cents, 1)[0]
    assert slope == pytest.approx(-bench_protocol.eta_write, rel=1e-3)


def test_energy_closure_without_diffusion(bench_params, bench_protocol, bench_signal):
    # photon flux in = flux transmitted + stored excitation at the end of
    # the write; the defect is discretisation and must shrink with the grid
    cold = bench_params.with_diffusivity(0.0)

    def defect(n_medium, spw):
        rec = run_cycle(cold, bench_protocol, bench_signal, n_medium=n_medium, steps_per_width=spw)
        total = rec.transmitted_energy + rec.stored_end_write
        return abs(total - rec.input_energy) / rec.input_energy

    # the drive is exact in time, so the defect is the trapezoid rule's in z
    # alone: 1.68e-3 at 96 cells and 4.20e-4 at 192, the same to 2e-6 at
    # 8, 24 and 48 steps per width (measured)
    coarse = defect(96, 24.0)
    fine = defect(192, 48.0)
    assert fine < 5e-4
    assert fine < 0.3 * coarse


def test_guard_band_trips_on_hold_spreading():
    # diffusion hard enough to cross the fixed padding band during a hold
    # pushes coherence into the outer pads and must abort with the phase named
    params = pytest.importorskip("gemdiff").PhysicalParams(
        coupling_g=TAU * 4.5,
        rabi_control=TAU * 20e6,
        detuning=-TAU * 1.5e9,
        density=0.5e18,
        half_length=0.1,
        carrier_mismatch=TAU * 6.8e9 / 299_792_458.0,
        diffusivity=1000.0,
    )
    proto = StorageProtocol.standard(eta_write=-TAU * 100e6, t_hold=2e-6)
    signal = SignalSpec(amplitude=1.0, t_width=0.5e-6, t_lead=0.0, waist=1.45e-3)
    with pytest.raises(GuardBandError) as err:
        run_cycle(
            params,
            proto,
            signal,
            n_medium=96,
            steps_per_width=20.0,
            diffusion_phases=("hold",),
        )
    assert err.value.phase == "hold"


def test_identical_runs_are_bitwise_identical(bench_params, bench_protocol, bench_signal):
    kwargs = dict(n_medium=64, steps_per_width=16.0)
    a = run_cycle(bench_params, bench_protocol, bench_signal, **kwargs)
    b = run_cycle(bench_params, bench_protocol, bench_signal, **kwargs)
    assert np.array_equal(a.sigma_end_read, b.sigma_end_read)
    assert np.array_equal(a.f_out, b.f_out)
    assert a.output_energy == b.output_energy


def test_a_recorded_step_takes_one_forward_fft(bench_params, bench_protocol, bench_signal, monkeypatch):
    # every boundary takes the state's spectrum once; the exit is read from
    # it, so a recorded write of n steps with diffusion on makes n forward
    # FFTs, plus one for the before half of its first step
    calls = []
    real = solver1d.fft

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(solver1d, "fft", counted)
    rec = run_cycle(
        bench_params,
        bench_protocol,
        bench_signal,
        n_medium=64,
        steps_per_width=16.0,
        diffusion_phases=("write",),
    )
    n_steps = rec.t_write.size - 1
    assert n_steps > 50
    assert len(calls) == n_steps + 1


def test_a_write_boundary_samples_the_input_once(
    bench_params, bench_protocol, bench_signal, monkeypatch
):
    # the sample at a write boundary serves the exit field there, the next
    # step's start and the record's input; with one more per step midpoint,
    # a recorded write of n steps samples the input 2n + 1 times
    times = []
    real = solver1d.sample_temporal

    def counted(signal, t):
        times.append(t)
        return real(signal, t)

    monkeypatch.setattr(solver1d, "sample_temporal", counted)
    rec = run_cycle(bench_params, bench_protocol, bench_signal, n_medium=64, steps_per_width=16.0)
    n_steps = rec.t_write.size - 1
    assert n_steps > 50
    assert len(times) == 2 * n_steps + 1
    assert rec.f_in.tolist() == [complex(real(bench_signal, t)) for t in rec.t_write]


# ---------------------------------------------------------------------------
# record plumbing
# ---------------------------------------------------------------------------


def test_kept_exit_fields_own_their_data(bench_params, bench_signal):
    # the driver keeps each boundary's exit field as a copy: a view would
    # keep its (groups, rows, 1) base alive until the record is built; the
    # end states and frames are copies too, which the steps after them,
    # stepping in the same buffers, leave as they were
    grid = Grid1D.build(bench_params.half_length, n_medium=64)
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    rows = np.array([[1.0], [0.5], [0.2]])
    traces, _, _, takers = solver1d._drive_cycle(
        [bench_params],
        [proto],
        bench_signal,
        grid,
        rabi=bench_params.rabi_control * rows,
        profile=rows,
        record=("write", "hold", "read"),
        sigma_times=(0.0, 2e-6),
        steps_per_width=16.0,
    )
    exits = [e for trace in traces.values() for e in trace.exits]
    assert len(exits) > 100
    assert all(e.shape == (1, 3) and e.base is None for e in exits)
    ends = [traces[phase].end for phase in ("write", "hold", "read")]
    frames = [frame for _, frame in takers[0].sigma_frames]
    assert [t for t, _ in takers[0].sigma_frames] == [0.0, 2e-6]
    kept = ends + frames
    assert all(a.base is None for a in kept)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(kept) for b in kept[i + 1 :])
    # the write ends at t = 0 and the hold at 2 us, where the frames were taken
    assert np.array_equal(ends[0][0], frames[0]) and np.array_equal(ends[1][0], frames[1])
    assert not np.array_equal(ends[1], ends[2])


def test_frames_are_taken_at_requested_times(bench_params, bench_protocol, bench_signal):
    rec = run_cycle(
        bench_params,
        bench_protocol,
        bench_signal,
        n_medium=64,
        steps_per_width=16.0,
        sigma_times=(-4e-6, -2e-6, -1e-6),
    )
    assert len(rec.sigma_frames) == 3
    # the driven write is cut at each time off its step grid, so every frame
    # lands on its time
    for want, (got, frame) in zip((-4e-6, -2e-6, -1e-6), rec.sigma_frames):
        assert got == want
        assert frame.shape == (rec.grid.n_z,)
    k, power = spinwave_spectrum(rec.sigma_frames[1][1], rec.grid, bench_params.k_matched)
    assert k.shape == power.shape == (rec.grid.n_z,)
    # the physical wavenumber axis is centred on k_matched
    mid = k[rec.grid.n_z // 2]
    assert mid == pytest.approx(bench_params.k_matched, abs=1e-9)


def test_spectrum_tools(bench_params):
    # a periodic grid mode lands in a single FFT bin, so the shifted axis
    # and the k_matched offset are tested without leakage
    grid = Grid1D.build(bench_params.half_length, n_medium=64)
    dk = TAU / (grid.n_z * grid.dz)
    k0 = bench_params.k_matched + 3.0 * dk
    sigma = np.exp(1j * (k0 - bench_params.k_matched) * grid.z).astype(complex)
    k, power = spinwave_spectrum(sigma, grid, bench_params.k_matched)
    assert k[np.argmax(power)] == pytest.approx(k0, rel=1e-12)
    assert power[np.argmax(power)] > 1e20 * np.partition(power, -2)[-2]
    assert spectrum_centroid(k, power) == pytest.approx(k0, rel=1e-9)
    with pytest.raises(ParameterError, match="empty"):
        spectrum_centroid(k, np.zeros_like(power))


def test_to_physical_frame_restores_carrier(bench_params):
    grid = Grid1D.build(bench_params.half_length, n_medium=64)
    sigma = grid.mask.astype(complex)
    lab = to_physical_frame(sigma, grid, bench_params.k_matched)
    assert_allclose(np.abs(lab), np.abs(sigma), rtol=1e-15)
    inner = lab[grid.i_left + 1]
    assert np.angle(inner) == pytest.approx(
        bench_params.k_matched * grid.z[grid.i_left + 1], rel=1e-12
    )


def test_efficiency_requires_input(bench_params, bench_protocol, bench_signal):
    rec = run_cycle(
        bench_params, bench_protocol, bench_signal, n_medium=64, steps_per_width=16.0
    )
    silent = replace(rec, input_energy=0.0)
    with pytest.raises(ParameterError, match="no input"):
        efficiency_1d(silent)
    assert 0.0 < efficiency_1d(rec) < 1.0


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(diffusion_phases=("write", "park")), "unknown diffusion phase"),
        (dict(steps_per_width=0.0), "steps_per_width"),
    ],
)
def test_run_cycle_rejects_bad_controls(
    bench_params, bench_protocol, bench_signal, kwargs, match
):
    with pytest.raises(ParameterError, match=match):
        run_cycle(bench_params, bench_protocol, bench_signal, **kwargs)


def test_guard_ratio_reported_per_phase(bench_params, bench_protocol, bench_signal):
    rec = run_cycle(
        bench_params, bench_protocol, bench_signal, n_medium=64, steps_per_width=16.0
    )
    assert set(rec.guard_ratio) == {"write", "hold", "read"}
    assert all(0.0 <= v < 1e-4 for v in rec.guard_ratio.values())


# ---------------------------------------------------------------------------
# batched rows
# ---------------------------------------------------------------------------

BATCH = dict(n_medium=64, steps_per_width=16.0)


def _assert_rows_match(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        assert got.params == want.params and got.protocol == want.protocol
        assert_allclose(got.t_out, want.t_out, rtol=1e-12, atol=0.0)
        scale = np.max(np.abs(want.f_out))
        assert_allclose(got.f_out, want.f_out, rtol=0.0, atol=1e-12 * scale)
        assert efficiency_1d(got) == pytest.approx(efficiency_1d(want), rel=1e-12)
        for name in ("stored_end_write", "stored_end_hold", "stored_end_read"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)
        assert set(got.guard_ratio) == set(want.guard_ratio)
        for phase, ratio in want.guard_ratio.items():
            assert got.guard_ratio[phase] == pytest.approx(ratio, rel=1e-12, abs=1e-300)


@settings(max_examples=12, deadline=None)
@given(
    diffs=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=8e-3)),
        min_size=1,
        max_size=4,
    ),
    phases=st.sampled_from(
        [(), ("write",), ("hold",), ("read",), ("write", "hold", "read")]
    ),
)
def test_batched_rows_match_single_solves(
    bench_params, bench_signal, diffs, phases
):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=3e-6)
    rows = [bench_params.with_diffusivity(d) for d in diffs]
    batch = run_cycle(rows, proto, bench_signal, diffusion_phases=phases, **BATCH)
    singles = [
        run_cycle(p, proto, bench_signal, diffusion_phases=phases, **BATCH) for p in rows
    ]
    _assert_rows_match(batch, singles)


def test_per_row_exact_holds_match_direct_solves(bench_params, bench_signal):
    # rows differ in t_hold (one of them not holding at all) and in D;
    # frames outside the holds stay per row on each row's own clock
    holds = (0.0, 3e-6, 1e-6, 7e-6)
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in holds]
    rows = [bench_params.with_diffusivity(d) for d in (0.004, 0.0, 0.002, 0.004)]
    frames = dict(sigma_times=(-1e-6, 8e-6, 12e-6))
    batch = run_cycle(rows, protos, bench_signal, **frames, **BATCH)
    singles = [
        run_cycle(p, pr, bench_signal, **frames, **BATCH) for p, pr in zip(rows, protos)
    ]
    _assert_rows_match(batch, singles)
    for got, want in zip(batch, singles):
        assert got.t_out[0] == want.protocol.t_hold
        assert [t for t, _ in got.sigma_frames] == [t for t, _ in want.sigma_frames]
        for (_, a), (_, b) in zip(got.sigma_frames, want.sigma_frames):
            assert_allclose(a, b, rtol=0.0, atol=1e-12 * np.max(np.abs(b)))


def test_per_row_gradient_holds_equal_their_single_solves(bench_params, bench_signal):
    # the gradient flips at each row's own mid-hold: a span boundary at a
    # per-row time, so the rows still share one write and one read grid
    holds = (0.0, 2e-6, 5e-6)
    protos = [StorageProtocol.gradient_through_hold(-TAU * 10e6, h) for h in holds]
    frames = dict(sigma_times=(-1e-6, 9e-6, 10e-6))
    batch = run_cycle(bench_params, protos, bench_signal, **frames, **BATCH)
    for got, proto in zip(batch, protos):
        want = run_cycle(bench_params, proto, bench_signal, **frames, **BATCH)
        for name in (
            "t_write", "f_trans", "t_hold", "f_hold_leak", "t_out", "f_out",
            "sigma_end_write", "sigma_end_hold", "sigma_end_read",
        ):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.output_energy == want.output_energy
        assert got.guard_ratio == want.guard_ratio
        assert [t for t, _ in got.sigma_frames] == [t for t, _ in want.sigma_frames]
        assert all(
            np.array_equal(a, b) for (_, a), (_, b) in zip(got.sigma_frames, want.sigma_frames)
        )


def test_single_row_returns_a_record_and_sequences_a_list(
    bench_params, bench_protocol, bench_signal
):
    assert isinstance(run_cycle(bench_params, bench_protocol, bench_signal, **BATCH), CycleRecord)
    recs = run_cycle([bench_params], bench_protocol, bench_signal, **BATCH)
    assert isinstance(recs, list) and len(recs) == 1


@pytest.mark.parametrize(
    "make_rows, match",
    [
        (
            lambda p, s: ([p, p], [
                StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=1e-6),
                StorageProtocol.standard(eta_write=-TAU * 12e6, t_hold=1e-6),
            ]),
            "differ in eta_write",
        ),
        (
            lambda p, s: ([p, replace(p, density=0.4e18)], s),
            "differ in density",
        ),
        (
            lambda p, s: (p, [
                replace(StorageProtocol.standard(-TAU * 10e6, h), control_on_hold=True)
                for h in (2e-6, 4e-6)
            ]),
            "only when the hold is undriven",
        ),
        (lambda p, s: ([p, p, p], [s, s]), "equal in number"),
        (lambda p, s: ([], s), "non-empty"),
    ],
)
def test_batched_rows_reject_what_needs_two_time_grids(
    bench_params, bench_protocol, bench_signal, make_rows, match
):
    params, protocols = make_rows(bench_params, bench_protocol)
    with pytest.raises(ParameterError, match=match):
        run_cycle(params, protocols, bench_signal, **BATCH)


def _group_counts(plan):
    """(phase, groups) of each span of a cycle plan."""
    return [(phase, groups) for phase, spans in plan for *_, groups, _ in spans]


def test_the_plan_fans_the_groups_out_at_the_first_span_that_tells_them_apart(
    bench_params, bench_signal
):
    eta = -TAU * 10e6
    plan_of = partial(solver1d._cycle_plan, signal=bench_signal, steps_per_width=16.0)
    # a grouped gradient-through-hold call shares its write and parts at the hold
    grouped = [StorageProtocol.gradient_through_hold(eta, h) for h in (0.0, 2e-6, 4e-6)]
    _, plan = plan_of([bench_params] * 3, grouped)
    assert _group_counts(plan) == [("write", 1), ("hold", 3), ("hold", 3), ("read", 3)]
    # 1D rows that differ in D, diffusing only in the hold, part there and stay apart
    rows = [StorageProtocol.standard(eta, 2e-6)] * 3
    diffs = [0.0, 0.004, 0.008]
    param_rows = [bench_params.with_diffusivity(d) for d in diffs]
    _, plan = plan_of(param_rows, rows, diffusion_phases=("hold",))
    assert _group_counts(plan) == [("write", 1), ("hold", 3), ("read", 3)]
    write, hold, read = (diffusivity for _, spans in plan for *_, diffusivity, _, _ in spans)
    assert write == read == 0.0 and hold.tolist() == diffs  # the plan gathers the rows' D
    # a single protocol stays one group throughout
    _, plan = plan_of([bench_params], grouped[1:2])
    assert _group_counts(plan) == [("write", 1), ("hold", 1), ("hold", 1), ("read", 1)]
    with pytest.raises(ParameterError, match="unknown diffusion phase 'park'"):
        plan_of(param_rows, rows, diffusion_phases=("write", "park"))


def test_per_row_holds_take_no_snapshot_inside_a_hold(bench_params, bench_signal):
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in (1e-6, 3e-6)]
    with pytest.raises(ParameterError, match="no snapshot inside the hold"):
        run_cycle(bench_params, protos, bench_signal, sigma_times=(2e-6,), **BATCH)
    # after the hold each row reads on its own clock, which no cut can
    # share: a time off a row's step grid is refused, one on every row's
    # grid is taken (the per-row tests above)
    with pytest.raises(ParameterError, match="only on a step boundary"):
        run_cycle(bench_params, protos, bench_signal, sigma_times=(6.03e-6,), **BATCH)


def test_a_snapshot_off_the_step_grid_cuts_the_driven_piece(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=0.0)
    plan_of = partial(
        solver1d._cycle_plan, [bench_params], [proto], bench_signal, steps_per_width=8.0
    )
    window = proto.write_window(bench_signal)
    step = window / math.ceil(window / (bench_signal.t_width / 8.0))
    (_, (write,)), *_ = plan_of(cut_times=(-window + 5 * step,))[1]
    assert len(write[-1]) == 1  # on the grid: one piece, its frame at a boundary
    (_, (write,)), *_ = plan_of(cut_times=(-3.3e-6,))[1]
    (a, la, na), (b, lb, nb) = write[-1]
    assert (a, b) == (-window, -3.3e-6)
    assert a + la == pytest.approx(b, abs=1e-18) and b + lb == pytest.approx(0.0, abs=1e-18)
    assert la / na <= step and lb / nb <= step
