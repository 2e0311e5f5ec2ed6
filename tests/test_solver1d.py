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
from scipy.fft import fft, ifft, next_fast_len
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
from gemdiff.pulses import ControlProfile, control_rabi, sample_temporal
from gemdiff.transverse import TransverseGrid, _RadialDiffusion, run_cycle_realspace
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


def _drive_fixture(bench_params, shape, n_medium, dt=2e-8):
    """A driven step's inputs on a random (groups, rows, n_z) state: rows of
    their own coupling and residual, under the step's exact propagator."""
    grid = Grid1D.build(bench_params.half_length, n_medium=n_medium)
    assert grid.n_z == shape[-1]
    rng = np.random.default_rng(11)
    sigma = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    p, eta = bench_params, -TAU * 10e6
    rows = np.linspace(1.0, 0.2, shape[1])[:, None]
    coupling, residual = p.coupling_eff * rows, stark_residual(p, rows)
    drives = solver1d._Propagators(grid, coupling, p.density, p.light_speed, residual)
    drive = drives(dt, eta, True)
    kern = StepKernels.build(grid, dt, eta, residual, 0.004, p.k_matched, 0.0, drive)
    kwargs = dict(
        fin_now=0.3 - 0.2j,
        fin_mid=(0.1 + 0.4j) * np.linspace(1.0, 0.0, shape[1])[:, None],
        fin_next=-0.2 + 0.1j,
        drive_on=True,
    )
    return sigma, kern, grid, kwargs


@pytest.mark.parametrize("groups", [1, 2])
def test_drive_acts_on_the_medium_only(bench_params, groups):
    # advance_step drives sigma[..., grid.medium] alone: each row's medium
    # becomes P x + w_now fin_now + w_mid fin_mid + w_next fin_next, with P
    # and the weights of scipy's expm of that row's bordered generator, within
    # 4e-15 of the row's peak (measured 2.3 to 4.2e-16), and the padding gets
    # the rotation and light shift and nothing else; the input state is left
    # as it was
    sigma, kern, grid, kwargs = _drive_fixture(bench_params, (groups, 3, 256), 96)
    before = sigma.copy()
    got = advance_step(sigma, kern, grid, **kwargs)
    p, h, eta = bench_params, kern.dt, -TAU * 10e6
    med = grid.medium
    fins = (kwargs["fin_now"], kwargs["fin_mid"], kwargs["fin_next"])
    rows = np.linspace(1.0, 0.2, sigma.shape[1])
    for r, g_r in enumerate((p.coupling_eff * rows).tolist()):
        residual = stark_residual(p, rows[r])
        drives = solver1d._Propagators(grid, g_r, p.density, p.light_speed, residual)
        want = _bordered_expm(drives, h, eta, residual)
        m = drives.z.size
        x = sigma[:, r, med]
        ref = x @ want[:m, :m].T
        for weight, fin in zip(_want_weights(drives, h, want), fins):
            ref = ref + weight * np.broadcast_to(fin, (len(rows), 1))[r, 0]
        assert np.max(np.abs(got[:, r, med] - ref)) <= 4e-15 * np.max(np.abs(ref)), r
    pad = grid.mask == 0.0
    assert np.array_equal(got[..., pad], (kern.rot_full * sigma)[..., pad])
    assert np.array_equal(sigma, before)


@pytest.mark.parametrize("shape, n_medium", [((1, 1, 1024), 384), ((1, 128, 512), 192)])
def test_a_driven_step_holds_two_buffers(bench_params, shape, n_medium):
    # the drive runs in two buffers, one medium-sized and one as long as the
    # drive's transform: given them (the driver's way), a driven step peaks at
    # no more than one medium-sized array beyond the state it returns (an
    # input weight's product) and numpy's own ufunc buffers (at most three
    # operands' of getbufsize() elements), and without them at no more than
    # that plus the two buffers
    sigma, kern, grid, kwargs = _drive_fixture(bench_params, shape, n_medium)
    medium = sigma[..., grid.medium].nbytes
    scratch = solver1d._media(sigma, grid, kern.propagator.symbol.shape[-1])
    buffers = sum(buffer.nbytes for buffer in scratch)
    numpys = 3 * np.getbufsize() * sigma.itemsize
    for given, bound in ((scratch, medium + numpys), (None, medium + numpys + buffers)):
        advance_step(sigma, kern, grid, scratch=given, **kwargs)  # warm: first-call caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = advance_step(sigma, kern, grid, scratch=given, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= bound, given is None


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
    # real space with diffusion under a Gaussian control splits each step
    # into the radial Crank-Nicolson halves around the exact drive (Strang),
    # whose error is second order: halving dt four-folds it at the end of the
    # write, ||s(h) - s(h/4)|| / ||s(h/2) - s(h/4)|| -> (16 + 4) / 4 = 5
    # (measured 5.08; the error at 20 steps per width is 4.1e-7 of the frame).
    # Without the split the drive is exact in time (the step-independence
    # tests below)
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
        ).sigma_frames[0][1]
        for spw in (20.0, 40.0, 80.0)
    ]
    coarse = np.linalg.norm(runs[0] - runs[2])
    fine = np.linalg.norm(runs[1] - runs[2])
    assert 4.0 < coarse / fine < 6.0


def test_realspace_without_diffusion_is_step_independent(bench_params, bench_signal):
    # with no transverse operator each radial column is a 1D row of its own
    # coupling and light shift, and the drive is exact in time: under
    # phase-profile's Gaussian control and pulse, the mid-hold frame at 6, 8
    # and 16 steps per width agrees with 48 to within 2e-5 of its norm
    # (measured 6.1e-6, 2.0e-6 and 1.2e-7; a second-order midpoint drive
    # was 5.1e-2, 2.9e-2 and 6.7e-3 off)
    params = bench_params.with_diffusivity(0.0)
    signal = replace(bench_signal, t_width=0.35e-6, t_lead=2e-6)
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 16e-6)
    control = ControlProfile.gaussian(params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(signal.waist, n_r=16)

    def frame(spw):
        rec = run_cycle_realspace(
            params,
            proto,
            signal,
            control,
            tgrid,
            n_medium=64,
            steps_per_width=spw,
            sigma_times=(proto.flip_time(),),
        )
        return rec.sigma_frames[0][1]

    ref = frame(48.0)
    for spw in (6.0, 8.0, 16.0):
        assert np.linalg.norm(frame(spw) - ref) <= 2e-5 * np.linalg.norm(ref), spw


def test_1d_efficiency_is_step_independent(bench_params, bench_protocol, bench_signal):
    # the exponential drive leaves only the input's quadratic interpolation
    # and the diffusion split to the step: from 6 steps per width on, the
    # efficiency agrees with the same drive at 400 steps per width (itself
    # 1.7e-10 off 1600) to within 1e-5 (measured: -5.2, -2.0, -0.21, -0.034
    # e-6)
    cycle = partial(run_cycle, bench_params, bench_protocol, bench_signal, n_medium=64)
    ref = efficiency_1d(cycle(steps_per_width=400.0))
    for spw in (6.0, 8.0, 16.0, 32.0):
        assert abs(efficiency_1d(cycle(steps_per_width=spw)) - ref) < 1e-5, spw


def _propagators(params, n_medium=64):
    grid = Grid1D.build(params.half_length, n_medium=n_medium)
    residual = stark_residual(params, params.rabi_control)
    return solver1d._Propagators(
        grid, params.coupling_eff, params.density, params.light_speed, residual
    )


def _row_of(drive, r):
    """Row r of a stacked drive, as a one-row stack (the twist is every row's)."""
    weights = None if drive.weights is None else tuple(w[r : r + 1] for w in drive.weights)
    return solver1d._Drive(drive.column[r : r + 1], drive.symbol[r : r + 1], drive.twist, weights)


def _coupling_and_kappa(drives):
    """A one-row drive's coupling g, from its keys, and kappa = g^2 N dz / (2 c)."""
    (g,) = drives.keys[:, 0].real.tolist()
    return g, g * g * drives.density * drives.dz / (2.0 * drives.light_speed)


def _columns(drive):
    """P's column 0 and c = P[1:, 1] of a one-row drive, c read back from its symbol."""
    (column,), (symbol,) = drive.column, drive.symbol
    return column, ifft(symbol)[: column.size - 1]


def _dense(drive):
    """P of a one-row drive, assembled: past index 0, P[j, k] = c[j - k] twist[k - 1]."""
    column, c = _columns(drive)
    m = column.size
    p = np.zeros((m, m), dtype=complex)
    p[:, 0] = column
    j, k = np.tril_indices(m - 1)
    p[1 + j, 1 + k] = c[j - k] * drive.twist[k]
    return p


def _applied(drive, x):
    """P x for each row x of x, by the drive's FFT product."""
    rows = np.array(x, dtype=complex)
    return drive.apply(rows, np.empty((*rows.shape[:-1], drive.symbol.size), dtype=complex))


def _bordered_generator(drives, h, eta, residual, decay=0.0):
    """The dense bordered generator of a step h in the medium-first layout:
    L h, with -decay h more on its diagonal, the input column (1/n per
    cell) and the 3 x 3 shift."""
    m = drives.z.size
    cells = np.arange(m)
    grown = np.zeros((m + 3, m + 3), dtype=complex)
    slave_field(np.eye(m), -_coupling_and_kappa(drives)[1] * h, None, out=grown[:m, :m].T)
    grown[cells, cells] += (-1j * h) * (eta * drives.z + residual)
    grown[cells, cells] -= decay * h
    grown[:m, m] = 1.0 / m
    grown[m, m + 1] = grown[m + 1, m + 2] = 1.0
    return grown


def _bordered_expm(drives, h, eta, residual, decay=0.0):
    """scipy's expm of the bordered generator in the medium-first layout.

    The generator is handed to scipy transposed in the border-first order,
    upper triangular, whose diagonal scipy's squarings recompute exactly: of
    the general medium-first matrix its expm is itself 0.7 to 2.7e-13 off a
    40-digit reference at 1000 sweep steps."""
    m = drives.z.size
    grown = _bordered_generator(drives, h, eta, residual, decay)
    border_first = np.r_[m + 2, m + 1, m, :m]
    order = np.ix_(border_first, border_first)
    lower = grown[order]
    assert not np.any(np.triu(lower, 1))
    want = np.empty_like(grown)
    want[order] = scipy_expm(np.ascontiguousarray(lower.T)).T
    return want


def _want_weights(drives, h, want):
    m = drives.z.size
    coupling = _coupling_and_kappa(drives)[0]
    phi1, phi2, phi3 = ((m * h * 1j * coupling) * want[:m, m + k] for k in range(3))
    return (phi1 - 3.0 * phi2 + 4.0 * phi3, 4.0 * phi2 - 8.0 * phi3, 4.0 * phi3 - phi2)


def _assert_matches_expm(drive, drives, h, want, bound):
    """Column 0, c and the assembled P within bound of P's largest entry, and
    each weight within bound of its own."""
    m = drives.z.size
    column, c = _columns(drive)
    scale = np.max(np.abs(want[:m, :m]))
    for got, ref in ((column, want[:m, 0]), (c, want[1:m, 1]), (_dense(drive), want[:m, :m])):
        assert np.max(np.abs(got - ref)) <= bound * scale
    for got, ref in zip(drive.weights, _want_weights(drives, h, want)):
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


def test_the_propagator_starts_at_the_identity_and_is_a_semigroup(bench_params):
    eta = -TAU * 10e6
    drives = _propagators(bench_params)
    zero = drives(0.0, eta, True)
    m = zero.column.size
    # P(0) = I: exact unit columns, column 0 and c = e_0 (whose FFT is all ones), one row
    assert np.array_equal(zero.column, np.eye(m)[:1])
    assert np.array_equal(zero.symbol, np.ones((1, drives.length)))
    assert np.array_equal(zero.twist, np.ones(m - 1))
    # P(b) P(a) = P(a + b), assembled and by the FFT product on the rows of I
    a, b, ab = (drives(h, eta, False) for h in (4e-8, 9e-8, 13e-8))
    want = _dense(ab)
    assert np.max(np.abs(_dense(b) @ _dense(a) - want)) <= 1e-14 * np.max(np.abs(want))
    twice = _applied(b, _applied(a, np.eye(m)))  # rows e_k (P(b) P(a))^T
    assert np.max(np.abs(twice - want.T)) <= 1e-14 * np.max(np.abs(want))


def test_the_read_propagator_is_the_conjugate_of_the_write(bench_params):
    # P_{-eta}(h) = exp(-2 i residual h) conj(P_eta(h)), against its own build
    eta, h = -TAU * 10e6, 1e-6 / 8.0
    drives = _propagators(bench_params)
    drives(h, eta, True)  # the write builds its propagator
    derived = drives(h, -eta, False)
    assert derived.weights is None and len(drives.known) == 2
    direct = _propagators(bench_params)(h, -eta, False)
    for got, ref in (*zip(_columns(derived), _columns(direct)), (derived.twist, direct.twist)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    x = np.random.default_rng(7).standard_normal((3, derived.column.size))
    got, ref = _applied(derived, x), _applied(direct, x)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a read step at a step that differs in round-off only reuses it
    again = drives(h * (1.0 + 4e-16), -eta, False)
    assert again is derived and len(drives.known) == 2
    # rows of their own coupling and residual: each row's read entry, rotated
    # by its own exp(-2 i residual_r h), against a fresh single-row build
    p, grid = bench_params, Grid1D.build(bench_params.half_length, n_medium=64)
    coupling, residual = _gaussian_rows(p)
    drives = solver1d._Propagators(grid, coupling, p.density, p.light_speed, residual)
    drives(h, eta, True)
    derived = drives(h, -eta, False)
    assert derived.weights is None and len(drives.known) == 2
    for r, (g_r, d_r) in enumerate(zip(coupling[:, 0].tolist(), residual[:, 0].tolist())):
        direct = solver1d._Propagators(grid, g_r, p.density, p.light_speed, d_r)(h, -eta, False)
        for got, ref in ((derived.column[r], direct.column), (derived.symbol[r], direct.symbol)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), r
        assert np.max(np.abs(derived.twist - direct.twist)) <= 1e-13


def test_the_drive_transform_length_is_scipys_next_fast_len():
    # the least 11-smooth length, scipy's choice for a complex transform
    lengths = range(1, 4097)
    assert [solver1d._next_fast_len(n) for n in lengths] == [next_fast_len(n) for n in lengths]


def test_the_propagator_at_the_sweep_grid_matches_scipy(bench_params):
    # the five-column build against scipy's expm of the same generator in
    # the medium-first layout, at the standard sweep grid (388 bordered)
    eta, h, n = -TAU * 10e6, 1e-6 / 8.0, 384
    drives = _propagators(bench_params, n_medium=n)
    drive = drives(h, eta, True)
    assert drives.z.size == 385 and drives.length == 768  # the medium's points, faces included
    # an entry keeps O(n) per row, in one row: no n x n matrix
    assert drive.twist.ndim == 1
    assert all(a.shape == (1, a.shape[-1]) for a in (drive.column, drive.symbol, *drive.weights))
    want = _bordered_expm(drives, h, eta, drives.residual.item())
    _assert_matches_expm(drive, drives, h, want, 1e-13)


def test_the_fft_product_matches_the_dense_product_at_the_sweep_grid(bench_params):
    # the step's FFT product against scipy's expm times the rows, normwise:
    # measured 4.1, 4.8 and 4.3e-16 on these 1, 4 and 8 random rows (the built
    # P's dense product: 2.6, 3.9 and 3.3e-16), so 2e-15 is four times the largest
    eta, h, n = -TAU * 10e6, 1e-6 / 8.0, 384
    drives = _propagators(bench_params, n_medium=n)
    drive = drives(h, eta, True)
    m = drives.z.size
    want = _bordered_expm(drives, h, eta, drives.residual.item())[:m, :m]
    rng = np.random.default_rng(11)
    for rows in (1, 4, 8):
        x = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
        ref = x @ want.T
        assert np.linalg.norm(_applied(drive, x) - ref) <= 2e-15 * np.linalg.norm(ref), rows


@pytest.mark.parametrize("eta", [-TAU * 10e6, 0.0, TAU * 10e6])
@pytest.mark.parametrize("steps", [1.0, 10.0, 1000.0])
def test_the_build_takes_the_exact_1_norm_of_its_generator(bench_params, monkeypatch, eta, steps):
    # the norm that sets the build's squarings and Taylor terms is the largest
    # column sum of the dense bordered generator, medium and border columns
    # alike (at least 1, the border's), to round-off
    seen = []
    terms = solver1d._terms
    monkeypatch.setattr(solver1d, "_terms", lambda norm: seen.append(norm) or terms(norm))
    drives = _propagators(bench_params, n_medium=16)
    h = steps * 1e-6 / 8.0
    drives(h, eta, True)
    generator = _bordered_generator(drives, h, eta, drives.residual.item())
    assert seen == [pytest.approx(np.max(np.sum(np.abs(generator), axis=0)), rel=1e-14)]


@pytest.mark.parametrize("scale", [0.0, 1.0, 10.0, 100.0, 1000.0])
def test_the_five_column_build_matches_scipy(bench_params, scale):
    # column 0, c, the assembled P and the weights, from five columns of the
    # bordered exponential, against scipy's expm of the bordered generator (built
    # border first, _bordered_expm), from no step (P exactly I) to 1000 sweep
    # steps, for both gradient signs and none (a control-on hold), at a nonzero
    # residual (a local Rabi frequency half the peak's).  At 1000 sweep steps
    # without a gradient, one ulp of kappa moves P by 5e-14, and the build and
    # this reference are each 6 to 7e-14 off a 40-digit one (measured 8.8e-14
    # apart): the bound has little slack there
    p = bench_params
    grid = Grid1D.build(p.half_length, n_medium=64)
    residual = stark_residual(p, 0.5 * p.rabi_control)
    assert residual != 0.0
    h = scale * 1e-6 / 8.0
    for eta in (-TAU * 10e6, TAU * 10e6, 0.0):
        drives = solver1d._Propagators(grid, p.coupling_eff, p.density, p.light_speed, residual)
        drive = drives(h, eta, True)
        _assert_matches_expm(drive, drives, h, _bordered_expm(drives, h, eta, residual), 1e-13)
        if scale == 0.0:
            m = drive.column.size
            assert np.array_equal(drive.column, np.eye(m)[:1])
            assert np.array_equal(drive.symbol, np.ones((1, drives.length)))
        # the FFT product applies the assembled P
        x = np.random.default_rng(5).standard_normal((2, drive.column.size))
        ref = x @ _dense(drive).T
        assert np.max(np.abs(_applied(drive, x) - ref)) <= 1e-13 * np.max(np.abs(ref)), eta


def test_a_decaying_row_takes_the_exponential_of_its_decaying_generator(bench_params):
    # a radial mode's row carries its transverse decay gamma as minus the
    # imaginary part of its residual: stacked rows that share a coupling and
    # differ in gamma h (0 to 0.018, beam-width's largest mode at its standard
    # step) take column 0, c, the assembled P and the weights of scipy's expm
    # of the bordered generator with -gamma h more on its diagonal, within
    # 1e-13, each row the bits of its own build; the read's conjugate rotates
    # by the real residual only (a decay is its own conjugate), against the
    # same expm at the opposite gradient
    p = bench_params
    eta, h = -TAU * 10e6, 1e-6 / 8.0
    grid = Grid1D.build(p.half_length, n_medium=64)
    residual = stark_residual(p, 0.5 * p.rabi_control)
    decay = np.array([[0.0], [0.002], [0.018]]) / h
    coupling = p.coupling_eff
    drives = solver1d._Propagators(grid, coupling, p.density, p.light_speed, residual - 1j * decay)
    write, read = drives(h, eta, True), drives(h, -eta, False)
    assert len(drives.keys) == 3 and read.weights is None
    for r, gamma in enumerate(decay[:, 0].tolist()):
        damped = residual - 1j * gamma
        alone = solver1d._Propagators(grid, coupling, p.density, p.light_speed, damped)
        single = alone(h, eta, True)
        row = _row_of(write, r)
        for got, want in zip(row[:2] + row.weights, single[:2] + single.weights):
            assert np.array_equal(got, want), r
        _assert_matches_expm(row, alone, h, _bordered_expm(alone, h, eta, residual, gamma), 1e-13)
        m = alone.z.size
        want = _bordered_expm(alone, h, -eta, residual, gamma)[:m, :m]
        mirrored = _row_of(read, r)
        scale = np.max(np.abs(want))
        got = (*_columns(mirrored), _dense(mirrored))
        for value, ref in zip(got, (want[:, 0], want[1:, 1], want)):
            assert np.max(np.abs(value - ref)) <= 1e-13 * scale, r


def _gaussian_rows(params, n_r=16):
    """The couplings and light-shift residuals of a Gaussian control's radial
    columns, as (n_r, 1) columns: every row distinct."""
    tgrid = TransverseGrid.radial(1.45e-3, n_r=n_r)
    rabi = control_rabi(ControlProfile.gaussian(params.rabi_control, 3e-3), tgrid.r)[:, None]
    return params.coupling_g * rabi / params.detuning, stark_residual(params, rabi)


def test_stacked_groups_step_as_their_single_solves(bench_params, monkeypatch):
    # one batched FFT product serves every group; each group's new state is
    # the one it gets alone, to the bit.  Rows of their own coupling and
    # residual stack one build per row, whose Taylor phase runs in batches
    # of the rows that share their (s, terms): each row of the column,
    # symbol and weights is that row's single-row build, to the bit.  The
    # rows: one row; a Gaussian control's columns; then three of them twice (the
    # driver steps such rows once, but each builds alone here); then 32
    # columns and five rows whose couplings span 640x: 13 (s, terms), s
    # from 0 to 13, and more rows of the commonest than one batch takes
    p = bench_params
    eta, h = -TAU * 10e6, 1e-6 / 8.0
    grid = Grid1D.build(p.half_length, n_medium=64)
    coupling, residual = _gaussian_rows(p)
    dense = _gaussian_rows(p, n_r=32)
    shared = stark_residual(p, p.rabi_control)
    wide = np.array([[0.1], [1.0], [4.0], [16.0], [64.0]])
    cases = [
        (np.array([[p.coupling_eff]]), np.array([[shared]])),
        (coupling, residual),
        (np.r_[coupling, coupling[:3]], np.r_[residual, residual[:3]]),
        (np.r_[dense[0], wide * p.coupling_eff], np.r_[dense[1], wide**2 * shared]),
    ]
    plans, terms = [], solver1d._terms  # each build records its rows' (s, terms)
    monkeypatch.setattr(solver1d, "_terms", lambda norm: plans.append(terms(norm)) or plans[-1])
    rng = np.random.default_rng(3)
    for coupling, residual in cases:
        plans.clear()
        drive = solver1d._Propagators(grid, coupling, p.density, p.light_speed, residual)(
            h, eta, True
        )
        stacked_plans = list(plans)
        rows = np.size(coupling)
        built = (drive.column, drive.symbol, *drive.weights)
        assert all(a.shape[:-1] == (rows,) for a in built)  # one stacked row per row
        for r, (g_r, d_r) in enumerate(zip(coupling[:, 0].tolist(), residual[:, 0].tolist())):
            alone = solver1d._Propagators(grid, g_r, p.density, p.light_speed, d_r)
            alone = alone(h, eta, True)
            assert np.array_equal(drive.twist, alone.twist)
            for got, want in zip(built, (alone.column, alone.symbol, *alone.weights)):
                assert np.array_equal(got[r : r + 1], want), r
        kern = StepKernels.build(grid, h, eta, residual, 0.0, p.k_matched, 0.0, drive)
        shape = (5, rows, grid.n_z)
        sigma = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kwargs = dict(fin_now=0.3 - 0.2j, fin_mid=0.5 + 0.1j, fin_next=0.2 + 0.4j, drive_on=True)
        stacked = advance_step(sigma, kern, grid, **kwargs)
        for g in range(len(sigma)):
            alone = advance_step(sigma[g : g + 1], kern, grid, **kwargs)
            assert np.array_equal(stacked[g], alone[0])
        # the padding gets the rotation and light shift alone
        pad = grid.mask == 0.0
        assert np.array_equal(stacked[..., pad], (kern.rot_full * sigma)[..., pad])
    assert len(set(stacked_plans)) == 13 and max(stacked_plans)[0] == 13
    assert max(map(stacked_plans.count, stacked_plans)) > solver1d._TAYLOR_ROWS


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
    # FFTs, plus one for the before half of its first step.  Only transforms
    # of the state's length count: the drive's own (_Drive.apply) are 192
    # long here against the state's 256 (at 64 cells both would be 128)
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
        n_medium=96,
        steps_per_width=16.0,
        diffusion_phases=("write",),
    )
    n_steps = rec.t_write.size - 1
    assert n_steps > 50
    assert sum(shape[-1] == rec.grid.n_z for shape in calls) == n_steps + 1


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
    traces, _, _, taker = solver1d._drive_cycle(
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
    frames = [frame for _, frame in taker.sigma_frames]  # every group's rows
    assert [t for t, _ in taker.sigma_frames] == [0.0, 2e-6]
    kept = ends + frames
    assert all(a.base is None for a in kept)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(kept) for b in kept[i + 1 :])
    # the write ends at t = 0 and the hold at 2 us, where the frames were taken
    assert np.array_equal(ends[0], frames[0]) and np.array_equal(ends[1], frames[1])
    assert not np.array_equal(ends[1], ends[2])
    # each record slices its own frames out of the call's: a frame in the
    # shared write is one state for every row, yet no two records share it
    rows = [bench_params.with_diffusivity(d) for d in (0.0, 0.004)]
    records = run_cycle(rows, proto, bench_signal, sigma_times=(-1e-6, 0.0), **BATCH)
    frames = [frame for rec in records for _, frame in rec.sigma_frames]
    assert len(frames) == 4 and all(a.base is None for a in frames)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(frames) for b in frames[i + 1 :])


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
    # rows differ in t_hold (one of them not holding at all) and in D; they
    # take their frames in the write they share, the one end at t = 0
    holds = (0.0, 3e-6, 1e-6, 7e-6)
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in holds]
    rows = [bench_params.with_diffusivity(d) for d in (0.004, 0.0, 0.002, 0.004)]
    frames = dict(sigma_times=(-3.3e-6, -1e-6, 0.0))
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
    frames = dict(sigma_times=(-3.3e-6, -1e-6, 0.0))
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
    _, plan, origin = plan_of([bench_params] * 3, grouped)
    assert _group_counts(plan) == [("write", 1), ("hold", 3), ("hold", 3), ("read", 3)]
    # the read runs on its own clock: one span from 0 for every group, whose
    # origin is each group's t_hold
    (_, (read,)) = plan[-1]
    assert read[0] == 0.0 and origin.tolist() == [0.0, 2e-6, 4e-6]
    # 1D rows that differ in D, diffusing only in the hold, part there and stay apart
    rows = [StorageProtocol.standard(eta, 2e-6)] * 3
    diffs = [0.0, 0.004, 0.008]
    param_rows = [bench_params.with_diffusivity(d) for d in diffs]
    _, plan, origin = plan_of(param_rows, rows, diffusion_phases=("hold",))
    assert _group_counts(plan) == [("write", 1), ("hold", 3), ("read", 3)] and origin == 2e-6
    write, hold, read = (diffusivity for _, spans in plan for *_, diffusivity, _, _ in spans)
    assert write == read == 0.0 and hold.tolist() == diffs  # the plan gathers the rows' D
    # a single protocol stays one group throughout
    _, plan, _ = plan_of([bench_params], grouped[1:2])
    assert _group_counts(plan) == [("write", 1), ("hold", 1), ("hold", 1), ("read", 1)]
    with pytest.raises(ParameterError, match="unknown diffusion phase 'park'"):
        plan_of(param_rows, rows, diffusion_phases=("write", "park"))


def test_rows_that_differ_in_t_hold_take_snapshots_in_the_write_only(bench_params, bench_signal):
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in (1e-6, 3e-6)]
    # inside a hold, after one, and in a read: each a time of one row's
    # clock that the other's does not share
    for t in (2e-6, 1e-6 + 1e-9, 6.03e-6, 3e-6 + 4e-6):
        with pytest.raises(ParameterError, match="in the write only"):
            run_cycle(bench_params, protos, bench_signal, sigma_times=(t,), **BATCH)
    # the shared write, to its end at t = 0, is every row's
    times = (-2.2e-6, 0.0)
    records = run_cycle(bench_params, protos, bench_signal, sigma_times=times, **BATCH)
    assert all([t for t, _ in rec.sigma_frames] == list(times) for rec in records)


def test_a_snapshot_off_the_step_grid_cuts_the_driven_piece(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    plan_of = partial(
        solver1d._cycle_plan, [bench_params], [proto], bench_signal, steps_per_width=8.0
    )
    window = proto.write_window(bench_signal)
    n_write = math.ceil(window / (bench_signal.t_width / 8.0))
    step = window / n_write
    # on the step grid too a snapshot ends its piece: the two pieces keep the
    # uncut step, to round-off, and its step count
    (_, (write,)), *_ = plan_of(cut_times=(-window + 5 * step,))[1]
    (a, la, na), (b, lb, nb) = write[-1]
    assert (a, b, na, nb) == (-window, -window + 5 * step, 5, n_write - 5)
    assert la / na == pytest.approx(step, rel=1e-12) and lb / nb == pytest.approx(step, rel=1e-12)
    (_, (write,)), *_ = plan_of(cut_times=(-3.3e-6,))[1]
    (a, la, na), (b, lb, nb) = write[-1]
    assert (a, b) == (-window, -3.3e-6)
    assert a + la == pytest.approx(b, abs=1e-18) and b + lb == pytest.approx(0.0, abs=1e-18)
    assert la / na <= step and lb / nb <= step
    # the read is cut on its own clock, at the time's offset from t_hold
    t = 2e-6 + 3.3e-6
    _, plan, origin = plan_of(cut_times=(t,))
    (_, (read,)) = plan[-1]
    (a, la, na), (b, lb, nb) = read[-1]
    assert origin == 2e-6 and (a, b) == (0.0, t - origin)
    assert b + lb == pytest.approx(window, abs=1e-18) and la / na <= step and lb / nb <= step
    rec = run_cycle(
        bench_params, proto, bench_signal, sigma_times=(t,), n_medium=64, steps_per_width=8.0
    )
    assert [time for time, _ in rec.sigma_frames] == [t]


def test_snapshot_times_within_round_off_make_one_boundary(bench_params, bench_signal):
    # two requests 5e-13 s apart, in the driven write and in the undriven
    # hold, cut each span once: no 5e-13 s piece, and the cycle is bit for
    # bit the cycle with one of the two times, both frames at its boundary
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    plan_of = partial(
        solver1d._cycle_plan, [bench_params], [proto], bench_signal, steps_per_width=8.0
    )
    for t in (-3.3e-6, 1e-6):
        pair = (t, t + 5e-13)
        _, plan, _ = plan_of(cut_times=pair)
        assert plan == plan_of(cut_times=(t,))[1]
        assert [a for _, spans in plan for *_, pieces in spans for a, _, _ in pieces].count(t) == 1
        one, both = (
            run_cycle(bench_params, proto, bench_signal, sigma_times=times, **BATCH)
            for times in ((t,), pair)
        )
        assert efficiency_1d(both) == efficiency_1d(one)
        assert [time for time, _ in both.sigma_frames] == list(pair)
        assert np.array_equal(both.sigma_frames[1][1], one.sigma_frames[0][1])


def test_a_driven_span_counts_its_steps_to_round_off(bench_params, bench_signal):
    # a 14 us write at 8 steps per width is 112.00000000000001 steps of
    # 0.125 us in double precision: the write and the read take 112, not 113,
    # and the radial operator takes as many sub-steps for the same length
    signal = replace(bench_signal, t_lead=10e-6)
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    window, dt0 = proto.write_window(signal), signal.t_width / 8.0
    assert window == pytest.approx(14e-6, rel=1e-15) and window / dt0 > 112.0
    _, plan, _ = solver1d._cycle_plan([bench_params], [proto], signal, steps_per_width=8.0)
    (_, (write,)), _, (_, (read,)) = plan
    assert [n for *_, n in write[-1]] == [n for *_, n in read[-1]] == [112]
    radial = _RadialDiffusion(TransverseGrid.radial(signal.waist, n_r=8), 0.004, dt0)
    taken = []
    blocks = radial.blocks
    radial.blocks = lambda h, m: taken.append(m) or blocks(h, m)
    radial.propagate(np.ones((8, 4), dtype=complex), window, 1)
    assert taken == [112]


def test_snapshot_times_outside_the_cycle_are_refused(bench_params, bench_signal):
    # a time before the write or after the read is refused, not moved to
    # the cycle's end nor dropped; the ends themselves are inside
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=1e-6)
    window = proto.write_window(bench_signal)
    for t in (-1.0, -window - 1e-9, 1e-6 + window + 1e-9, 1.0):
        with pytest.raises(ParameterError, match="inside the cycle"):
            run_cycle(bench_params, proto, bench_signal, sigma_times=(t, 5e-6), **BATCH)
    times = (-window, 1e-6 + window)
    rec = run_cycle(bench_params, proto, bench_signal, sigma_times=times, **BATCH)
    assert [t for t, _ in rec.sigma_frames] == list(times)


@pytest.mark.parametrize("t_hold", [1e3, 1e6, 1e8, 5e8, 1e9])
def test_long_holds_read_on_a_clock_of_their_own(bench_params, bench_signal, t_hold):
    # the read integrates its output over offsets from t_hold, which do not
    # round with it: at D = 0 a hold changes nothing, so every efficiency is
    # the t_hold = 0 one (it was 0.999445 at 1e8 s and 1.001468 at 1e9 s,
    # against 1.000138, while the read's times were absolute)
    still = bench_params.with_diffusivity(0.0)
    grid = dict(n_medium=192, steps_per_width=6.0)  # storage-cycle's coarse grid
    cycle = partial(run_cycle, still, signal=bench_signal, **grid)
    want = efficiency_1d(cycle(protocol=StorageProtocol.standard(-TAU * 10e6, 0.0)))
    rec = cycle(protocol=StorageProtocol.standard(-TAU * 10e6, t_hold))
    assert efficiency_1d(rec) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rec.t_out[0] == t_hold  # the reported times stay absolute
