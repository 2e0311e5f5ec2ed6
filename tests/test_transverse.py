"""Transverse routes: mode decomposition, the radial real-space solver, beam observables."""

import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_banded
from scipy.optimize import curve_fit
from scipy.special import eval_hermite, roots_hermite

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
    harness,
    hg_efficiency,
    intensity_and_width,
    output_width,
    run_cycle,
    run_cycle_quasi1d,
    run_cycle_realspace,
    solver1d,
    transverse,
)
from gemdiff.analytic import _mode_axis_factor
from gemdiff.pulses import ControlProfile, control_rabi, sample_transverse
from gemdiff.solver1d import _integral
from gemdiff.transverse import (
    Quasi1DRecord,
    RealspaceRecord,
    _RadialDiffusion,
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


def test_mode_grid_weights_are_the_normalised_hermite_power():
    # the n Gauss-Hermite nodes kappa as wavenumbers sqrt(2) kappa / waist,
    # each axis weighted by w H_m(kappa)^2 normalised to unit sum: no waist
    kappa, w = roots_hermite(32)
    for mode in [(0, 0), (1, 1), (2, 1), (0, 3)]:
        grid = ModeGrid.build(_beam(mode), n=32)
        assert grid.signal == _beam(mode)
        assert grid.n == 32 and grid.weights.shape == (2, 32)
        assert_allclose(grid.kx, math.sqrt(2.0) * kappa / WAIST, rtol=1e-14, atol=0.0)
        for order, weights in zip(mode, grid.weights):
            power = w * eval_hermite(order, kappa) ** 2
            assert_allclose(weights, power / power.sum(), rtol=1e-13, atol=0.0)
        wide = ModeGrid.build(replace(_beam(mode), waist=1e3 * WAIST), n=32)
        assert np.array_equal(wide.weights, grid.weights)
        assert_allclose(wide.kx * 1e3, grid.kx, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("mode", [(0, 0), (1, 1), (2, 1)])
@pytest.mark.parametrize("tau", [0.25, 1.0, 3.0])
def test_mode_grid_axis_factors_take_the_closed_form(mode, tau):
    # the decay exp(-tau_perp k^2 waist^2 / 2) of each axis against the grid's
    # weights is its factor of the closed form (measured within 4e-12 on 64
    # nodes; the 64-point FFT grid it replaced was off by up to 1.3e-3)
    grid = ModeGrid.build(_beam(mode), n=64)
    factors = grid.weights @ np.exp(-tau * (grid.kx * WAIST) ** 2 / 2.0)
    assert np.prod(factors) == pytest.approx(hg_efficiency(mode, tau), rel=1e-9, abs=0.0)


def test_mode_grid_holds_each_order_its_rule_resolves(monkeypatch):
    # n nodes hold an order m when n >= 24 + 2.5 m, and every order held keeps
    # its axis factor within 1e-4 of the closed form at exposure 3, the
    # largest tau_perp the experiments reach
    for n in (32, 64, 96):
        for m in range(40):
            held = n >= 24 + 2.5 * m
            try:
                grid = ModeGrid.build(_beam((m, 0)), n=n)
            except ParameterError as exc:
                assert not held and "cannot hold mode" in str(exc), (n, m)
                continue
            assert held, (n, m)
            factor = grid.weights[0] @ np.exp(-3.0 * (grid.kx * WAIST) ** 2 / 2.0)
            assert factor == pytest.approx(_mode_axis_factor(m, 3.0), rel=1e-4, abs=0.0)
        for mode in [(0, 0), (1, 1), (2, 1), (2, 2), (0, 3)]:  # every fidelity takes these
            ModeGrid.build(_beam(mode), n=n)

    # an order far beyond any rule is refused at once, before a Hermite value
    def no_hermite(*args):
        raise AssertionError("a refused order evaluated a Hermite polynomial")

    monkeypatch.setattr(transverse, "hermite", no_hermite)
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_hermite)
    for n in (32, 64, 96):
        with pytest.raises(ParameterError, match="cannot hold mode"):
            ModeGrid.build(_beam((10**30, 0)), n=n)


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


def test_panel_weights_integrate_powers_of_r_exactly():
    # n Gauss-Legendre nodes per panel are exact to degree 2 n - 1 in r, so
    # the area weights 2 pi r w of two panels integrate 2 pi r r^k over their
    # disc exactly for k <= 2 n - 2 (to round-off)
    (a, b, c), n = (0.0, 1.5e-3, 3.6e-3), 8
    inner, w_inner = harness._gauss_legendre(a, b, n)
    outer, w_outer = harness._gauss_legendre(b, c, n)
    grid = TransverseGrid.panels(np.r_[inner, outer], np.r_[w_inner, w_outer])
    assert grid.dr is None and grid.n_cols == 2 * n
    assert np.all(np.diff(grid.r) > 0.0) and a < grid.r[0] and grid.r[-1] < c
    for k in range(2 * n - 1):
        exact = 2.0 * math.pi * c ** (k + 2) / (k + 2)
        assert float(grid.weights @ grid.r**k) == pytest.approx(exact, rel=1e-13), k


def test_diffusion_runs_only_on_the_staggered_cells(bench_params, bench_signal):
    # the finite-volume operator needs the cells' faces, which a panel
    # grid's nodes do not have: diffusion there is refused under either
    # control, while without diffusion the nodes are independent columns,
    # so under a homogeneous control each is the 1D cycle scaled by its
    # input weight and the quadrature returns the 1D efficiency
    r, w = harness._gauss_legendre(0.0, 8.0 * bench_signal.waist, 8)
    tgrid = TransverseGrid.panels(r, w)
    with pytest.raises(ParameterError, match="staggered cells"):
        _RadialDiffusion(tgrid, bench_params.diffusivity, 1e-7)
    with pytest.raises(ParameterError, match="staggered cells"):
        transverse._radial_modes(tgrid, sample_transverse(bench_signal, r[:, None], 0.0))
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=2e-6)
    gaussian = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    for control in (gaussian, ControlProfile.homogeneous(bench_params.rabi_control)):
        with pytest.raises(ParameterError, match="staggered cells"):
            run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **FAST)
    still = bench_params.with_diffusivity(0.0)
    rec = run_cycle_realspace(still, proto, bench_signal, control, tgrid, **FAST)
    assert rec.intensity.shape == (tgrid.n_cols,)
    base = run_cycle(still, proto, bench_signal, **FAST)
    assert rec.efficiency == pytest.approx(efficiency_1d(base), rel=1e-10)


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


def test_the_thomas_solve_matches_scipy_on_the_radial_system(monkeypatch):
    # each half-step's tridiagonal solve at n_r = 128, short to long, against
    # scipy's LAPACK banded solve of the same system, to a few units of round-
    # off of the largest entry (2.3e-15 at the longest, worst-conditioned step)
    systems = []
    thomas = transverse.solve_banded

    def kept(band, rhs):
        systems.append((band, rhs))
        return thomas(band, rhs)

    monkeypatch.setattr(transverse, "solve_banded", kept)
    grid = TransverseGrid.radial(WAIST, n_r=128)
    diffusion = _RadialDiffusion(grid, 0.004, 1e-6)
    for h in (1e-9, 1e-7, 1e-5, 1e-3):
        diffusion.half(h)
    assert len(systems) == 4
    for band, rhs in systems:
        want = solve_banded((1, 1), band, rhs)
        bound = 4e-15 * np.max(np.abs(want))
        assert np.max(np.abs(thomas(band, rhs) - want)) <= bound
        assert np.max(np.abs(thomas(band, rhs[:, 3]) - want[:, 3])) <= bound  # one right-hand side


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


@pytest.mark.parametrize("mode", [(0, 0), (1, 1)])
def test_batched_quasi1d_matches_single_calls(bench_params, bench_signal, mode):
    # rows differ in D and in the exact hold; each row's base is wrapped
    # with its own transverse decay rates
    grid = ModeGrid.build(replace(bench_signal, mode=mode), n=32)
    rows = [bench_params.with_diffusivity(d) for d in (0.004, 0.0, 0.002)]
    protos = [StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=h) for h in (2e-6, 2e-6, 5e-6)]
    batch = run_cycle_quasi1d(rows, protos, grid, **FAST)
    for rec, params, proto in zip(batch, rows, protos):
        single = run_cycle_quasi1d(params, proto, grid, **FAST)
        assert rec.efficiency_kspace() == pytest.approx(single.efficiency_kspace(), rel=1e-12)
        assert np.array_equal(rec.gamma, single.gamma)


def test_quasi1d_axis_mode_carries_no_transverse_decay(quasi_record):
    # gamma = D kx^2 at the grid's nodes; an even rule has no node at k = 0,
    # an odd one has it at its middle, where the mode takes no decay
    grid = quasi_record.mode_grid
    assert quasi_record.gamma.shape == (grid.n,)
    assert np.array_equal(quasi_record.gamma, quasi_record.base.params.diffusivity * grid.kx**2)
    assert grid.n % 2 == 0 and np.all(quasi_record.gamma > 0.0)
    (odd,) = Quasi1DRecord.from_bases([quasi_record.base], ModeGrid.build(grid.signal, n=33))
    assert odd.gamma[16] == 0.0 and np.count_nonzero(odd.gamma) == 32


def _quadrature_2d(rec):
    """The quasi-1D efficiency of rec by the tensor-product rule on the plane.

    The reference the per-axis sums replace: scipy's Gauss-Hermite rule on
    both axes, the weight w_i w_j H_m(kappa_i)^2 H_n(kappa_j)^2 at gamma = D
    (kx_i^2 + ky_j^2), summed over the distinct gamma.
    """
    grid, base = rec.mode_grid, rec.base
    kappa, w = roots_hermite(grid.n)
    m, n = grid.signal.mode
    weight = np.outer(w * eval_hermite(m, kappa) ** 2, w * eval_hermite(n, kappa) ** 2)
    k_sq = 2.0 * kappa**2 / grid.signal.waist**2
    gamma = base.params.diffusivity * (k_sq[:, None] + k_sq[None, :])
    exposure = 2.0 * base.t_read + base.protocol.t_hold
    uniq, inverse = np.unique(gamma.ravel(), return_inverse=True)
    summed = np.zeros(uniq.size)
    np.add.at(summed, inverse, weight.ravel())
    out_t = np.abs(base.f_out) ** 2
    out = np.trapezoid(np.exp(-2.0 * uniq[:, None] * exposure) * out_t, base.t_read, axis=-1)
    return float(np.sum(summed * out)) / (float(np.sum(weight)) * base.input_energy)


@pytest.mark.parametrize("mode", [(0, 0), (1, 1), (2, 1)])
def test_quasi1d_axis_sums_match_the_2d_quadrature(quasi_record, mode):
    # the kernel and the mode factorise by axis, so the per-axis sums are the
    # tensor-product rule's sum to round-off (measured up to 3.3e-16)
    grid = ModeGrid.build(replace(quasi_record.mode_grid.signal, mode=mode))
    (rec,) = Quasi1DRecord.from_bases([quasi_record.base], grid)
    assert rec.efficiency_kspace() == pytest.approx(_quadrature_2d(rec), rel=1e-13)


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


def test_radial_columns_are_scaled_1d_cycles_without_diffusion(bench_params, bench_signal):
    # with a homogeneous control and D = 0 the columns decouple into the
    # 1D cycle times the input profile, and both routes integrate input and
    # output by the same trapezoid rule over the same step times.  A 2 us
    # lead (beam-width's) cuts the pulse off at the start of the write window,
    # where an input integrated on any other time grid would differ.  The
    # call steps run_cycle's own row and scales it by the profile, so the
    # two agree to a few roundings of the scaling and the energy sums: within
    # 8 ulps (measured at most 3)
    round_off = 8 * np.finfo(float).eps
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
        assert np.all(np.abs(rec.f_out - expected) <= round_off * peak)
        assert_allclose(rec.intensity / np.abs(profile) ** 2, base.output_energy, rtol=round_off)
        assert rec.efficiency == pytest.approx(efficiency_1d(base), rel=round_off)


def test_a_homogeneous_call_without_diffusion_steps_one_row(bench_params, bench_signal):
    # at D = 0 under a homogeneous control every column is the same 1D row,
    # mapped onto the columns by the input profile, so one row is stepped
    params = bench_params.with_diffusivity(0.0)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    homogeneous = ControlProfile.homogeneous(params.rabi_control)
    rabi, decay, entry, synthesis, coupling = transverse._stepped_rows(
        params, bench_signal, homogeneous, tgrid
    )
    profile = sample_transverse(bench_signal, tgrid.r[:, None], 0.0)
    assert rabi.shape == (1, 1) and rabi[0, 0] == params.rabi_control
    assert decay is None and coupling is None
    assert np.array_equal(entry, [[1.0]])
    assert np.array_equal(synthesis, profile)

    # a Gaussian control steps every column
    gaussian = ControlProfile.gaussian(params.rabi_control, 3e-3)
    rabi, decay, entry, synthesis, coupling = transverse._stepped_rows(
        params, bench_signal, gaussian, tgrid
    )
    assert rabi.shape == (tgrid.n_cols, 1)
    assert np.array_equal(entry, profile)
    assert decay is None and synthesis is None and coupling is None


def test_a_homogeneous_call_without_diffusion_builds_one_drive_row(
    bench_params, bench_signal, monkeypatch
):
    # the one stepped row is one (coupling, residual) key: one drive per build
    built = []
    real = solver1d._Propagators._build

    def counted(self, h, eta):
        built.append(len(self.keys))
        return real(self, h, eta)

    monkeypatch.setattr(solver1d._Propagators, "_build", counted)
    params = bench_params.with_diffusivity(0.0)
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 2e-6)
    control = ControlProfile.homogeneous(params.rabi_control)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    run_cycle_realspace(
        params, proto, bench_signal, control, tgrid, sigma_times=(proto.flip_time(),), **FAST
    )
    assert built and set(built) == {1}


@pytest.mark.parametrize("n_r", [16, 40, 96, 128, 160])
def test_radial_modes_project_and_synthesise_the_profile(bench_signal, n_r):
    # the input profile's coefficients on the radial operator's modes,
    # synthesised back, give the profile to round-off; each kept mode is an
    # eigenvector of the finite-volume operator that Crank-Nicolson
    # discretises, decaying at its rate; a Gaussian beam excites 29 modes
    # above the 1e-13 floor on every grid from 40 cells on
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=n_r)
    profile = sample_transverse(bench_signal, tgrid.r[:, None], 0.0)
    rates, entry, synthesis = transverse._radial_modes(tgrid, profile)
    assert rates.shape == entry.shape == (synthesis.shape[1], 1)
    assert synthesis.shape[1] == (16 if n_r == 16 else 29)
    assert np.max(np.abs(synthesis @ entry - profile)) <= 5e-14 * np.max(np.abs(profile))
    inward, outward = transverse._radial_operator(tgrid)
    operator = np.diag(-(inward + outward)) + np.diag(inward[1:], -1) + np.diag(outward[:-1], 1)
    assert np.all(rates >= 0.0)
    scale = np.max(rates) * np.max(np.abs(synthesis))
    assert np.max(np.abs(operator @ synthesis + synthesis * rates.T)) <= 1e-12 * scale


def test_radial_modes_step_a_homogeneous_call_as_its_coupled_columns(bench_params, bench_signal):
    # with diffusion under a homogeneous control the call steps one decaying
    # row per radial mode, exact in time; the same call on its radial columns,
    # coupled by Crank-Nicolson around the exact drive, differs by the
    # split's second-order time error alone: exit fields, intensity and
    # frames within 3e-8 at 16 steps per width (measured 0.8 to 1.6e-8), and
    # about a quarter of that at 32
    control = ControlProfile.homogeneous(bench_params.rabi_control)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 4e-6)
    frames = (-1e-6, proto.flip_time())
    param_rows, protocols = solver1d._rows_of(bench_params, proto, bench_signal)
    gaps = []
    for spw in (16.0, 32.0):
        grid = dict(n_medium=64, steps_per_width=spw, sigma_times=frames)
        rec = run_cycle_realspace(bench_params, proto, bench_signal, control, tgrid, **grid)
        traces, _, _, taker = solver1d._drive_cycle(
            param_rows,
            protocols,
            bench_signal,
            rec.grid,
            rabi=control_rabi(control, tgrid.r)[:, None],
            profile=sample_transverse(bench_signal, tgrid.r[:, None], 0.0),
            record=("read",),
            transverse=partial(_RadialDiffusion, tgrid, bench_params.diffusivity),
            sigma_times=frames,
            steps_per_width=spw,
        )
        offsets = np.array(traces["read"].times)  # the read's clock, from t_hold
        f_out = bench_params.face_phase * np.array(traces["read"].exits)[:, 0].T
        assert np.array_equal(rec.t_out, proto.t_hold + offsets)
        intensity = np.trapezoid(np.abs(f_out) ** 2, offsets)
        pairs = [(rec.f_out, f_out), (rec.intensity, intensity)]
        # the call's frames hold its one group's columns
        pairs += [(a, b[0]) for (_, a), (_, b) in zip(rec.sigma_frames, taker.sigma_frames)]
        assert len(pairs) == 4
        gaps.append(max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in pairs))
    assert gaps[0] <= 3e-8
    assert 3.0 < gaps[0] / gaps[1] < 5.0


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
    # a snapshot due at one in the driven write ends its piece there
    proto = StorageProtocol.gradient_through_hold(-TAU * 10e6, 6e-6)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    dt0 = bench_signal.t_width / FAST["steps_per_width"]
    window = proto.write_window(bench_signal)
    flip = proto.flip_time()
    n_write = math.ceil(window / dt0)
    t_w = -window + 7 * (window / n_write)  # a write step boundary
    t_h = 3 * (flip / math.ceil(flip / dt0))  # inside the first exact hold piece

    def run(protocol, times=()):
        return run_cycle_realspace(
            bench_params, protocol, bench_signal, control, tgrid, sigma_times=times, **FAST
        )

    plan_of = partial(solver1d._cycle_plan, [bench_params], [proto], bench_signal)
    (_, (write,)), *_ = plan_of(steps_per_width=FAST["steps_per_width"], cut_times=(t_w, flip))[1]
    assert [(a, n) for a, _, n in write[-1]] == [(-window, 7), (t_w, n_write - 7)]
    base, written = run(proto, (flip,)), run(proto, (t_w, flip))
    extra = run(proto, (t_w, t_h, flip))
    # the two pieces step the uncut step to round-off and share one drive
    # build (_Propagators matches steps to 1e-12), taken at the first
    # piece's step, which differs from the uncut one in its last bits.  So
    # the cycle moves by round-off, a build's (about 1e-13 of its largest
    # entry) and the settled boundary's.  Measured: 8.3e-15 of the
    # efficiency, 6.9e-15 of the peak intensity, 8.4e-15 of the peak exit field
    assert written.efficiency == pytest.approx(base.efficiency, rel=1e-12)
    assert np.max(np.abs(written.intensity - base.intensity)) <= 1e-12 * np.max(base.intensity)
    assert np.max(np.abs(written.f_out - base.f_out)) <= 1e-12 * np.max(np.abs(base.f_out))
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


def test_a_long_hold_reads_on_a_clock_of_its_own(bench_params, bench_signal):
    # at D = 0 a gradient-off hold rotates every column alike, so the output
    # does not depend on t_hold: integrated over the read's offsets from
    # t_hold, the efficiency at 1e8 s is the one at 0
    still = bench_params.with_diffusivity(0.0)
    control = ControlProfile.gaussian(still.rabi_control, 3e-3)
    tgrid = TransverseGrid.radial(bench_signal.waist, n_r=16)
    short, long = (
        run_cycle_realspace(
            still, StorageProtocol.standard(-TAU * 10e6, h), bench_signal, control, tgrid, **FAST
        )
        for h in (0.0, 1e8)
    )
    assert long.efficiency == pytest.approx(short.efficiency, rel=1e-12, abs=0.0)
    assert_allclose(long.intensity, short.intensity, rtol=1e-12, atol=0.0)
    assert long.t_out[0] == 1e8


@pytest.mark.parametrize("t_hold", [1e6, 1e8, 1e9])
def test_a_long_quasi1d_hold_reads_on_a_clock_of_its_own(bench_params, bench_signal, t_hold):
    # at D = 0 the modes carry no decay and a hold changes nothing: integrated
    # over the base's read offsets, the efficiency at any t_hold is the one at
    # 0 (it was 0.99798 at 1e8 s and 1.00244 at 1e9 s, against 1.000139, over
    # the absolute read times)
    still = bench_params.with_diffusivity(0.0)
    grid = ModeGrid.build(bench_signal, n=32)  # storage-cycle's coarse grid
    short, long = (
        run_cycle_quasi1d(
            still, StorageProtocol.standard(-TAU * 10e6, h), grid, n_medium=192,
            steps_per_width=6.0,
        )
        for h in (0.0, t_hold)
    )
    assert long.efficiency_kspace() == pytest.approx(short.efficiency_kspace(), rel=1e-12, abs=0.0)


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


def _profile_record(tgrid, intensity):
    """A read record that holds only a radial intensity profile."""
    return RealspaceRecord(
        params=None,
        protocol=None,
        signal=None,
        control=None,
        grid=None,
        tgrid=tgrid,
        t_out=np.array([]),
        f_out=None,
        intensity=intensity,
        input_energy=1.0,
        output_energy=1.0,
    )


def _curve_fit_width(r, intensity, start):
    """scipy's curve_fit of I0 exp(-r^2 / (2 w^2)) from (max I, start): its |w|."""

    def model(r_, i0, w):
        return i0 * np.exp(-(r_**2) / (2.0 * w**2))

    popt, _ = curve_fit(model, r, intensity, p0=(float(np.max(intensity)), start), maxfev=10000)
    return abs(float(popt[1]))


def test_the_width_fit_matches_curve_fit(radial_record):
    # a sampled Gaussian with 1% noise, and a cycle's output: curve_fit, from
    # the same start, stops within its tolerance (1.5e-8) of the least-squares
    # width the fit converges to
    tgrid = TransverseGrid.radial(WAIST, n_r=96)
    noise = 1.0 + 0.01 * np.random.default_rng(7).normal(size=tgrid.n_cols)
    sampled = _profile_record(tgrid, 2.5 * np.exp(-(tgrid.r**2) / (2.0 * 0.8e-3**2)) * noise)
    for record in (sampled, radial_record):
        profile = intensity_and_width(record)
        assert profile.fit_ok
        want = _curve_fit_width(record.tgrid.r, record.intensity, profile.width_moment)
        assert profile.width == pytest.approx(want, rel=1e-7)


def test_the_fitted_width_is_a_least_squares_minimum(radial_record):
    # on a sampled Gaussian with 1% noise and a cycle's output, the squared
    # residual at 1 -+ 1e-6 times the fitted width, each with its best
    # amplitude, is not lower than at the fitted width with its own (measured:
    # higher by 1.6e-8 and 2.6e-5 of it, far above round-off)
    tgrid = TransverseGrid.radial(WAIST, n_r=96)
    noise = 1.0 + 0.01 * np.random.default_rng(7).normal(size=tgrid.n_cols)
    sampled = _profile_record(tgrid, 2.5 * np.exp(-(tgrid.r**2) / (2.0 * 0.8e-3**2)) * noise)
    for record in (sampled, radial_record):
        r, y = record.tgrid.r, record.intensity

        def cost(width):
            g = np.exp(-(r**2) / (2.0 * width**2))
            resid = (g @ y / (g @ g)) * g - y
            return resid @ resid

        width = intensity_and_width(record).width
        for factor in (1.0 - 1e-6, 1.0 + 1e-6):
            assert cost(width * factor) >= cost(width), factor


def test_a_fit_that_cannot_converge_gives_the_moment_width():
    # an intensity rising with r has no least-squares Gaussian: the projected
    # fit's best width grows without end, so its slope never falls over the
    # trial widths, and the moment width stands in
    tgrid = TransverseGrid.radial(WAIST, n_r=40)
    profile = intensity_and_width(_profile_record(tgrid, tgrid.r / tgrid.r[-1]))
    assert not profile.fit_ok
    assert profile.width == profile.width_moment
    assert math.isnan(profile.fit_residual)


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
