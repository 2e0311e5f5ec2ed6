"""Closed forms against independent quadrature and special-function oracles."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import loggamma

from gemdiff import (
    DecayFactors,
    ParameterError,
    PhysicalParams,
    SignalSpec,
    StorageProtocol,
    derive_groups,
    eff_hold,
    eff_total,
    eff_transverse,
    eff_write_approx,
    eff_write_exact,
    hg_efficiency,
    hg_ratio,
    kernel_amplitude,
    output_field,
    output_width,
    phase_factor,
    phase_theta,
)
from gemdiff.analytic import (
    group_velocity,
    hold_rotation_phase,
    kspace_write_solution,
)
from gemdiff.pulses import ControlProfile

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# per-phase decay factors
# ---------------------------------------------------------------------------


def test_decay_factors_are_unity_without_diffusion(
    bench_params, bench_protocol, bench_signal
):
    df = DecayFactors.from_run(
        bench_params.with_diffusivity(0.0), bench_protocol, bench_signal
    )
    t = np.linspace(0.0, 9e-6, 17)
    assert_allclose(df.write(t), 1.0, rtol=0)
    assert_allclose(df.read(t), 1.0, rtol=0)
    assert_allclose(df.hold(t), 1.0, rtol=0)
    assert_allclose(df.perp(100.0, 50.0, t), 1.0, rtol=0)


def test_write_decay_integrates_the_drift_history(
    bench_params, bench_protocol, bench_signal
):
    # the slice echoed at offset t was imprinted at k_initial and drifted
    # to k_initial - eta t; its amplitude decay is exp(-D int k(s)^2 ds)
    df = DecayFactors.from_run(bench_params, bench_protocol, bench_signal)
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    eta = bench_protocol.eta_write
    for t in (0.5e-6, 2.2e-6, 4.3e-6, 7e-6):
        exposure, _ = quad(
            lambda s: (g.k_initial - eta * s) ** 2, 0.0, t, epsrel=1e-12
        )
        assert float(df.write(t)) == pytest.approx(
            math.exp(-bench_params.diffusivity * exposure), rel=1e-10
        )
    # read repeats the write history slice by slice
    t = np.linspace(0.0, 8e-6, 9)
    assert_allclose(df.read(t), df.write(t), rtol=0)


def test_hold_decay_at_slice_wavenumber(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=40e-6)
    df = DecayFactors.from_run(bench_params, proto, bench_signal)
    g = derive_groups(bench_params, proto, bench_signal)
    t = 3e-6
    k_slice = g.k_initial - proto.eta_write * t
    assert float(df.hold(t)) == pytest.approx(
        math.exp(-bench_params.diffusivity * proto.t_hold * k_slice**2), rel=1e-12
    )


def test_transverse_decay_spends_lead_twice(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=20e-6)
    df = DecayFactors.from_run(bench_params, proto, bench_signal)
    kx, ky, t = 800.0, -300.0, 4e-6
    gamma = bench_params.diffusivity * (kx**2 + ky**2)
    assert float(df.perp(kx, ky, t)) == pytest.approx(
        math.exp(-gamma * (2.0 * t + proto.t_hold)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# phase factor and write kernel
# ---------------------------------------------------------------------------


def test_phase_factor_has_unit_modulus(bench_params, bench_protocol, bench_signal):
    t = np.linspace(0.2e-6, 9e-6, 201)
    pf = phase_factor(bench_params, bench_protocol, bench_signal, t)
    assert np.max(np.abs(np.abs(pf) - 1.0)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    depth=st.floats(min_value=0.1, max_value=20.0),
    sign=st.sampled_from([-1.0, 1.0]),
    t_off=st.floats(min_value=0.1e-6, max_value=8e-6),
)
def test_phase_factor_unit_modulus_across_depths(depth, sign, t_off):
    # pick the gradient that realises the requested optical depth; the
    # sweep argument eta L t + beta then never crosses zero for t > 0
    base = PhysicalParams(
        coupling_g=TAU * 4.5,
        rabi_control=TAU * 20e6,
        detuning=-TAU * 1.5e9,
        density=0.5e18,
        half_length=0.1,
        carrier_mismatch=TAU * 6.8e9 / 299_792_458.0,
        diffusivity=0.004,
    )
    eta = sign * base.coupling_eff**2 * base.density / (depth * base.light_speed)
    proto = StorageProtocol.standard(eta_write=eta, t_hold=13e-6)
    signal = SignalSpec(amplitude=1.0, t_width=1e-6, t_lead=5e-6, waist=1.45e-3)
    pf = phase_factor(base, proto, signal, np.array([t_off]))
    assert abs(abs(complex(pf[0])) - 1.0) < 1e-12


def test_kernel_amplitude_matches_naive_formula(
    bench_params, bench_protocol, bench_signal
):
    # at moderate depth the log-space evaluation must agree with the
    # direct one; at large depth the direct form overflows and only the
    # log-space result stays finite
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    beta, eta, half_length = (
        g.optical_depth,
        bench_protocol.eta_write,
        bench_params.half_length,
    )
    naive_mag = (
        (beta / eta)
        * math.exp(-math.pi * abs(beta) / 2.0)
        * math.sqrt(math.pi * math.sinh(math.pi * abs(beta)) / abs(beta))
    )
    naive_phase = -beta * math.log(abs(eta * half_length)) + float(
        loggamma(1j * beta).imag
    )
    naive = naive_mag * cmath.exp(1j * naive_phase)
    assert kernel_amplitude(eta, beta, half_length) == pytest.approx(
        naive, rel=1e-12
    )
    big = kernel_amplitude(-TAU * 10e6, -300.0, half_length)
    assert math.isfinite(abs(big))
    with pytest.raises(OverflowError):
        math.exp(math.pi * 300.0)  # what the naive sinh would have hit


def test_kernel_amplitude_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        kernel_amplitude(0.0, 1.0, 0.1)
    with pytest.raises(ParameterError):
        kernel_amplitude(1e6, 0.0, 0.1)
    with pytest.raises(ParameterError, match="share a sign"):
        kernel_amplitude(-1e6, 2.0, 0.1)


def test_stored_spectrum_shape(bench_params, bench_protocol, bench_signal):
    # the stored spectrum maps the temporal envelope onto k through the
    # drift k = k_initial + eta t, up to a unit-modulus chirp
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    eta = bench_protocol.eta_write
    k = g.k_initial + eta * np.linspace(-8e-6, -2e-6, 31)
    sigma, singular = kspace_write_solution(
        bench_params, bench_protocol, bench_signal, k, include_decay=False
    )
    assert not singular.any()
    envelope = np.exp(
        -(((k - g.k_initial) / eta + bench_signal.t_lead) / bench_signal.t_width)
        ** 2
    )
    expected = (
        envelope
        * abs(
            bench_params.light_speed
            / (g.coupling_eff * bench_params.density)
            * kernel_amplitude(eta, g.optical_depth, bench_params.half_length)
        )
    )
    assert_allclose(np.abs(sigma), expected, rtol=1e-10)


def test_stored_spectrum_flags_singular_point(
    bench_params, bench_protocol, bench_signal
):
    # the flag is an exact cancellation test, so build the singular k
    # with the same float arithmetic the evaluation uses
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    eta = bench_protocol.eta_write
    k_bad = g.k_initial + eta * (
        g.optical_depth / (eta * bench_params.half_length)
    )
    with pytest.warns(RuntimeWarning, match="singular"):
        sigma, singular = kspace_write_solution(
            bench_params, bench_protocol, bench_signal, np.array([k_bad])
        )
    assert singular.all()
    assert np.isfinite(sigma).all()


def test_group_velocity_is_k_derivative_of_hold_phase(bench_params):
    # phi(k) = g_eff^2 N t / (c (k - k_matched)); the packet moves at
    # v = -d(phi)/dk / t
    t_hold = 7e-6
    k = bench_params.k_matched + 40.0
    dk = 1e-4
    phi = lambda kk: np.angle(hold_rotation_phase(bench_params, kk, t_hold))
    dphi = (phi(k + dk) - phi(k - dk)) / (2.0 * dk)
    assert float(group_velocity(bench_params, k)) == pytest.approx(
        -dphi / t_hold, rel=1e-6
    )


# ---------------------------------------------------------------------------
# efficiencies
# ---------------------------------------------------------------------------


def test_write_efficiency_forms_agree(bench_params, bench_protocol, bench_signal):
    approx, alpha, tau = eff_write_approx(bench_params, bench_protocol, bench_signal)
    exact = eff_write_exact(bench_params, bench_protocol, bench_signal)
    assert approx == pytest.approx(exact, rel=1e-6)
    assert approx == pytest.approx(math.sqrt(alpha) * math.exp(-tau), rel=1e-14)


def test_write_efficiency_expansion_degrades_gracefully(
    bench_params, bench_protocol, bench_signal
):
    # the width-correction expansion drops terms of order
    # (D eta^2 t_width^3)^2: a tenfold diffusivity still agrees to ~1e-4
    hot = bench_params.with_diffusivity(0.04)
    approx = eff_write_approx(hot, bench_protocol, bench_signal)[0]
    exact = eff_write_exact(hot, bench_protocol, bench_signal)
    assert approx == pytest.approx(exact, rel=1e-3)


def test_hold_efficiency_is_exact_gaussian_quadrature(bench_params, bench_signal):
    # the hold form integrates the squared envelope against the squared
    # hold decay without expansion; a brute-force quadrature must agree
    # to quadrature precision
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=37e-6)
    eps, alpha, tau = eff_hold(bench_params, proto, bench_signal)
    g = derive_groups(bench_params, proto, bench_signal)
    d, eta, tw = bench_params.diffusivity, proto.eta_write, bench_signal.t_width

    def integrand(s, with_decay):
        decay = math.exp(-2.0 * d * proto.t_hold * (g.k_hold - eta * s) ** 2)
        return math.exp(-2.0 * s * s / tw**2) * (decay if with_decay else 1.0)

    num, _ = quad(integrand, -8 * tw, 8 * tw, args=(True,), epsrel=1e-12)
    den, _ = quad(integrand, -8 * tw, 8 * tw, args=(False,), epsrel=1e-12)
    assert eps == pytest.approx(num / den, rel=1e-10)
    assert eps == pytest.approx(
        math.sqrt(alpha) * math.exp(-2.0 * alpha * tau), rel=1e-14
    )


def test_transverse_efficiency_closed_form(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=30e-6)
    eps, tau = eff_transverse(bench_params, proto, bench_signal)
    g = derive_groups(bench_params, proto, bench_signal)
    assert tau == g.tau_perp
    assert eps == pytest.approx(1.0 / (1.0 + g.tau_perp), rel=1e-14)
    with pytest.raises(ParameterError, match="\\(0,0\\)"):
        eff_transverse(
            bench_params,
            proto,
            SignalSpec(1.0, 1e-6, 5e-6, 1.45e-3, mode=(1, 1)),
        )


def test_headline_total_for_the_benchmark(bench_params, bench_protocol, bench_signal):
    # warm-cell storage with zero hold: all four printed forms near 93%
    tot = eff_total(bench_params, bench_protocol, bench_signal)
    assert tot.full == pytest.approx(0.9257430, abs=2e-6)
    assert tot.product == pytest.approx(tot.full, rel=2e-3)
    assert tot.bound is not None and tot.bound >= tot.full
    assert tot.bound_note is None


def test_total_forms_coincide_when_parked(bench_params):
    # with the held wavenumber parked at zero and modest exposures the
    # full and product forms agree tightly and the linearized budget
    # sits just below them
    flipped = replace(
        bench_params, carrier_mismatch=-bench_params.carrier_mismatch
    )
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=20e-6)
    probe = SignalSpec(1.0, 1e-6, 1e-6, 1.45e-3)
    lead = derive_groups(flipped, proto, probe).k_initial / proto.eta_write
    parked = SignalSpec(1.0, 1e-6, lead, 1.45e-3)
    tot = eff_total(flipped, proto, parked)
    assert tot.full == pytest.approx(tot.product, rel=1e-4)
    assert tot.bound is not None and tot.bound >= tot.full
    assert tot.linearized <= tot.full
    assert tot.full - tot.linearized < 0.08


def test_total_monotone_in_diffusivity_and_hold(bench_params, bench_signal):
    fulls = []
    for d in (0.0, 0.002, 0.004, 0.008, 0.016):
        proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=0.0)
        fulls.append(
            eff_total(bench_params.with_diffusivity(d), proto, bench_signal).full
        )
    assert all(a >= b for a, b in zip(fulls, fulls[1:]))
    fulls = []
    for t_hold in (0.0, 5e-6, 10e-6, 20e-6, 40e-6):
        proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=t_hold)
        fulls.append(eff_total(bench_params, proto, bench_signal).full)
    assert all(a >= b for a, b in zip(fulls, fulls[1:]))


def test_bound_preconditions_reported(bench_params, bench_signal):
    # a gradient too weak to resolve the medium, or a lead shorter than
    # the pulse, voids the protocol-level bound
    weak = StorageProtocol.standard(eta_write=-1.0, t_hold=0.0)
    tot = eff_total(bench_params, weak, bench_signal)
    assert tot.bound is None and "eta_write" in tot.bound_note
    rushed = SignalSpec(1.0, 1e-6, 0.5e-6, 1.45e-3)
    tot = eff_total(
        bench_params,
        StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=0.0),
        rushed,
    )
    assert tot.bound is None and "t_lead" in tot.bound_note


def test_output_field_reduces_to_time_reversed_input(
    bench_params, bench_protocol, bench_signal
):
    # without diffusion every decay factor is one and the phase factor
    # has unit modulus: |f_out(t_H + t)| = |f_in(-t)| exactly
    t = np.linspace(0.3e-6, 9e-6, 101)
    f = output_field(
        bench_params.with_diffusivity(0.0), bench_protocol, bench_signal, t
    )
    envelope = np.exp(
        -(((t - bench_signal.t_lead) / bench_signal.t_width) ** 2)
    )
    assert_allclose(np.abs(f), envelope, atol=1e-14)


def test_output_field_combines_all_decays(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=15e-6)
    t = np.linspace(0.5e-6, 8e-6, 41)
    df = DecayFactors.from_run(bench_params, proto, bench_signal)
    kx, ky = 500.0, 0.0
    f = output_field(bench_params, proto, bench_signal, t, kx=kx, ky=ky)
    envelope = np.exp(-(((t - bench_signal.t_lead) / bench_signal.t_width) ** 2))
    expected = (
        df.write(t) ** 2 * df.hold(t) * df.perp(kx, ky, t) * envelope
    )
    assert_allclose(np.abs(f), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# transverse mode families, widths, phases
# ---------------------------------------------------------------------------


def test_hg_efficiency_closed_forms():
    for tau in (0.0, 0.4, 1.3, 2.0):
        assert hg_efficiency((0, 0), tau) == pytest.approx(1.0 / (1.0 + tau))
        assert hg_efficiency((1, 1), tau) == pytest.approx(
            (1.0 / (1.0 + tau)) ** 3
        )
        assert hg_ratio(tau) == pytest.approx((1.0 / (1.0 + tau)) ** 2, rel=1e-14)
    with pytest.raises(ParameterError):
        hg_efficiency((0, 0), -0.1)


def test_hg_efficiency_quadrature_path():
    # order (2,0): per-axis Hermite integrals have an elementary closed
    # form, int H_2^2 e^(-c s^2) ds = sqrt(pi)(12 c^-5/2 - 8 c^-3/2 + 4 c^-1/2)
    tau = 0.8
    c = 1.0 + tau
    axis2 = (12.0 * c**-2.5 - 8.0 * c**-1.5 + 4.0 * c**-0.5) / 8.0
    axis0 = c**-0.5
    assert hg_efficiency((2, 0), tau) == pytest.approx(axis2 * axis0, rel=1e-9)
    # the generic path must also reproduce the (1,1) closed form
    tau = 1.7
    c = 1.0 + tau
    axis1 = c**-1.5
    assert hg_efficiency((2, 1), tau) == pytest.approx(
        (12.0 * c**-2.5 - 8.0 * c**-1.5 + 4.0 * c**-0.5) / 8.0 * axis1, rel=1e-9
    )


def test_output_width_formula(bench_params, bench_signal):
    for t_hold in (0.0, 10e-6, 25e-6):
        proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=t_hold)
        w = output_width(bench_params, proto, bench_signal)
        assert w**2 == pytest.approx(
            bench_signal.waist**2 / 4.0
            + bench_params.diffusivity * (2.0 * bench_signal.t_lead + t_hold),
            rel=1e-14,
        )
    # w^2 grows at exactly D per unit hold time
    w0 = output_width(
        bench_params,
        StorageProtocol.standard(-TAU * 10e6, 0.0),
        bench_signal,
    )
    w1 = output_width(
        bench_params,
        StorageProtocol.standard(-TAU * 10e6, 10e-6),
        bench_signal,
    )
    assert (w1**2 - w0**2) / 10e-6 == pytest.approx(
        bench_params.diffusivity, rel=1e-12
    )


def test_phase_theta_requires_gaussian_control(
    bench_params, bench_protocol, bench_signal
):
    with pytest.raises(ParameterError, match="gaussian"):
        phase_theta(
            bench_params,
            bench_protocol,
            bench_signal,
            ControlProfile.homogeneous(bench_params.rabi_control),
            0.0,
            1e-3,
        )


def test_phase_theta_quadratic_in_radius(bench_params, bench_protocol, bench_signal):
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    r = np.array([0.0, 0.5e-3, 1.0e-3])
    theta = phase_theta(
        bench_params, bench_protocol, bench_signal, control, 0.0, r
    )
    assert theta[0] == 0.0
    assert theta[2] == pytest.approx(4.0 * theta[1], rel=1e-12)


def test_phase_theta_warns_for_narrow_control(bench_params, bench_protocol):
    wide_signal = SignalSpec(1.0, 1e-6, 5e-6, 2e-3)
    control = ControlProfile.gaussian(bench_params.rabi_control, 3e-3)
    with pytest.warns(RuntimeWarning, match="control waist"):
        phase_theta(
            bench_params, bench_protocol, wide_signal, control, 0.0, 1e-3
        )
