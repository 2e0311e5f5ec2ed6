"""Parameter groups: derived quantities against independent integrals."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.integrate import quad

from gemdiff import (
    GuardBandError,
    ParameterError,
    PhysicalParams,
    SignalSpec,
    StorageProtocol,
    containment_margin,
    derive_groups,
    echo_leakage,
    optimal_write_lead,
    stark_residual,
)
from gemdiff.solver1d import _cycle_plan

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# PhysicalParams
# ---------------------------------------------------------------------------


def test_derived_properties_match_raw_formulas(bench_params):
    p = bench_params
    assert p.coupling_eff == pytest.approx(
        p.coupling_g * p.rabi_control / p.detuning, rel=1e-15
    )
    assert p.dispersion_shift == pytest.approx(
        p.coupling_g**2 * p.density / (p.light_speed * p.detuning), rel=1e-15
    )
    assert p.k_matched == pytest.approx(
        p.dispersion_shift + p.carrier_mismatch, rel=1e-15
    )
    # absorbed light shift: uniform bias equals the peak shift
    assert p.stark_bias == pytest.approx(p.rabi_control**2 / p.detuning, rel=1e-15)


def test_benchmark_wavenumber_offset(bench_params):
    # dispersion shift -141.47 rad/m nearly cancels the +142.52 rad/m
    # carrier mismatch, leaving a matched offset of about 1 rad/m
    assert bench_params.k_matched == pytest.approx(1.04792, abs=1e-4)


def test_with_diffusivity_copies(bench_params):
    copy = bench_params.with_diffusivity(0.0)
    assert copy.diffusivity == 0.0
    assert copy.coupling_g == bench_params.coupling_g
    assert bench_params.diffusivity == 0.004  # original untouched
    with pytest.raises(FrozenInstanceError):
        copy.diffusivity = 1.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("coupling_g", 0.0),
        ("coupling_g", -1.0),
        ("rabi_control", -1.0),
        ("detuning", 0.0),
        ("density", 0.0),
        ("half_length", 0.0),
        ("diffusivity", -1e-9),
        ("light_speed", 0.0),
    ],
)
def test_parameter_validation(bench_params, field, value):
    kwargs = {
        "coupling_g": bench_params.coupling_g,
        "rabi_control": bench_params.rabi_control,
        "detuning": bench_params.detuning,
        "density": bench_params.density,
        "half_length": bench_params.half_length,
        "carrier_mismatch": bench_params.carrier_mismatch,
        "diffusivity": bench_params.diffusivity,
        "light_speed": bench_params.light_speed,
    }
    kwargs[field] = value
    with pytest.raises(ParameterError):
        PhysicalParams(**kwargs)


def test_far_detuned_regime_enforced(bench_params):
    # rabi/detuning above 0.1 invalidates the two-level reduction
    with pytest.raises(ParameterError, match="far-detuned"):
        PhysicalParams(
            coupling_g=bench_params.coupling_g,
            rabi_control=0.2 * abs(bench_params.detuning),
            detuning=bench_params.detuning,
            density=bench_params.density,
            half_length=bench_params.half_length,
            carrier_mismatch=bench_params.carrier_mismatch,
            diffusivity=0.0,
        )


def test_stark_residual_vanishes_at_peak(bench_params):
    # absorbed bias: zero residual where the control is at full strength,
    # the full bias where it is off
    assert stark_residual(bench_params, bench_params.rabi_control) == pytest.approx(
        0.0, abs=1e-20
    )
    assert stark_residual(bench_params, 0.0) == pytest.approx(
        bench_params.rabi_control**2 / bench_params.detuning, rel=1e-15
    )


def test_stark_residual_unabsorbed(bench_params):
    from dataclasses import replace

    raw = replace(bench_params, stark_absorbed=False)
    assert raw.stark_bias == 0.0
    rabi = 0.5 * bench_params.rabi_control
    assert stark_residual(raw, rabi) == pytest.approx(
        -(rabi**2) / raw.detuning, rel=1e-15
    )


# ---------------------------------------------------------------------------
# StorageProtocol
# ---------------------------------------------------------------------------


def _hold_spans(params, proto, signal):
    """(start, length, eta) of each span the cycle plan runs in the hold."""
    _, plan = _cycle_plan([params], [proto], signal, steps_per_width=10.0)
    return [(start, length, eta) for start, length, eta, *_ in dict(plan)["hold"]]


def test_standard_protocol_switches_everything_off(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=20e-6)
    assert proto.eta_hold == 0.0
    assert not proto.control_on_hold
    assert _hold_spans(bench_params, proto, bench_signal) == [(0.0, 20e-6, 0.0)]


def test_gradient_through_hold_flips_mid_hold(bench_params, bench_signal):
    proto = StorageProtocol.gradient_through_hold(eta_write=-TAU * 10e6, t_hold=20e-6)
    assert proto.eta_hold == proto.eta_write
    assert proto.flip_time() == pytest.approx(10e-6)
    assert _hold_spans(bench_params, proto, bench_signal) == [
        (0.0, proto.flip_time(), proto.eta_hold),
        (proto.flip_time(), 20e-6 - proto.flip_time(), -proto.eta_hold),
    ]


def test_explicit_flip_time(bench_params, bench_signal):
    proto = StorageProtocol.gradient_through_hold(
        eta_write=1e6, t_hold=20e-6, hold_flip_time=4e-6
    )
    assert proto.flip_time() == 4e-6
    assert _hold_spans(bench_params, proto, bench_signal) == [
        (0.0, 4e-6, 1e6),
        (4e-6, 20e-6 - 4e-6, -1e6),
    ]


def test_write_window_default_and_override(bench_signal):
    proto = StorageProtocol.standard(eta_write=1e6, t_hold=0.0)
    assert proto.write_window(bench_signal) == pytest.approx(
        bench_signal.t_lead + 4.0 * bench_signal.t_width
    )
    fixed = StorageProtocol(eta_write=1e6, t_hold=0.0, t_write=11e-6)
    assert fixed.write_window(bench_signal) == 11e-6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta_write": 1e6, "t_hold": -1e-6},
        {"eta_write": 1e6, "t_hold": 0.0, "t_write": 0.0},
        {"eta_write": 1e6, "t_hold": 10e-6, "hold_flip_time": 20e-6},
        {"eta_write": 1e6, "t_hold": 10e-6, "hold_flip_time": -1e-6},
    ],
)
def test_protocol_validation(kwargs):
    with pytest.raises(ParameterError):
        StorageProtocol(**kwargs)


# ---------------------------------------------------------------------------
# derive_groups
# ---------------------------------------------------------------------------


def test_optical_depth_from_raw_constants(bench_params, bench_protocol, bench_signal):
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    p = bench_params
    beta_raw = (
        (p.coupling_g * p.rabi_control / p.detuning) ** 2
        * p.density
        / (bench_protocol.eta_write * p.light_speed)
    )
    assert g.optical_depth == pytest.approx(beta_raw, rel=1e-14)
    # benchmark vapour cell: |beta| about 3.8, negative with the gradient
    assert g.optical_depth == pytest.approx(-3.77252, abs=1e-4)
    assert 3.7 <= abs(g.optical_depth) <= 3.9


def test_wavenumbers(bench_params, bench_protocol, bench_signal):
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    assert g.k_initial == pytest.approx(
        g.k_matched - g.optical_depth / bench_params.half_length, rel=1e-14
    )
    assert g.k_initial == pytest.approx(38.7731, abs=1e-3)
    assert g.k_hold == pytest.approx(
        g.k_initial - bench_protocol.eta_write * bench_signal.t_lead, rel=1e-14
    )


def test_write_exposure_integrates_drift_history(
    bench_params, bench_protocol, bench_signal
):
    # the spectral centre drifts as k(t) = k_i - eta t during the lead;
    # the accumulated exposure is 2 D int k(t)^2 dt
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    eta = bench_protocol.eta_write
    integral, _ = quad(
        lambda t: (g.k_initial - eta * t) ** 2, 0.0, bench_signal.t_lead, epsrel=1e-12
    )
    assert g.tau_write == pytest.approx(
        2.0 * bench_params.diffusivity * integral, rel=1e-10
    )


def test_hold_and_transverse_exposures(bench_params, bench_signal):
    proto = StorageProtocol.standard(eta_write=-TAU * 10e6, t_hold=30e-6)
    g = derive_groups(bench_params, proto, bench_signal)
    d = bench_params.diffusivity
    assert g.tau_hold == pytest.approx(d * proto.t_hold * g.k_hold**2, rel=1e-14)
    assert g.tau_perp == pytest.approx(
        4.0 * d * (proto.t_hold + 2.0 * bench_signal.t_lead) / bench_signal.waist**2,
        rel=1e-14,
    )


def test_exposures_scale_linearly_in_diffusivity(
    bench_params, bench_protocol, bench_signal
):
    g1 = derive_groups(
        bench_params.with_diffusivity(0.001), bench_protocol, bench_signal
    )
    g3 = derive_groups(
        bench_params.with_diffusivity(0.003), bench_protocol, bench_signal
    )
    assert g3.tau_write == pytest.approx(3.0 * g1.tau_write, rel=1e-12)
    assert g3.tau_perp == pytest.approx(3.0 * g1.tau_perp, rel=1e-12)
    # wavenumbers are geometry, not diffusion
    assert g3.k_hold == g1.k_hold


def test_zero_gradient_rejected(bench_params, bench_signal):
    with pytest.raises(ParameterError, match="eta_write"):
        derive_groups(
            bench_params,
            StorageProtocol(eta_write=0.0, t_hold=0.0),
            bench_signal,
        )


def test_width_correction_singularity(bench_params, bench_protocol):
    # a short lead on the flipped carrier keeps k_hold / eta positive, so
    # a large enough diffusivity drives the write correction denominator
    # through zero
    from dataclasses import replace

    flipped = replace(
        bench_params,
        carrier_mismatch=-bench_params.carrier_mismatch,
        diffusivity=100.0,
    )
    signal = SignalSpec(amplitude=1.0, t_width=1e-6, t_lead=1e-6, waist=1.45e-3)
    with pytest.raises(ParameterError, match="singular"):
        derive_groups(flipped, bench_protocol, signal)


def test_width_corrections_near_one_at_benchmark(
    bench_params, bench_protocol, bench_signal
):
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    assert abs(g.alpha_write - 1.0) < 0.01
    assert g.alpha_hold == 1.0  # no hold, no hold correction


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_containment_margin(bench_params, bench_protocol, bench_signal):
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    assert containment_margin(bench_params, g) == pytest.approx(
        abs(g.k_initial) * bench_params.half_length, rel=1e-14
    )
    assert containment_margin(bench_params, g) > 1.0


def test_optimal_write_lead_parks_the_held_wave(bench_params, bench_protocol):
    from dataclasses import replace

    flipped = replace(bench_params, carrier_mismatch=-bench_params.carrier_mismatch)
    probe = SignalSpec(amplitude=1.0, t_width=1e-6, t_lead=1e-6, waist=1.45e-3)
    lead = optimal_write_lead(flipped, bench_protocol, probe)
    assert lead > 0.0
    parked = SignalSpec(amplitude=1.0, t_width=1e-6, t_lead=lead, waist=1.45e-3)
    g = derive_groups(flipped, bench_protocol, parked)
    assert abs(g.k_hold) < 1e-8 * abs(g.k_initial)


def test_echo_leakage(bench_params, bench_protocol, bench_signal):
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    leak = echo_leakage(g.optical_depth)
    assert leak == pytest.approx(
        math.exp(-2.0 * math.pi * abs(g.optical_depth)), rel=1e-14
    )
    assert leak < 1e-9  # the benchmark depth absorbs essentially everything
    assert echo_leakage(2.0) > echo_leakage(4.0)


def test_guard_band_error_carries_phase():
    err = GuardBandError("hold", "spilled")
    assert err.phase == "hold"
    assert "spilled" in str(err)
    assert isinstance(err, RuntimeError)


def test_groups_are_finite(bench_params, bench_protocol, bench_signal):
    g = derive_groups(bench_params, bench_protocol, bench_signal)
    values = [
        g.coupling_eff,
        g.optical_depth,
        g.k_matched,
        g.k_initial,
        g.k_hold,
        g.tau_write,
        g.tau_hold,
        g.tau_perp,
        g.alpha_write,
        g.alpha_hold,
    ]
    assert np.all(np.isfinite(values))
