"""Signal envelopes and control profiles: norms, shapes, validation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import eval_hermite

from gemdiff import ControlProfile, ParameterError, SignalSpec
from gemdiff.pulses import control_rabi, hermite, sample_temporal, sample_transverse
from gemdiff.solver1d import _energy


def test_energy_time_integral_matches_quadrature():
    signal = SignalSpec(amplitude=1.3, t_width=0.7e-6, t_lead=2e-6, waist=1e-3)
    num, _ = quad(
        lambda t: abs(sample_temporal(signal, t)) ** 2,
        -12e-6,
        6e-6,
        epsrel=1e-12,
    )
    assert signal.energy_time_integral == pytest.approx(num, rel=1e-10)


def test_temporal_envelope_peaks_at_minus_lead():
    signal = SignalSpec(amplitude=2.0, t_width=1e-6, t_lead=5e-6, waist=1e-3)
    assert sample_temporal(signal, -signal.t_lead) == pytest.approx(2.0)
    # one width off the peak: down by 1/e
    assert abs(sample_temporal(signal, -signal.t_lead + signal.t_width)) == (
        pytest.approx(2.0 * math.exp(-1.0))
    )
    assert sample_temporal(signal, np.array([0.0])).dtype == complex


def test_fundamental_mode_is_plain_gaussian():
    signal = SignalSpec(amplitude=1.0, t_width=1e-6, t_lead=0.0, waist=1.45e-3)
    x = np.linspace(-3e-3, 3e-3, 41)
    u = sample_transverse(signal, x[:, None], x[None, :])
    r_sq = x[:, None] ** 2 + x[None, :] ** 2
    assert_allclose(u, np.exp(-r_sq / signal.waist**2), rtol=1e-12)
    assert u[20, 20] == pytest.approx(1.0)  # unit peak on axis


def test_higher_modes_have_unit_l2_norm():
    waist = 1.45e-3
    x = np.linspace(-8 * waist, 8 * waist, 1601)
    dx = x[1] - x[0]
    for mode in [(1, 1), (2, 0), (1, 0)]:
        signal = SignalSpec(
            amplitude=1.0, t_width=1e-6, t_lead=0.0, waist=waist, mode=mode
        )
        u = sample_transverse(signal, x[:, None], x[None, :])
        norm = np.sum(np.abs(u) ** 2) * dx * dx
        assert norm == pytest.approx(1.0, rel=1e-6), mode


@pytest.mark.parametrize("m", range(12))
def test_hermite_is_scipys_eval_hermite_bit_for_bit(m):
    # the same recurrence in the same operations, past the turning points of
    # every order the mode grids admit and at zero
    x = np.r_[np.linspace(-12.0, 12.0, 2401), np.random.default_rng(m).normal(scale=3.0, size=500)]
    assert np.array_equal(hermite(m, x), eval_hermite(m, x))
    assert hermite(m, 0.0) == eval_hermite(m, 0.0)


def test_modes_are_orthogonal():
    waist = 1e-3
    x = np.linspace(-8 * waist, 8 * waist, 1201)
    dx = x[1] - x[0]
    u00 = sample_transverse(
        SignalSpec(1.0, 1e-6, 0.0, waist, mode=(0, 0)), x[:, None], x[None, :]
    )
    u10 = sample_transverse(
        SignalSpec(1.0, 1e-6, 0.0, waist, mode=(1, 0)), x[:, None], x[None, :]
    )
    overlap = np.sum(u00 * u10) * dx * dx
    assert abs(overlap) < 1e-12  # odd times even integrand


@pytest.mark.parametrize(
    "kwargs",
    [
        {"amplitude": 0.0, "t_width": 1e-6, "t_lead": 0.0, "waist": 1e-3},
        {"amplitude": 1.0, "t_width": 0.0, "t_lead": 0.0, "waist": 1e-3},
        {"amplitude": 1.0, "t_width": 1e-6, "t_lead": -1e-9, "waist": 1e-3},
        {"amplitude": 1.0, "t_width": 1e-6, "t_lead": 0.0, "waist": 0.0},
        {"amplitude": 1.0, "t_width": 1e-6, "t_lead": 0.0, "waist": 1e-3,
         "mode": (-1, 0)},
    ],
)
def test_signal_validation(kwargs):
    with pytest.raises(ValueError):
        SignalSpec(**kwargs)


def test_an_amplitude_is_refused_where_its_energy_integral_overflows():
    # the trapezoid rule adds squared fields in pairs: a pulse peaking at
    # 9e153 integrates finitely, one at 9.6e153 would not and is refused
    peak = SignalSpec(amplitude=9e153, t_width=1e-6, t_lead=0.0, waist=1e-3).amplitude
    assert math.isfinite(_energy(np.full(4, peak + 0j), 1e-8 * np.arange(4.0)))
    with pytest.raises(ParameterError, match="overflows"):
        SignalSpec(amplitude=9.6e153, t_width=1e-6, t_lead=0.0, waist=1e-3)


def test_an_amplitude_is_refused_where_its_squared_field_loses_normal_round_off():
    # amplitude^2 * epsilon must be a normal float: amplitude >= 1.001e-146
    SignalSpec(amplitude=1.1e-146, t_width=1e-6, t_lead=0.0, waist=1e-3)
    for amplitude in (1e-146, 1e-160, 5e-324):
        with pytest.raises(ParameterError, match="underflows"):
            SignalSpec(amplitude=amplitude, t_width=1e-6, t_lead=0.0, waist=1e-3)


def test_control_profile_factories():
    homo = ControlProfile.homogeneous(1e8)
    assert homo.is_homogeneous
    gauss = ControlProfile.gaussian(1e8, 3e-3)
    assert not gauss.is_homogeneous
    with pytest.raises(ValueError):
        ControlProfile(rabi_peak=-1.0)
    with pytest.raises(ValueError):
        ControlProfile.gaussian(1e8, 0.0)


def test_a_control_waist_is_refused_where_its_square_overflows():
    # the Rabi profile and the phase law divide by the squared waist
    wide = ControlProfile.gaussian(2e8, 1e154)  # squared 1e308: a normal float
    assert control_rabi(wide, np.array([0.0, 6e-3])).tolist() == [2e8, 2e8]
    for waist in (1e155, 1e300, math.inf):
        with pytest.raises(ParameterError, match="control waist .*not a normal float"):
            ControlProfile.gaussian(2e8, waist)


def test_a_control_waist_is_refused_where_its_square_is_subnormal():
    narrow = ControlProfile.gaussian(2e8, 1.5e-154)  # squared 2.25e-308: still normal
    assert control_rabi(narrow, np.array([0.0, 6e-3])).tolist() == [2e8, 0.0]
    for waist in (1e-170, 1e-300, 5e-324, math.nan):
        with pytest.raises(ParameterError, match="control waist .*not a normal float"):
            ControlProfile.gaussian(2e8, waist)


def test_control_rabi_profiles():
    r = np.linspace(0.0, 6e-3, 25)
    homo = ControlProfile.homogeneous(2e8)
    assert_allclose(control_rabi(homo, r), 2e8)
    gauss = ControlProfile.gaussian(2e8, 3e-3)
    assert_allclose(control_rabi(gauss, r), 2e8 * np.exp(-(r**2) / 9e-6), rtol=1e-12)
    # the beam waist is the 1/e field radius
    assert control_rabi(gauss, np.array([3e-3]))[0] == pytest.approx(
        2e8 * math.exp(-1.0)
    )
