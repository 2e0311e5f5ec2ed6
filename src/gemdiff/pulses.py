"""Input signal envelopes and control-field profiles.

A stored signal is separable: a Gaussian temporal envelope peaking a lead
time before the end of the write phase, times a Hermite-Gauss transverse
mode.  The control field is either transversely homogeneous or a Gaussian
beam much wider than the signal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermite

from .model import ParameterError


@dataclass(frozen=True)
class SignalSpec:
    """Input pulse description.

    Attributes:
        amplitude: peak field amplitude (arbitrary units, linear problem).
        t_width:   1/e half-width of the field envelope (s).
        t_lead:    the peak arrives this long before the end of the write
                   phase, i.e. at t = -t_lead (s).
        waist:     1/e field radius of the transverse mode (m).
        mode:      Hermite-Gauss indices (m, n); (0, 0) is the plain Gaussian.
    """

    amplitude: float
    t_width: float
    t_lead: float
    waist: float
    mode: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ParameterError("amplitude must be positive")
        if not math.isfinite(2.0 * self.amplitude * self.amplitude):
            # the trapezoid energy integrals add squared fields in pairs
            raise ParameterError(
                "amplitude %r overflows: twice its squared field must be finite" % (self.amplitude,)
            )
        if self.amplitude * self.amplitude < sys.float_info.min / sys.float_info.epsilon:
            # below, intensities lose digits to subnormals and fits and energies fail
            raise ParameterError(
                "amplitude %r underflows: its squared field must keep its round-off "
                "a normal float" % (self.amplitude,)
            )
        if self.t_width <= 0:
            raise ParameterError("t_width must be positive")
        if self.t_lead < 0:
            raise ParameterError("t_lead must be non-negative")
        if self.waist <= 0:
            raise ParameterError("waist must be positive")
        m, n = self.mode
        if m < 0 or n < 0 or m != int(m) or n != int(n):
            raise ParameterError("mode indices must be non-negative integers")

    @property
    def energy_time_integral(self) -> float:
        """Integral of |temporal envelope|^2 over all time.

        Gaussian integral: amplitude^2 * t_width * sqrt(pi / 2).
        """
        return self.amplitude**2 * self.t_width * math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class ControlProfile:
    """Transverse profile of the control field.

    waist = None means transversely homogeneous; otherwise the Rabi
    frequency falls off as exp(-r^2 / waist^2).
    """

    rabi_peak: float
    waist: float | None = None

    def __post_init__(self):
        if self.rabi_peak < 0:
            raise ParameterError("rabi_peak must be non-negative")
        if self.waist is not None and self.waist <= 0:
            raise ParameterError("waist must be positive (or None for homogeneous)")

    @classmethod
    def homogeneous(cls, rabi_peak: float) -> "ControlProfile":
        return cls(rabi_peak=rabi_peak, waist=None)

    @classmethod
    def gaussian(cls, rabi_peak: float, waist: float) -> "ControlProfile":
        return cls(rabi_peak=rabi_peak, waist=waist)

    @property
    def is_homogeneous(self) -> bool:
        return self.waist is None


def sample_temporal(signal: SignalSpec, t: np.ndarray) -> np.ndarray:
    """Temporal envelope A * exp(-(t + t_lead)^2 / t_width^2).

    t is measured from the end of the write phase, so the peak sits at
    t = -t_lead.  Returns a complex array (the envelope itself is real).
    """
    t = np.asarray(t, dtype=float)
    arg = (t + signal.t_lead) / signal.t_width
    return signal.amplitude * np.exp(-(arg**2)) + 0.0j


def _hermite_1d(m: int, x: np.ndarray, waist: float) -> np.ndarray:
    """1D Hermite-Gauss factor H_m(sqrt(2) x / a) exp(-x^2 / a^2)."""
    xi = math.sqrt(2.0) * np.asarray(x, dtype=float) / waist
    return eval_hermite(m, xi) * np.exp(-0.5 * xi**2)


def _hermite_norm_1d(m: int, waist: float) -> float:
    """L2 norm of the 1D factor: sqrt(a / sqrt(2) * 2^m m! sqrt(pi))."""
    return math.sqrt(
        waist / math.sqrt(2.0) * (2.0**m) * math.factorial(m) * math.sqrt(math.pi)
    )


def sample_transverse(signal: SignalSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Transverse mode pattern on broadcastable coordinate arrays.

    The fundamental mode is returned with unit peak amplitude (so the full
    input is amplitude * envelope at the beam centre); higher modes are
    returned with unit L2 norm over the transverse plane, which keeps their
    energy integrals simple.
    """
    m, n = signal.mode
    ux = _hermite_1d(m, x, signal.waist)
    uy = _hermite_1d(n, y, signal.waist)
    if (m, n) == (0, 0):
        return ux * uy
    return (ux / _hermite_norm_1d(m, signal.waist)) * (
        uy / _hermite_norm_1d(n, signal.waist)
    )


def control_rabi(profile: ControlProfile, r_perp: np.ndarray) -> np.ndarray:
    """Local control Rabi frequency at transverse radius r_perp."""
    r = np.asarray(r_perp, dtype=float)
    if profile.is_homogeneous:
        return np.full_like(r, profile.rabi_peak)
    return profile.rabi_peak * np.exp(-(r**2) / profile.waist**2)
