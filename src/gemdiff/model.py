"""Parameter groups for a gradient-echo memory with atomic diffusion.

The medium is an ensemble of three-level atoms in the far-detuned (adiabatic)
regime, reduced to an effective two-level description: a signal field envelope
coupled to a single spin coherence through a control field, with a linear
two-photon detuning gradient eta(t) * z that is flipped in sign to trigger the
echo.  Atomic motion enters as a diffusion term acting on the coherence.

All quantities are SI.  Frequencies and detunings are angular (rad/s),
gradients rad/(s m), wavenumbers rad/m.  Sign conventions follow the input
files: detuning and gradient may be negative and the derived groups keep
their signs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pulses imports ParameterError from here
    from .pulses import SignalSpec


class ParameterError(ValueError):
    """Raised when a parameter set is outside the model's validity range."""


class GuardBandError(RuntimeError):
    """Raised when the spin wave reaches the padded region of the solver grid.

    Carries the protocol phase ("write", "hold", "read") in which the
    containment failure occurred.
    """

    def __init__(self, phase: str, message: str):
        super().__init__(message)
        self.phase = phase


@dataclass(frozen=True)
class PhysicalParams:
    """Medium and field constants.

    Attributes:
        coupling_g:      single-photon atom-field coupling rate (rad/s).
        rabi_control:    peak control-field Rabi frequency (rad/s).
        detuning:        one-photon detuning of both fields (rad/s), signed.
        density:         atomic number density (1/m^3).
        half_length:     medium half length L; the medium spans [-L, +L] (m).
        carrier_mismatch: carrier wavenumber difference between signal and
                         control fields (rad/m), signed.
        diffusivity:     atomic diffusion coefficient (m^2/s).
        light_speed:     speed of light in the host medium (m/s).
        stark_absorbed:  if True, the quoted gradient is understood to already
                         compensate the peak control light shift, so a uniform
                         bias rabi_control**2 / detuning is carried by the
                         solvers and only the residual (off-axis) light shift
                         survives.  If False the full instantaneous light
                         shift acts whenever the control is on.
    """

    coupling_g: float
    rabi_control: float
    detuning: float
    density: float
    half_length: float
    carrier_mismatch: float
    diffusivity: float
    light_speed: float = 299_792_458.0
    stark_absorbed: bool = True

    def __post_init__(self):
        if self.coupling_g <= 0:
            raise ParameterError("coupling_g must be positive")
        if self.rabi_control < 0:
            raise ParameterError("rabi_control must be non-negative")
        if self.detuning == 0:
            raise ParameterError("detuning must be nonzero (adiabatic regime)")
        if abs(self.rabi_control / self.detuning) > 0.1:
            raise ParameterError(
                "rabi_control/detuning = %.3g exceeds 0.1; outside the "
                "far-detuned regime the two-level reduction does not hold"
                % abs(self.rabi_control / self.detuning)
            )
        if self.density <= 0:
            raise ParameterError("density must be positive")
        if self.half_length <= 0:
            raise ParameterError("half_length must be positive")
        if self.diffusivity < 0:
            raise ParameterError("diffusivity must be non-negative")
        if self.light_speed <= 0:
            raise ParameterError("light_speed must be positive")

    @property
    def coupling_eff(self) -> float:
        """Effective two-level coupling g * Omega_c / Delta (rad/s, signed)."""
        return self.coupling_g * self.rabi_control / self.detuning

    @property
    def dispersion_shift(self) -> float:
        """Linear phase accumulated by the field, g^2 N / (c Delta) (rad/m)."""
        return self.coupling_g**2 * self.density / (self.light_speed * self.detuning)

    @property
    def face_phase(self) -> complex:
        """exp(i dispersion_shift half_length): the solver-frame field is the
        physical one times it at the entrance face, over it at the exit face."""
        return cmath.exp(1j * self.dispersion_shift * self.half_length)

    @property
    def k_matched(self) -> float:
        """Wavenumber offset of the slow coherence envelope (rad/m).

        Sum of the field dispersion shift and the carrier mismatch; the
        stored coherence at physical wavenumber k corresponds to envelope
        wavenumber k - k_matched.
        """
        return self.dispersion_shift + self.carrier_mismatch

    @property
    def stark_bias(self) -> float:
        """Uniform two-photon detuning bias carried by the solvers (rad/s)."""
        if self.stark_absorbed:
            return self.rabi_control**2 / self.detuning
        return 0.0

    def with_diffusivity(self, diffusivity: float) -> "PhysicalParams":
        """Copy of the parameter set with a different diffusion coefficient."""
        return replace(self, diffusivity=diffusivity)


@dataclass(frozen=True)
class StorageProtocol:
    """Timing and gradient schedule of one write / hold / read cycle.

    Time zero is the end of the write phase.  The write phase covers
    [-t_write, 0] with gradient eta_write, the hold phase [0, t_hold], and
    the read phase [t_hold, t_hold + t_write] with gradient -eta_write.

    Attributes:
        eta_write:       two-photon detuning gradient during write (rad/(s m)).
        t_hold:          storage duration (s).
        t_write:         write window length; None defers to the solver
                         default t_lead + 4 * t_width of the signal.
        eta_hold:        gradient during hold.  0 for the standard protocol;
                         the gradient-through-hold variant keeps eta_write on
                         and flips its sign mid-hold.
        hold_flip_time:  time within the hold at which eta_hold flips sign;
                         None means 0.5 * t_hold.  Ignored when eta_hold == 0.
        control_on_hold: whether the control field stays on during the hold.
    """

    eta_write: float
    t_hold: float
    t_write: float | None = None
    eta_hold: float = 0.0
    hold_flip_time: float | None = None
    control_on_hold: bool = False

    def __post_init__(self):
        if self.t_hold < 0:
            raise ParameterError("t_hold must be non-negative")
        if self.t_write is not None and self.t_write <= 0:
            raise ParameterError("t_write must be positive")
        if self.hold_flip_time is not None and not (
            0.0 <= self.hold_flip_time <= self.t_hold
        ):
            raise ParameterError("hold_flip_time must lie within the hold")

    @classmethod
    def standard(
        cls, eta_write: float, t_hold: float, t_write: float | None = None
    ) -> "StorageProtocol":
        """Gradient off during the hold, control off during the hold."""
        return cls(eta_write=eta_write, t_hold=t_hold, t_write=t_write)

    @classmethod
    def gradient_through_hold(
        cls,
        eta_write: float,
        t_hold: float,
        t_write: float | None = None,
        hold_flip_time: float | None = None,
    ) -> "StorageProtocol":
        """Variant with the gradient kept on through the hold.

        The hold gradient starts at eta_write and flips sign at
        hold_flip_time (default mid-hold); the control stays off.  Used for
        the beam-narrowing and phase-profile studies.
        """
        return cls(
            eta_write=eta_write,
            t_hold=t_hold,
            t_write=t_write,
            eta_hold=eta_write,
            hold_flip_time=hold_flip_time,
        )

    def write_window(self, signal: SignalSpec) -> float:
        """Actual write window length for a given signal."""
        if self.t_write is not None:
            return self.t_write
        return signal.t_lead + 4.0 * signal.t_width

    def flip_time(self) -> float:
        """Time within the hold at which the hold gradient flips sign."""
        if self.hold_flip_time is not None:
            return self.hold_flip_time
        return 0.5 * self.t_hold


@dataclass(frozen=True)
class DerivedGroups:
    """Dimensionless groups and wavenumbers controlling the cycle efficiency.

    Attributes:
        coupling_eff: effective two-level coupling (rad/s, signed).
        optical_depth: resonant optical depth parameter beta (signed; its sign
            follows the write gradient).
        k_matched:   envelope wavenumber offset (rad/m).
        k_initial:   physical wavenumber at which the coherence is imprinted.
        k_hold:      coherence wavenumber of the pulse peak at the end of the
                     write phase.
        tau_write:   diffusion exposure integrated over the write phase.
        tau_hold:    diffusion exposure of the hold phase at k_hold.
        tau_perp:    transverse diffusion exposure 4 D (t_hold + 2 t_lead)/a^2.
        alpha_write: pulse-width correction factor of the write phase.
        alpha_hold:  pulse-width correction factor of the hold phase.
    """

    coupling_eff: float
    optical_depth: float
    k_matched: float
    k_initial: float
    k_hold: float
    tau_write: float
    tau_hold: float
    tau_perp: float
    alpha_write: float
    alpha_hold: float


def derive_groups(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> DerivedGroups:
    """Evaluate the derived groups for one parameter set.

    Raises ParameterError when eta_write is zero (no gradient, nothing is
    stored) or when the write correction factor is singular (diffusion too
    strong for the perturbative width correction).
    """
    eta = protocol.eta_write
    if eta == 0.0:
        raise ParameterError("gradient required for write phase (eta_write = 0)")

    diff = params.diffusivity
    g_eff = params.coupling_eff
    beta = g_eff**2 * params.density / (eta * params.light_speed)
    k_matched = params.k_matched
    k_initial = k_matched - beta / params.half_length
    k_hold = k_initial - eta * signal.t_lead

    # Cubic difference of the drift (k_initial/eta)**3 - (k_initial/eta - t)**3
    # integrated exposure of the write phase; exact for a short pulse.
    u0 = k_initial / eta
    tau_write = (2.0 * diff * eta**2 / 3.0) * (u0**3 - (u0 - signal.t_lead) ** 3)
    tau_hold = diff * protocol.t_hold * k_hold**2
    tau_perp = (
        4.0 * diff * (protocol.t_hold + 2.0 * signal.t_lead) / signal.waist**2
    )

    alpha_w_den = 1.0 - diff * eta**2 * signal.t_width**2 * (u0 - signal.t_lead)
    if alpha_w_den <= 0.0:
        raise ParameterError(
            "write correction factor singular: diffusion broadening exceeds "
            "the pulse bandwidth (alpha_write denominator %.3g <= 0)" % alpha_w_den
        )
    alpha_write = 1.0 / alpha_w_den

    inv_tw2 = 1.0 / signal.t_width**2
    alpha_hold = inv_tw2 / (inv_tw2 + diff * protocol.t_hold * eta**2)

    return DerivedGroups(
        coupling_eff=g_eff,
        optical_depth=beta,
        k_matched=k_matched,
        k_initial=k_initial,
        k_hold=k_hold,
        tau_write=tau_write,
        tau_hold=tau_hold,
        tau_perp=tau_perp,
        alpha_write=alpha_write,
        alpha_hold=alpha_hold,
    )


def containment_margin(params: PhysicalParams, groups: DerivedGroups) -> float:
    """|k_initial| * L, the margin by which the stored wave clears the faces.

    Values well above 1 indicate the imprinted coherence oscillates many
    times across the medium, so truncation at the faces is negligible.
    """
    return abs(groups.k_initial) * params.half_length


def optimal_write_lead(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> float:
    """Lead time that would park the held coherence at zero wavenumber.

    k_hold vanishes when t_lead = k_initial / eta_write; only meaningful
    when that ratio is positive (gradient sign matching the imprint
    wavenumber).  Returns the ratio regardless; callers decide.
    """
    groups = derive_groups(params, protocol, signal)
    return groups.k_initial / protocol.eta_write


def stark_residual(params: PhysicalParams, rabi_local: float) -> float:
    """Residual two-photon detuning from the control light shift (rad/s).

    rabi_local is the instantaneous local Rabi frequency (0 when the control
    is off).  With stark_absorbed the uniform peak shift is biased away and
    only the off-axis remainder survives; otherwise the full shift acts.
    """
    return params.stark_bias - rabi_local**2 / params.detuning


def echo_leakage(optical_depth: float) -> float:
    """Fraction of pulse energy transmitted past the memory, exp(-2 pi |beta|).

    Finite-optical-depth leakage of the write phase; the read phase loses the
    same factor again.  Used to size tolerances and sanity-check lossless
    runs, not in any efficiency formula.
    """
    return math.exp(-2.0 * math.pi * abs(optical_depth))
