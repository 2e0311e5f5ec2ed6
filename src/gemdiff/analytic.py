"""Closed-form predictions for the diffusive gradient-echo cycle.

Every function here is an algebraic consequence of the k-space solution of
the write / hold / read cycle: per-phase decay factors, the unit-modulus
echo phase factor, the stored-coherence spectrum, and the efficiency,
width and phase formulas the solvers are tested against.

Efficiency conventions: an efficiency is a ratio of time-integrated output
to input intensity, so a single phase with amplitude decay d contributes
d^2.  The write and read phases share one exposure tau_write; the hold
phase has exposure tau_hold; the transverse factor depends only on
tau_perp.  All "approx" forms drop terms of order (D eta^2 t_width^3)^2
and (gamma_k t_width)^2 as documented per function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_hermite, loggamma

from .model import DerivedGroups, ParameterError, PhysicalParams, StorageProtocol, derive_groups
from .pulses import ControlProfile, SignalSpec, sample_temporal

# ---------------------------------------------------------------------------
# per-phase decay factors and the echo phase factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFactors:
    """Amplitude decay factors of the echo, as functions of read offset t.

    t is measured from the start of the read phase; the echo of the input
    slice that arrived at -t leaves at t_hold + t.
    """

    diffusivity: float
    eta_write: float
    k_initial: float
    t_hold: float

    @classmethod
    def from_run(
        cls, params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
    ) -> "DecayFactors":
        groups = derive_groups(params, protocol, signal)
        return cls(
            diffusivity=params.diffusivity,
            eta_write=protocol.eta_write,
            k_initial=groups.k_initial,
            t_hold=protocol.t_hold,
        )

    def write(self, t) -> np.ndarray:
        """Write-phase decay of the slice echoed at offset t."""
        t = np.asarray(t, dtype=float)
        k_back = self.k_initial - self.eta_write * t
        exponent = (
            -self.diffusivity
            / (3.0 * self.eta_write)
            * (self.k_initial**3 - k_back**3)
        )
        return np.exp(exponent)

    def read(self, t) -> np.ndarray:
        """Read-phase decay; identical to the write decay slice by slice."""
        return self.write(t)

    def hold(self, t) -> np.ndarray:
        """Hold-phase decay at the slice wavenumber k_initial - eta t."""
        t = np.asarray(t, dtype=float)
        k_back = self.k_initial - self.eta_write * t
        return np.exp(-self.diffusivity * self.t_hold * k_back**2)

    def perp(self, kx, ky, t) -> np.ndarray:
        """Transverse decay e^(-2 gamma t - gamma t_hold), gamma = D k_perp^2."""
        gamma = self.diffusivity * (np.asarray(kx) ** 2 + np.asarray(ky) ** 2)
        return np.exp(-gamma * (2.0 * np.asarray(t, dtype=float) + self.t_hold))


def _gamma_ratio_phase(beta: float) -> float:
    """arg of Gamma(i beta)/Gamma(-i beta) = 2 Im log Gamma(i beta).

    The two Gamma values are complex conjugates for real beta, so the ratio
    has unit modulus by construction; only its phase is ever evaluated.
    """
    return 2.0 * float(loggamma(1j * beta).imag)


def phase_factor(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec, t
) -> np.ndarray:
    """Unit-modulus echo phase factor at read offsets t.

    Combines the frequency-chirp phase of the write/read sweeps, the field
    dispersion phase across the medium, the hold-phase rotation of the
    stored wave, and the phase of Gamma(i beta)/Gamma(-i beta).  Returned
    as exp(i phi) with phi assembled in real arithmetic, so the modulus is
    exactly 1 and efficiency integrals may ignore it.
    """
    groups = derive_groups(params, protocol, signal)
    eta = protocol.eta_write
    beta = groups.optical_depth
    half_length = params.half_length
    t = np.asarray(t, dtype=float)

    sweep = eta * half_length * t + beta
    if np.any(sweep == 0.0):
        raise ParameterError("phase factor singular where eta L t + beta = 0")
    phi = -2.0 * beta * np.log(np.abs(sweep))
    phi = phi + 2.0 * half_length * params.dispersion_shift
    phi = phi - (
        groups.coupling_eff**2
        * params.density
        * protocol.t_hold
        / (params.light_speed * (eta * t + beta / half_length))
    )
    phi = phi + _gamma_ratio_phase(beta)
    return np.exp(1j * phi)


def kernel_amplitude(eta: float, beta: float, half_length: float) -> complex:
    """Write-kernel constant G of the k-space solution, evaluated stably.

    |G| = (beta/eta) e^(-pi |beta| / 2) sqrt(pi sinh(pi |beta|) / |beta|),
    arg G = -beta ln|eta L| + Im log Gamma(i beta).  The sinh and Gamma
    magnitudes are combined in log space so large |beta| neither overflows
    nor underflows.
    """
    if beta == 0.0 or eta == 0.0:
        raise ParameterError("kernel amplitude needs nonzero gradient and depth")
    if beta * eta < 0.0:
        raise ParameterError(
            "optical depth and gradient must share a sign "
            "(beta = g_eff^2 N / (eta c) cannot oppose eta)"
        )
    abs_beta = abs(beta)
    x = math.pi * abs_beta
    # log sinh(x) = x + log1p(-exp(-2x)) - log 2, stable for any x > 0
    log_sinh = x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
    log_mag = (
        math.log(beta / eta)
        - 0.5 * x
        + 0.5 * (math.log(math.pi) + log_sinh - math.log(abs_beta))
    )
    phase = -beta * math.log(abs(eta * half_length)) + float(loggamma(1j * beta).imag)
    return complex(math.exp(log_mag) * math.cos(phase), math.exp(log_mag) * math.sin(phase))


def kspace_write_solution(
    params: PhysicalParams,
    protocol: StorageProtocol,
    signal: SignalSpec,
    k,
    t: float = 0.0,
    include_decay: bool = True,
):
    """Coherence spectrum sigma(k, t) during the write phase (t <= 0).

    Returns (sigma, singular) where singular flags wavenumbers at the
    logarithmic singular point k = k_matched; there the oscillatory factor
    is replaced by its limiting magnitude (1) and a warning is emitted.
    The diffusive write decay exp(-D (k_initial^3 - k^3) / (3 eta)) is the
    end-of-write (t = 0) form and is applied when include_decay is set.
    The underlying solution assumes a large optical depth; small |beta| is
    flagged with a warning rather than rejected.
    """
    groups = derive_groups(params, protocol, signal)
    eta = protocol.eta_write
    beta = groups.optical_depth
    if abs(beta) < 1.0:
        warnings.warn(
            "k-space write solution assumes |beta| well above 1; got %.3g" % beta,
            RuntimeWarning,
            stacklevel=2,
        )
    k = np.asarray(k, dtype=float)

    slice_coord = (k - groups.k_initial) / eta
    envelope = sample_temporal(signal, slice_coord + t)

    u = slice_coord - beta / (eta * params.half_length)
    singular = u == 0.0
    if np.any(singular):
        warnings.warn(
            "stored-spectrum evaluation at the singular point k = k_matched; "
            "using the limiting magnitude",
            RuntimeWarning,
            stacklevel=2,
        )
    u_safe = np.where(singular, 1.0, u)
    chirp = np.where(
        singular,
        1.0 + 0.0j,
        np.exp(-1j * beta * np.log(np.abs(u_safe))) * np.sign(u_safe),
    )

    kernel = kernel_amplitude(eta, beta, params.half_length)
    sigma = (
        envelope
        * np.exp(1j * params.dispersion_shift * params.half_length)
        * chirp
        * (params.light_speed / (groups.coupling_eff * params.density))
        * kernel
    )
    if include_decay:
        sigma = sigma * np.exp(
            -params.diffusivity
            / (3.0 * eta)
            * (groups.k_initial**3 - k**3)
        )
    return sigma, singular


def hold_rotation_phase(params: PhysicalParams, k, t_hold: float) -> np.ndarray:
    """Hold-phase rotation of sigma(k) with the control on: exp(i phi).

    phi = g_eff^2 N t_hold / (c (k - k_matched)); the associated group
    velocity is given by group_velocity.
    """
    k = np.asarray(k, dtype=float)
    return np.exp(
        1j
        * params.coupling_eff**2
        * params.density
        * t_hold
        / (params.light_speed * (k - params.k_matched))
    )


def group_velocity(params: PhysicalParams, k) -> np.ndarray:
    """Drift speed of the stored wave with the control on during the hold."""
    k = np.asarray(k, dtype=float)
    return (
        params.coupling_eff**2
        * params.density
        / (params.light_speed * (k - params.k_matched) ** 2)
    )


def output_field(
    params: PhysicalParams,
    protocol: StorageProtocol,
    signal: SignalSpec,
    t,
    kx: float = 0.0,
    ky: float = 0.0,
) -> np.ndarray:
    """Echo field at read offsets t, per unit transverse mode amplitude.

    f_out(t_hold + t) = d_write d_hold d_read d_perp f_in(-t) G_phase.
    Multiply by the transverse mode spectrum for the full 3D output.
    """
    t = np.asarray(t, dtype=float)
    decay = DecayFactors.from_run(params, protocol, signal)
    return (
        decay.write(t)
        * decay.hold(t)
        * decay.read(t)
        * decay.perp(kx, ky, t)
        * sample_temporal(signal, -t)
        * phase_factor(params, protocol, signal, t)
    )


# ---------------------------------------------------------------------------
# efficiencies
# ---------------------------------------------------------------------------


def eff_write_approx(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> tuple[float, float, float]:
    """Write efficiency with its dimensionless groups: (eps, alpha, tau).

    eps = sqrt(alpha_write) exp(-tau_write), accurate to
    O((D eta^2 t_width^3)^2); alpha_write is within 1% of 1 in every
    practical regime, where the curve reduces to exp(-tau_write).  Use
    eff_write_exact for the quadrature form without the expansion.
    """
    groups = derive_groups(params, protocol, signal)
    eps = math.sqrt(groups.alpha_write) * math.exp(-groups.tau_write)
    return eps, groups.alpha_write, groups.tau_write


def eff_hold(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> tuple[float, float, float]:
    """Hold efficiency with its dimensionless groups: (eps, alpha, tau).

    eps = sqrt(alpha_hold) exp(-2 alpha_hold tau_hold); exact for an
    untruncated Gaussian envelope (the Gaussian integrals are carried out
    without expansion).  Reduces to exp(-2 tau_hold) when alpha_hold is
    close to 1.
    """
    groups = derive_groups(params, protocol, signal)
    eps = math.sqrt(groups.alpha_hold) * math.exp(
        -2.0 * groups.alpha_hold * groups.tau_hold
    )
    return eps, groups.alpha_hold, groups.tau_hold


def eff_write_exact(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> float:
    """Write efficiency as the exact ratio of weighted time integrals.

    Numerator weight: squared write decay of the slice absorbed at time t,
    exp(-2 D (k_initial^3 - (k_initial + eta t)^3) / (3 eta)) for
    t in [-t_write, 0].  Adaptive quadrature, relative tolerance 1e-10;
    window truncation keeps tails below the quadrature tolerance whenever
    t_write >= t_lead + 6 t_width.
    """
    groups = derive_groups(params, protocol, signal)
    eta = protocol.eta_write
    diff = params.diffusivity
    k_init = groups.k_initial
    window = protocol.write_window(signal)

    def weight(t: float) -> float:
        return math.exp(
            -2.0 * diff / (3.0 * eta) * (k_init**3 - (k_init + eta * t) ** 3)
        )

    def envelope_sq(t: float) -> float:
        arg = (t + signal.t_lead) / signal.t_width
        return math.exp(-2.0 * arg * arg)

    peak = -signal.t_lead
    num, _ = quad(
        lambda t: envelope_sq(t) * weight(t),
        -window,
        0.0,
        points=[peak],
        epsrel=1e-10,
        epsabs=0.0,
        limit=200,
    )
    den, _ = quad(
        envelope_sq, -window, 0.0, points=[peak], epsrel=1e-10, epsabs=0.0, limit=200
    )
    return num / den


def eff_transverse(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> tuple[float, float]:
    """Transverse efficiency of the fundamental Gaussian: (eps, tau_perp).

    eps = 1 / (1 + tau_perp) to O((gamma_k t_width)^2), for the (0,0)
    transverse mode; higher modes go through hg_efficiency.
    """
    if signal.mode != (0, 0):
        raise ParameterError(
            "closed-form transverse efficiency covers the (0,0) mode only; "
            "use hg_efficiency for mode %r" % (signal.mode,)
        )
    groups = derive_groups(params, protocol, signal)
    return 1.0 / (1.0 + groups.tau_perp), groups.tau_perp


@dataclass(frozen=True)
class EffTotals:
    """The four printed forms of the cycle efficiency.

    full:       sqrt(1/(1/alpha_hold + 2/alpha_write - 2))
                * e^(-2 tau_write) e^(-2 tau_hold) / (1 + tau_perp)
    product:    eps_write * eps_hold * eps_read * eps_perp
    linearized: small-decay budget, valid with the held wavenumber parked
                near zero (t_lead close to k_initial / eta)
    bound:      protocol-level upper bound; None when its preconditions
                (|eta t_width| > 1/L and t_lead > t_width) fail, with the
                reason in bound_note
    """

    full: float
    product: float
    linearized: float
    bound: float | None
    bound_note: str | None = None


def eff_total(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> EffTotals:
    """All closed-form totals for one parameter set.

    Raises when the combined width-correction prefactor of the full form is
    singular (diffusion corrections no longer perturbative).
    """
    groups = derive_groups(params, protocol, signal)
    denom = 1.0 / groups.alpha_hold + 2.0 / groups.alpha_write - 2.0
    if denom <= 0.0:
        raise ParameterError(
            "alpha prefactor singular (1/alpha_hold + 2/alpha_write - 2 = "
            "%.3g <= 0)" % denom
        )
    full = (
        math.sqrt(1.0 / denom)
        * math.exp(-2.0 * groups.tau_write)
        * math.exp(-2.0 * groups.tau_hold)
        / (1.0 + groups.tau_perp)
    )

    eps_w = eff_write_approx(params, protocol, signal)[0]
    eps_h = eff_hold(params, protocol, signal)[0]
    product = eps_w * eps_h * eps_w / (1.0 + groups.tau_perp)

    diff = params.diffusivity
    linearized = (
        1.0
        - 4.0 * diff * groups.k_initial**2 * signal.t_lead / 3.0
        - diff * protocol.t_hold * protocol.eta_write**2 * signal.t_width**2 / 2.0
        - 4.0 * diff * (protocol.t_hold + 2.0 * signal.t_lead) / signal.waist**2
    )

    bound: float | None
    bound_note: str | None = None
    half_length = params.half_length
    if abs(protocol.eta_write * signal.t_width) * half_length <= 1.0:
        bound = None
        bound_note = "bound needs |eta_write * t_width| > 1 / half_length"
    elif signal.t_lead <= signal.t_width:
        bound = None
        bound_note = "bound needs t_lead > t_width"
    else:
        bound = (
            1.0
            - 4.0 * diff * signal.t_width / (3.0 * half_length**2)
            - diff * protocol.t_hold / (2.0 * half_length**2)
            - 4.0 * diff * (protocol.t_hold + 2.0 * signal.t_width) / signal.waist**2
        )
    return EffTotals(
        full=full,
        product=product,
        linearized=linearized,
        bound=bound,
        bound_note=bound_note,
    )


# ---------------------------------------------------------------------------
# transverse mode families, width and phase profiles
# ---------------------------------------------------------------------------


def _mode_axis_factor(m: int, tau_perp: float) -> float:
    """One-axis efficiency factor of Hermite-Gauss order m.

    Ratio of int H_m(s)^2 e^(-(1 + tau) s^2) ds to its tau = 0 value; the
    transverse decay acts on the mode spectrum exactly like a wider
    Gaussian weight.  Evaluated by adaptive quadrature (the integrand is
    smooth and strongly confined).
    """

    def integrand(s: float, c: float) -> float:
        h = eval_hermite(m, s)
        return h * h * math.exp(-c * s * s)

    cutoff = 8.0 + 2.0 * math.sqrt(m + 1.0)
    num, _ = quad(integrand, -cutoff, cutoff, args=(1.0 + tau_perp,), epsrel=1e-11)
    den, _ = quad(integrand, -cutoff, cutoff, args=(1.0,), epsrel=1e-11)
    return num / den


def hg_efficiency(mode: tuple[int, int], tau_perp: float) -> float:
    """Transverse efficiency of Hermite-Gauss mode (m, n).

    Closed forms for (0,0) and (1,1); other orders fall back to the
    per-axis quadrature of the mode spectrum against the diffusion weight.
    """
    if tau_perp < 0:
        raise ParameterError("tau_perp must be non-negative")
    m, n = mode
    if (m, n) == (0, 0):
        return 1.0 / (1.0 + tau_perp)
    if (m, n) == (1, 1):
        return (1.0 / (1.0 + tau_perp)) ** 3
    return _mode_axis_factor(m, tau_perp) * _mode_axis_factor(n, tau_perp)


def hg_ratio(tau_perp: float) -> float:
    """Efficiency ratio of the (1,1) to the (0,0) mode, (1/(1+tau_perp))^2."""
    return (1.0 / (1.0 + tau_perp)) ** 2


def output_width(
    params: PhysicalParams, protocol: StorageProtocol, signal: SignalSpec
) -> float:
    """Output beam width: w^2 = waist^2 / 4 + D (2 t_lead + t_hold).

    Width convention: the output intensity is proportional to
    exp(-r^2 / (2 w^2)), so the input beam itself has w = waist / 2 and
    w^2 grows linearly in hold time with slope exactly D (homogeneous
    control).
    """
    return math.sqrt(
        signal.waist**2 / 4.0
        + params.diffusivity * (2.0 * signal.t_lead + protocol.t_hold)
    )


def phase_theta(
    params: PhysicalParams,
    protocol: StorageProtocol,
    signal: SignalSpec,
    control: ControlProfile,
    z,
    r_perp,
) -> np.ndarray:
    """Quadratic spin-wave phase imprinted by a Gaussian control beam.

    Phase difference (inhomogeneous minus homogeneous control) of the held
    coherence at position (z, r_perp), mid-hold, without diffusion.  Valid
    for control waist well above the signal waist; quadratic in
    r_perp / control waist, with the peak-control optical depth in the
    write-dynamics terms and the residual light shift in the first term.
    """
    if control.is_homogeneous:
        raise ParameterError("phase profile needs a gaussian control beam")
    if control.waist < 2.0 * signal.waist:
        warnings.warn(
            "phase profile derived for control waist well above the signal "
            "waist (w_c = %.3g, signal waist = %.3g)" % (control.waist, signal.waist),
            RuntimeWarning,
            stacklevel=2,
        )
    rabi = control.rabi_peak
    waist_c = control.waist
    eta = protocol.eta_write
    half_length = params.half_length
    groups = derive_groups(params, protocol, signal)
    beta = groups.optical_depth

    sweep = eta * half_length * signal.t_lead + beta
    if sweep == 0.0:
        raise ParameterError("phase profile singular: eta L t_lead + beta = 0")

    bracket = (
        -2.0 * rabi**2 * signal.t_lead / params.detuning
        + 2.0 * beta * math.log(abs(eta * half_length * signal.t_lead / beta + 1.0))
        + 2.0
        * beta
        * (1.0 - rabi**2 / (params.detuning * eta * half_length))
        * (beta / sweep + np.asarray(z, dtype=float) / half_length)
    )
    return bracket * np.asarray(r_perp, dtype=float) ** 2 / waist_c**2
