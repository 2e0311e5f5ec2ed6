"""Split-step integrator for the one-dimensional storage cycle.

The solver works in the frame where the field's linear dispersion phase
and the coherence's carrier oscillation are factored out: the field obeys
d_z E = i (g_eff N / c) sigma with no explicit phase factor, and the
coherence obeys

    d_t sigma = -i (eta(t) z + delta_res) sigma + i g_eff E
                + D (d_z + i k_matched)^2 sigma,

so the spectral diffusion kernel is exp(-D (q + k_matched)^2 dt) with q
the grid wavenumber (physical spin-wave wavenumber k = q + k_matched).
Physical-frame fields are recovered at the cell faces by the constant
phase PhysicalParams.face_phase.

Each time step is a symmetric split: exact spectral diffusion half-steps
around a core, advance_step, that applies the gradient rotation and the
field drive, with the field slaved to the coherence (d_z E integrated from
the entrance face).  In 1D every row shares one constant generator over a
driven piece, and the core applies its exact propagator (_Propagators,
one expm per step and gradient size), so the step's only time error is
the input's quadratic interpolation over it: steps_per_width is a
sampling rate, not an accuracy setting.  Real space, whose columns see
their own coupling and light shift, steps the drive by the midpoint rule,
whose error is second order in the step.  The rotation sub-flow is exact
in both, and phase boundaries land exactly because the step size is
re-fitted to each phase.

One step rule serves both routes: a driven span steps at dt0, cut at
snapshot times off its step grid, and every undriven span is one exact
step per piece (StepKernels), cut only at snapshot times, whatever its
gradient and diffusivity; so every snapshot lands on its time.  A
transverse operator takes each piece's step and owns how it steps it (its
propagate).

The driver applies the diffusion half-steps around the core itself.  At
every step boundary inside a piece it takes the state's spectrum once,
and the next step starts from its inverse transform by the full-step
kernel, followed in real space by one transverse propagation: the two
halves that meet there merge, recorded or not.  Only a piece end settles the
owed halves into the state.  One rule reads every boundary (the driver's
observe): a settled state by its trapezoid integral over the medium, a
state inside a piece without settling it, through the trapezoid
functional: the medium integral of the settled state is spec . (after *
ifft(w)), w the trapezoid weights, and the owed transverse half acts on
that (rows, 1) integral.  A snapshot due inside a piece is taken from a
settled copy, so it never changes the state's arithmetic.  With the
drive off every column sees the same longitudinal operator, which
commutes with the transverse one, so the transverse half-steps of an
undriven piece are applied at its end in one shot.

All step kernels broadcast over leading axes of sigma, with per-row
couplings and detunings passed as (..., 1) arrays.

A step allocates no state-sized array.  The driver owns two states and
two medium-shaped buffers per cycle: the spectrum is taken and turned back
in place, and each transverse propagation and step core writes into the
state that is not its input.  Whatever leaves the driver is a copy: exit
fields, end states and frames.

One driver, _drive_cycle, runs both routes on a (groups, rows, n_z) state
by the step plan of _cycle_plan.  _rows_of checks a call's rows once, the
plan takes their diffusivity, and the driver injects each input sample
times face_phase (and the transverse profile, in real space).  Each group
is a record: a 1D batch is G groups of one row, a real-space call G groups
of its transverse columns, one per protocol.  Per-group values are (G, 1,
1) columns and per-row ones (rows, 1) columns, so both broadcast without
tiling.  The state starts as one shared group and fans out along axis 0 to
each span's group count (_cycle_plan), so a write they all share runs
once.  The harness cost guard sums groups x steps over the same plan, so
it charges what _drive_cycle runs.  Groups may differ in the diffusivity
and, whenever the hold is undriven, in t_hold (the hold splits at each
group's own flip time); any other difference is a ParameterError.

The driver keeps what a route reads (_Trace, and the input injected at
each write boundary), and both routes integrate energies over its times by
the trapezoid rule.  The only snapshots are coherence frames at requested
scalar times (sigma_times); a spin-wave spectrum is spinwave_spectrum of a frame.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.fft import fft, ifft
from scipy.linalg import solve_triangular
from scipy.linalg.blas import zaxpy, ztrmm

from .model import (
    GuardBandError,
    ParameterError,
    PhysicalParams,
    StorageProtocol,
    derive_groups,
    stark_residual,
)
from .pulses import SignalSpec, sample_temporal

_PHASES = ("write", "hold", "read")
_GUARD_THRESHOLD = 1e-4  # largest edge/peak coherence ratio the padding may hold


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform z grid with the medium faces exactly on grid points.

    The medium occupies [-half_length, half_length]; the grid extends
    beyond it by a padding band of at least PAD_FRACTION of the medium on
    each side, so the periodic spectral diffusion never wraps coherence
    back into the medium.  Grid sizes are powers of two for the FFT.
    """

    PAD_FRACTION = 0.25

    z: np.ndarray
    dz: float
    i_left: int
    i_right: int
    half_length: float

    @classmethod
    def build(cls, half_length: float, n_medium: int = 256) -> "Grid1D":
        if n_medium < 16 or n_medium % 2:
            raise ParameterError("n_medium must be an even number >= 16")
        dz = 2.0 * half_length / n_medium
        needed = n_medium * (1.0 + 2.0 * cls.PAD_FRACTION)
        n_z = 1 << max(5, math.ceil(math.log2(needed)))
        centre = n_z // 2
        z = (np.arange(n_z) - centre) * dz
        return cls(
            z=z,
            dz=dz,
            i_left=centre - n_medium // 2,
            i_right=centre + n_medium // 2,
            half_length=half_length,
        )

    @property
    def n_z(self) -> int:
        return self.z.size

    @property
    def medium(self) -> slice:
        """Index slice covering the medium, faces included."""
        return slice(self.i_left, self.i_right + 1)

    @cached_property
    def mask(self) -> np.ndarray:
        """1.0 inside the medium, 0.0 in the padding (read-only, built once)."""
        m = np.zeros(self.n_z)
        m[self.medium] = 1.0
        m.flags.writeable = False
        return m

    @cached_property
    def trapezoid(self) -> np.ndarray:
        """Trapezoid weights of the integral over the medium, dz [1/2, 1, ..., 1, 1/2]
        on the medium and 0 in the padding (read-only, built once)."""
        w = self.dz * self.mask
        w[self.i_left] = w[self.i_right] = 0.5 * self.dz
        w.flags.writeable = False
        return w

    @cached_property
    def trapezoid_k(self) -> np.ndarray:
        """ifft of trapezoid: sum(trapezoid * ifft(x)) = sum(x * trapezoid_k) for any spectrum x."""
        w = ifft(self.trapezoid)
        w.flags.writeable = False
        return w

    @property
    def q(self) -> np.ndarray:
        """FFT wavenumbers of the grid (rad/m, unshifted order)."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_z, self.dz)

    def guard_slices(self) -> tuple[slice, slice]:
        """Outer half of each padding band, where coherence must stay tiny."""
        left_pad = self.i_left
        right_pad = self.n_z - 1 - self.i_right
        return slice(0, left_pad // 2), slice(self.n_z - right_pad // 2, self.n_z)


def slave_field(medium: np.ndarray, scale, offset, out: np.ndarray | None = None) -> np.ndarray:
    """The slaved field in running-sum form: offset + scale * S(medium).

    S(x)_j = sum_{i<j} (x_i + x_{i+1}), S_0 = 0, is the cumulative trapezoid
    from the entrance face with dz / 2 taken out, so the field slaved to the
    coherence, E(z) = fin + i (g N / c) int sigma dz', is
    slave_field(medium, 1j * (g N / c) * dz / 2, fin); any multiple c E is
    the same call with scale and offset both times c.  medium is the
    coherence on the medium points, sigma[..., grid.medium], and the field
    comes back on the same points, in out when given (medium's shape, not
    sharing its memory), else in a new array.  Per-row scales and offsets
    broadcast over leading axes when shaped (..., 1); offset None is a zero
    offset.
    """
    if out is None:
        out = np.empty(medium.shape, dtype=complex)
    if medium.flags.c_contiguous and out.flags.c_contiguous:  # flat pairs: no iterator buffers
        flat, pairs = medium.reshape(-1), out.reshape(-1)
        np.add(flat[:-1], flat[1:], out=pairs[1:])
    else:
        np.add(medium[..., :-1], medium[..., 1:], out=out[..., 1:])
    out[..., 0] = 0.0  # S_0, and in the flat pairing the sums across rows
    np.cumsum(out, axis=-1, out=out)
    out *= scale
    if offset is not None:
        out += offset
    return out


def _field(integral, coupling_eff, density: float, light_speed: float, fin_tilde):
    """Field fin + i (g N / c) integral, for integral the int sigma dz from the entrance face."""
    return fin_tilde + 1j * (coupling_eff * density / light_speed) * integral


def _integral(sigma: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Trapezoid integral of each row over the medium, as a (..., 1) column."""
    med = grid.medium
    return np.sum(sigma[..., med] * grid.trapezoid[med], axis=-1, keepdims=True)


@dataclass(eq=False)
class StepKernels:
    """Precomputed factors of one piece's step size.

    dt and diffusivity are scalars, or (groups, 1, 1) columns with one value
    per group.  rot_full and rot_half are the gradient rotation times the
    light-shift residual over a step and over half a step, built
    once per piece.  before and after, the diffusion halves on either side
    of the core (full = after * before, merged at a boundary inside a piece),
    decay the wave by exp(-D int_0^h (kappa -+ drift s)^2 ds), kappa = q +
    k_matched entering or leaving the core.  An undriven step passes its
    gradient as drift and is exact for the continuous operator (on the
    periodic grid, cutting a gradient-on piece moves the state by about
    5e-9); a driven step passes 0, the Strang halves.  Rows with no
    diffusion over the step (D = 0 or a zero-length step) are left out of
    diff_rows (None: every row diffuses) and skip the FFT pair, so they
    match a solve of their own.  probe = after * grid.trapezoid_k reads the
    medium integral of ifft(spec * after) as spec . probe, without forming
    the after half.  propagator is a driven 1D piece's exact propagator
    (_Propagators), which advance_step applies in place of its midpoint
    rule; None elsewhere.
    """

    dt: float | np.ndarray
    rot_full: np.ndarray
    rot_half: np.ndarray
    before: np.ndarray | None
    after: np.ndarray | None
    full: np.ndarray | None
    probe: np.ndarray | None
    diff_rows: np.ndarray | None = None
    propagator: tuple | None = None

    @classmethod
    def build(
        cls,
        grid: Grid1D,
        dt,
        eta: float,
        residual,
        diffusivity,
        k_matched: float,
        drift: float,
        propagator: tuple | None = None,
    ) -> "StepKernels":
        before = after = full = probe = diff_rows = None
        active = np.asarray(diffusivity * dt) > 0.0
        if np.any(active):
            d, d_dt = diffusivity, dt
            if not np.all(active):
                diff_rows = np.flatnonzero(active)
                d = diffusivity[diff_rows] if np.ndim(diffusivity) else diffusivity
                d_dt = dt[diff_rows] if np.ndim(dt) else dt
            kappa, h = grid.q + k_matched, 0.5 * d_dt
            # at drift = 0 these are exp(-d kappa^2 h), bit for bit
            # products, not powers: numpy's array power may move a scalar's last bit
            core = -d * kappa**2 * h - d * drift**2 * (h * h * h) / 3.0
            tilt = d * drift * kappa * (h * h)
            before, after = np.exp(core + tilt), np.exp(core - tilt)
            full = after * before
            probe = after * grid.trapezoid_k
        return cls(
            dt=dt,
            rot_full=np.exp(-1j * eta * grid.z * dt) * _rotation(residual, dt),
            rot_half=np.exp(-1j * eta * grid.z * (0.5 * dt)) * _rotation(residual, 0.5 * dt),
            before=before,
            after=after,
            full=full,
            probe=probe,
            diff_rows=diff_rows,
            propagator=propagator,
        )

    def spectrum(self, sigma: np.ndarray) -> np.ndarray | None:
        """fft of the diffusing rows of sigma along z (None: no row diffuses).

        When every row diffuses the transform is taken in place: sigma's
        memory holds the spectrum until resume turns it back.
        """
        if self.before is None:
            return None
        rows = sigma if self.diff_rows is None else sigma[self.diff_rows]  # a copy
        return fft(rows, axis=-1, overwrite_x=True)

    def resume(self, sigma: np.ndarray, spec: np.ndarray | None, kernel) -> np.ndarray:
        """sigma with its diffusing rows replaced by ifft(spec * kernel), kernel
        one of before, after and full, in place: spec is consumed, and the
        result lives in spec's memory when every row diffuses, else in sigma."""
        if spec is None:
            return sigma
        spec *= kernel
        if self.diff_rows is None:
            return ifft(spec, axis=-1, overwrite_x=True)
        sigma[self.diff_rows] = ifft(spec, axis=-1, overwrite_x=True)
        return sigma

    def integral(
        self,
        sigma: np.ndarray,
        spec: np.ndarray | None,
        grid: Grid1D,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """_integral of resume(sigma, spec, after), read as spec . probe; the
        product spec * probe goes into scratch (state-shaped) when given."""
        if spec is None:
            return _integral(sigma, grid)
        weighted = np.multiply(spec, self.probe, out=None if scratch is None else scratch[: len(spec)])
        spectral = np.sum(weighted, axis=-1, keepdims=True)
        if self.diff_rows is None:
            return spectral
        out = _integral(sigma, grid)
        out[self.diff_rows] = spectral
        return out


def advance_step(
    sigma: np.ndarray,
    kern: StepKernels,
    grid: Grid1D,
    *,
    coupling_eff,
    fin_now,
    fin_mid,
    fin_next=0.0j,
    drive_on: bool,
    density: float,
    light_speed: float,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The core of one split step: gradient rotation, light shift and drive.

    The drive acts on the medium only, so the padding gets the rotation
    alone and the drive runs on sigma[..., grid.medium].  With the drive
    off the step is a pure (exact) rotation.  The exact diffusion
    half-steps around the core are the caller's (_drive_cycle).

    When kern carries a propagator (P(dt)^T, weights) of the piece
    (_Propagators), the driven step is exact for the constant generator:
    the medium becomes sigma P(dt)^T + w_now fin_now + w_mid fin_mid +
    w_next fin_next, the input quadratic through its three samples (its
    only time error), and no weights is no input.  P is lower triangular,
    and one triangular product (BLAS trmm) serves every row of every group;
    unlike a general product, whose single-row case takes another kernel,
    it gives a row the same bits in any batch.

    Otherwise the drive uses the midpoint rule: the field is slaved once
    at the step start for the predictor and once at mid-step for the
    corrector.  The field slaved to x is E(x, f) = f + i k (dz / 2) S(x),
    k = g N / c, with S the running sum of slave_field, so the drive over
    a time h, c E with c = h i g, is a + b S(x): a = c f and b = c i k dz
    / 2 = -h g k dz / 2, real in value.  The predictor is sigma_p = R
    (sigma + a0 + b0 S(sigma)) at h = dt / 2, R = rot_half, and the
    corrector adds R (a1 + b1 S(sigma_p)) at h = dt to rot_full sigma: two
    running sums, and no a-pass where the input is zero (the hold and the
    read).  Its stepping error is second order in dt.

    The new state goes into out (sigma's shape, not sharing its memory)
    when given, else into a new array; sigma is never written.  The drive
    runs in the two medium-shaped buffers of scratch (new ones when None):
    the first takes a contiguous copy of sigma[..., medium] (and later the
    kick), the second the new medium (by way of the predictor), so no
    ufunc reads a strided medium view (numpy would buffer it).
    """
    out = np.multiply(kern.rot_full, sigma, out=out)
    if not drive_on:
        return out
    dt, med = kern.dt, grid.medium
    if scratch is None:
        scratch = (np.empty(sigma[..., med].shape, dtype=complex) for _ in range(2))
    inside, sig_p = scratch
    np.copyto(inside, sigma[..., med])
    if kern.propagator is not None:
        full_t, weights = kern.propagator
        rows = inside.reshape(-1, inside.shape[-1])
        # rows P^T in place, as P rows^T on the transposed (Fortran) views
        ztrmm(1.0, full_t.T, rows.T, side=0, lower=1, overwrite_b=1)
        if weights is not None:
            for weight, fin in zip(weights, (fin_now, fin_mid, fin_next)):
                inside += weight * fin
        out[..., med] = inside
        return out
    rot_half = kern.rot_half[..., med]
    field_scale = 1j * (coupling_eff * density / light_speed) * (0.5 * grid.dz)
    drive = (0.5 * dt) * (1j * coupling_eff)  # c over the half step
    slave_field(inside, drive * field_scale, _input_offset(drive, fin_now), out=sig_p)
    sig_p += inside
    sig_p *= rot_half
    drive = dt * (1j * coupling_eff)  # c over the full step
    kick = slave_field(sig_p, drive * field_scale, _input_offset(drive, fin_mid), out=inside)
    kick *= rot_half
    np.copyto(sig_p, out[..., med])  # the predictor is spent: out's medium takes the kick here
    sig_p += kick
    out[..., med] = sig_p
    return out


def _input_offset(drive, fin):
    """drive * fin, the input's part of a drive c E; None for a zero input."""
    if not np.ndim(fin) and fin == 0:
        return None
    return drive * fin


class _Propagators:
    """The exact propagators of the driven 1D medium, built once per step and gradient.

    Over a driven piece every row shares one constant generator on the
    medium, L = diag(-i (eta z + residual)) - kappa S, kappa = g^2 N dz /
    (2 c) with g the coupling and S the running sum of slave_field as a
    matrix: lower triangular, since the field at z sees only upstream
    coherence.  The input enters every cell as i g f(t).  Over a step of h
    the state becomes P(h) sigma + int_0^h P(h - s) (i g) 1 f(t + s) ds,
    P = expm(L h).  With f quadratic through its samples at the step's
    start, midpoint and end the integral is exact: w_now f(t) + w_mid
    f(t + h/2) + w_next f(t + h), the weights i g h (phi1 - 3 phi2 + 4
    phi3, 4 phi2 - 8 phi3, 4 phi3 - phi2)(L h) 1 (phi_k the exponential
    integrator's functions, Hochbruck and Ostermann, Acta Numerica 19, 209,
    2010).  They come from the same expm as P: of L h bordered by the input
    column and a 3 x 3 shift (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    488, 2011), by _expm.  The border's three indices come first, in
    reverse, and the medium after them, so the whole bordered matrix is
    lower triangular, as _expm needs: P is its trailing block, and phi1,
    phi2 and phi3 are border columns 2, 1 and 0.  A build holds the
    bordered matrix and _expm's four more of its size.  The input's
    interpolation is the step's only error.  A single midpoint sample, dt
    P(dt/2) (i g) 1 f_mid, would be as good for the stored wave but not for
    the exit field during the write: a near cancellation of the input and
    the medium's response, it would carry the step's aliased input
    (measured at 8 steps per width: 0.46 of the input energy transmitted,
    against 3e-9 with these weights).

    Calling with (h, eta, inject) returns (P(h)^T, weights), the
    propagator of advance_step, with weights (w_now, w_mid, w_next), or
    None when inject is False (no input over the piece).  One expm per
    distinct step and gradient size: the opposite gradient at the same step
    without input (the read, the second half of a flipped hold) is the
    conjugate, P_{-eta}(h) = exp(-2 i residual h) conj(P_eta(h)).  Steps
    that agree to 1e-12 (equal pieces between snapshots, which differ in
    round-off only) share one entry.
    """

    def __init__(self, grid: Grid1D, coupling: float, density: float, light_speed: float, residual):
        self.z = grid.z[grid.medium]
        self.coupling, self.residual = coupling, residual
        self.kappa = coupling * coupling * density * grid.dz / (2.0 * light_speed)
        self.known: list[tuple] = []  # (h, eta, P^T, input weights or None)

    def __call__(self, h: float, eta: float, inject: bool) -> tuple:
        h = float(h)
        near = [e for e in self.known if abs(e[0] - h) <= 1e-12 * h and abs(e[1]) == abs(eta)]
        same = [e for e in near if e[1] == eta and (e[3] is not None or not inject)]
        if same:
            return same[0][2:]
        if near and not inject:  # the opposite gradient: the conjugate identity
            entry = (h, eta, _rotation(2.0 * self.residual, h) * near[0][2].conj(), None)
        else:
            n = self.z.size
            grown = np.zeros((n + 3, n + 3), dtype=complex)
            # the border in reverse (0, 1, 2: the shift's last, its middle, the
            # input), then the medium, so the whole matrix is lower triangular;
            # row i of slave_field of the identity is S e_i: S^T, so L h goes in transposed
            slave_field(np.eye(n), -self.kappa * h, None, out=grown[3:, 3:].T)
            cells = np.arange(3, n + 3)
            grown[cells, cells] += (-1j * h) * (eta * self.z + self.residual)
            grown[3:, 2] = 1.0 / n  # the input column, balanced against the shift's ones
            grown[1, 0] = grown[2, 1] = 1.0
            grown = _expm(grown)
            phi1, phi2, phi3 = ((n * h * 1j * self.coupling) * grown[3:, k] for k in (2, 1, 0))
            weights = (phi1 - 3.0 * phi2 + 4.0 * phi3, 4.0 * phi2 - 8.0 * phi3, 4.0 * phi3 - phi2)
            entry = (h, eta, np.ascontiguousarray(grown[3:, 3:].T), weights)
        self.known.append(entry)
        return entry[2:]


# the [7/7] Pade approximant of exp, and the 1-norm up to which it is exact
# to double precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005)
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)
_THETA7 = 0.9504178996162932
_BLOCK = 64  # rows of a block of _tril_matmul: 32 to 96 time the same at 388 points


def _expm(a: np.ndarray) -> np.ndarray:
    """expm(a) of a lower-triangular a by scaling and squaring the [7/7] Pade
    approximant; a is overwritten.

    a / 2^s, s the least scaling that brings its 1-norm within _THETA7,
    takes the approximant, which is then squared s times.  Every matrix
    formed from a is lower triangular too, so each product (a^2, a^4,
    a^6, the odd part and the s squarings) multiplies only the blocks on
    and below the diagonal (_tril_matmul), about a quarter of a general
    product's work, and (V - U)^-1 (V + U) is one triangular solve.  The
    result is lower triangular, with exact zeros above the diagonal.
    Beside a it holds four matrices of a's size, made once and reused;
    their blocks above the diagonal stay zero.
    """
    n = len(a)
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    s = max(0, math.ceil(math.log2(norm / _THETA7))) if norm > 0.0 else 0
    a *= 0.5**s
    b = _PADE7
    a2, a4, a6, even = (np.zeros(a.shape, dtype=complex) for _ in range(4))
    _tril_matmul(a, a, a2)
    _tril_matmul(a2, a2, a4)
    _tril_matmul(a4, a2, a6)
    np.multiply(a6, b[6], out=even)  # V = b6 a^6 + b4 a^4 + b2 a^2 + b0
    zaxpy(a4.ravel(), even.ravel(), a=b[4])
    zaxpy(a2.ravel(), even.ravel(), a=b[2])
    even.flat[:: n + 1] += b[0]
    a2 *= b[3]  # U / a = b7 a^6 + b5 a^4 + b3 a^2 + b1, in place
    zaxpy(a4.ravel(), a2.ravel(), a=b[5])
    zaxpy(a6.ravel(), a2.ravel(), a=b[7])
    a2.flat[:: n + 1] += b[1]
    odd, spare = _tril_matmul(a, a2, a4), a6  # a^4 and a^6 are spent
    even -= odd  # V - U
    odd *= 2.0
    odd += even  # V + U
    # V - U and V + U commute, so (V - U)^-1 (V + U) is the transpose of the
    # solve on the transposes: a Fortran view of odd's memory, solved in place
    out = solve_triangular(
        even, odd.T, trans="T", lower=True, overwrite_b=True, check_finite=False
    ).T
    for _ in range(s):
        out, spare = _tril_matmul(out, out, spare), out
    return out


def _tril_matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x @ y for lower-triangular x and y, into out, which shares no memory
    with either and is zero above its diagonal blocks: only the blocks on
    and below the diagonal are written.

    Block (I, J), I >= J, of the product is x's block row I times y's
    block column J over the blocks J to I between them, one matmul each.
    """
    n = len(x)
    for i in range(0, n, _BLOCK):
        rows = slice(i, min(i + _BLOCK, n))
        for j in range(0, i + 1, _BLOCK):
            inner, cols = slice(j, rows.stop), slice(j, j + _BLOCK)
            np.matmul(x[rows, inner], y[inner, cols], out=out[rows, cols])
    return out


@dataclass(eq=False)
class CycleRecord:
    """Everything recorded from one write / hold / read cycle.

    Field samples are in the physical frame at the cell faces; coherence
    snapshots (sigma_frames, one (t, sigma) pair per requested time) stay
    in the solver frame (multiply by exp(i k_matched z) via
    to_physical_frame for the lab-frame coherence, or take
    spinwave_spectrum of a frame for |sigma(k)|^2).
    """

    params: PhysicalParams
    protocol: StorageProtocol
    signal: SignalSpec
    grid: Grid1D
    t_write: np.ndarray
    f_in: np.ndarray
    f_trans: np.ndarray
    t_hold: np.ndarray
    f_hold_leak: np.ndarray
    t_out: np.ndarray
    f_out: np.ndarray
    sigma_end_write: np.ndarray
    sigma_end_hold: np.ndarray
    sigma_end_read: np.ndarray
    sigma_frames: list[tuple[float, np.ndarray]] = field(default_factory=list)
    input_energy: float = 0.0
    transmitted_energy: float = 0.0
    output_energy: float = 0.0
    hold_leak_energy: float = 0.0
    stored_end_write: float = 0.0
    stored_end_hold: float = 0.0
    stored_end_read: float = 0.0
    guard_ratio: dict[str, float] = field(default_factory=dict)

    @property
    def echo_peak_time(self) -> float:
        """Time of the output peak: the vertex of the parabola through log |f_out|^2
        at the strongest sample and its two neighbours, exact for a Gaussian
        echo; the strongest sample's time at an end of the read or where the
        three do not bend down."""
        power = np.abs(self.f_out) ** 2
        k = int(np.argmax(power))
        if not 0 < k < power.size - 1 or not np.all(power[k - 1 : k + 2] > 0.0):
            return float(self.t_out[k])
        (t0, t1, t2), (y0, y1, y2) = self.t_out[k - 1 : k + 2], np.log(power[k - 1 : k + 2])
        rise, fall = (y1 - y0) / (t1 - t0), (y2 - y1) / (t2 - t1)  # divided differences
        bend = (fall - rise) / (t2 - t0)
        if not bend < 0.0:
            return float(t1)
        return float(0.5 * (t0 + t1) - 0.5 * rise / bend)


def _energy(values: np.ndarray, axis: np.ndarray) -> float:
    """Trapezoid integral of |values|^2 over axis."""
    return float(np.trapezoid(np.abs(values) ** 2, axis))


def efficiency_1d(record: CycleRecord) -> float:
    """Time-integrated output over input intensity of a recorded cycle."""
    if record.input_energy == 0.0:
        raise ParameterError("cycle recorded no input energy")
    return record.output_energy / record.input_energy


def to_physical_frame(sigma: np.ndarray, grid: Grid1D, k_matched: float) -> np.ndarray:
    """Lab-frame coherence sigma_12 = exp(i k_matched z) * sigma."""
    return sigma * np.exp(1j * k_matched * grid.z)


def spinwave_spectrum(
    sigma: np.ndarray, grid: Grid1D, k_matched: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-wave power spectrum on the physical wavenumber axis.

    Returns (k, power) with k ascending; power normalisation is arbitrary
    (fixed by the grid), adequate for centroids and drift slopes.
    """
    power = np.abs(np.fft.fftshift(fft(sigma, axis=-1), axes=-1)) ** 2
    k = np.fft.fftshift(grid.q) + k_matched
    return k, power


def spectrum_centroid(k: np.ndarray, power: np.ndarray) -> float:
    """First moment of a power spectrum."""
    total = float(np.sum(power))
    if total == 0.0:
        raise ParameterError("empty spectrum has no centroid")
    return float(np.sum(k * power) / total)


class _FrameTaker:
    """Collects group g's coherence frames at the scalar sigma_times, each at
    the first step boundary that reaches it on group g's clock.

    The plan puts a step boundary on every snapshot time inside the cycle
    (_cycle_plan), to round-off, so a frame keeps its requested time; a time
    before the write is taken at the write's start, with the start's time."""

    def __init__(self, g: int, sigma_times):
        self.g, self.pending = g, sorted(float(t) for t in sigma_times)
        self.sigma_frames: list[tuple[float, np.ndarray]] = []

    def due(self, t) -> bool:
        """Whether a snapshot falls due at boundary t."""
        t = _at(t, self.g)
        return bool(self.pending) and self.pending[0] <= t + _slack(t)

    def take(self, t, sigma: np.ndarray) -> None:
        while self.due(t):
            wanted, at = self.pending.pop(0), _at(t, self.g)
            when = wanted if abs(wanted - at) <= _slack(at) else at
            self.sigma_frames.append((when, _row(sigma, self.g).copy()))


def _slack(t: float) -> float:
    """How far apart two times may lie and still be one boundary: round-off."""
    return 1e-12 * max(1.0, abs(t))


def _check_guard(sigma: np.ndarray, grid: Grid1D, phase: str, peak_ref: float = 0.0) -> float:
    """Coherence at the outer padding must stay below _GUARD_THRESHOLD * peak.

    The reference peak is the largest coherence seen so far in the cycle;
    without it a nearly complete readout would inflate the ratio (the
    stored wave is depleted, the harmless spectral-ringing floor in the
    padding is not).
    """
    peak = max(float(np.max(np.abs(sigma))), peak_ref)
    if peak == 0.0:
        return 0.0
    left, right = grid.guard_slices()
    edge = max(
        float(np.max(np.abs(sigma[..., left]), initial=0.0)),
        float(np.max(np.abs(sigma[..., right]), initial=0.0)),
    )
    ratio = edge / peak
    if ratio > _GUARD_THRESHOLD:
        raise GuardBandError(
            phase,
            "coherence reached the grid padding (edge/peak %.2e > %.0e); lower "
            "the diffusivity or shorten the cycle (t_hold, t_lead, t_width)"
            % (ratio, _GUARD_THRESHOLD),
        )
    return ratio


def _inside(times, t0: float, t1: float) -> list[float]:
    """The distinct times strictly inside (t0, t1), ends excluded to round-off, sorted."""
    eps = 1e-12 * max(1.0, abs(t0), abs(t1))
    return [t for t in sorted({float(t) for t in times}) if t0 + eps < t < t1 - eps]


def _cycle_plan(
    param_rows: Sequence[PhysicalParams],
    protocols: Sequence[StorageProtocol],
    signal: SignalSpec,
    *,
    diffusion_phases: tuple[str, ...] = _PHASES,
    steps_per_width: float,
    cut_times=(),
    read: bool = True,
) -> tuple[float, list[tuple[str, list[tuple]]]]:
    """The step plan of one cycle: the driver runs it, the cost guard sums it.

    param_rows and protocols are the call's rows (_rows_of), one per group;
    the groups' diffusivity is the rows' (a scalar when they share it, else
    one value per group) and acts in the diffusion_phases only.  The base
    step is dt0 = t_width / steps_per_width, and the read window is as long
    as the write window.
    Returns dt0 and, per phase, its constant-operator spans (start, length,
    eta, drive_on, diffusivity, groups, pieces), each run as pieces (start,
    length, n_steps) on groups groups: 1 up to the first span with a
    per-group length or diffusivity, where the groups part ways, and all of
    them from there on.  Values the groups differ in are per-group arrays.
    A driven span steps at dt0, cut at the cut_times inside it that miss
    its step grid (_driven_pieces).  Every undriven span is exact at any
    step size, whatever its gradient and diffusivity: one step per piece,
    cut only at the cut_times inside it.  A cut time is one scalar time
    shared by every group.  A gradient-on hold splits into two spans at
    each group's flip time.
    With read False no exit field is kept, so the cycle's last output is
    its last snapshot: the plan ends with the span that takes it (the first
    whose end reaches it on every group's clock), and the phases after that
    span's are left out.  Such a plan needs a cut time.
    """
    for name in diffusion_phases:
        if name not in _PHASES:
            raise ParameterError("unknown diffusion phase %r" % (name,))
    if steps_per_width <= 0.0:
        raise ParameterError("steps_per_width must be positive")
    if any(np.ndim(t) for t in cut_times):
        raise ParameterError("a snapshot time is one scalar time shared by every row")
    if not read and not len(cut_times):
        raise ParameterError("a cycle without a read needs sigma_times: it has no other output")
    protocol = protocols[0]  # every field but t_hold is shared
    diffs = _shared([p.diffusivity for p in param_rows])
    dt0 = signal.t_width / steps_per_width
    t_window = protocol.write_window(signal)
    holds = _shared([p.t_hold for p in protocols])
    flips = _shared([p.flip_time() for p in protocols])
    if np.ndim(holds):
        if protocol.control_on_hold:
            raise ParameterError("rows may differ in t_hold only when the hold is undriven")
        if _inside(cut_times, 0.0, float(np.max(holds))):
            raise ParameterError("rows that differ in t_hold take no snapshot inside the hold")
    groups = 1  # raised by span() where the groups part ways: build spans in time order

    def span(phase, start, length, eta, drive_on):
        nonlocal groups
        diffusivity = diffs if phase in diffusion_phases else 0.0
        if np.ndim(length) or np.ndim(diffusivity):
            groups = len(protocols)
        if drive_on:
            pieces = _driven_pieces(start, length, dt0, cut_times)
        else:  # a per-group span has no cut inside it (checked above)
            inside = () if np.ndim(length) else _inside(cut_times, start, start + length)
            pieces = [(a, b - a, 1) for a, b in zip([start, *inside], [*inside, start + length])]
        return start, length, eta, drive_on, diffusivity, groups, pieces

    write = [span("write", -t_window, t_window, protocol.eta_write, True)]
    parts = []
    if np.any(np.greater(holds, 0.0)):
        eta = protocol.eta_hold
        parts = [(0.0, flips, eta), (flips, holds - flips, -eta)] if eta else [(0.0, holds, 0.0)]
    hold = [
        span("hold", start, length, eta, protocol.control_on_hold)
        for start, length, eta in parts
        if not np.all(np.less_equal(length, 0.0))
    ]
    plan = [
        ("write", write),
        ("hold", hold),
        ("read", [span("read", holds, t_window, -protocol.eta_write, True)]),
    ]
    return dt0, plan if read else _ending_at(plan, max(float(t) for t in cut_times))


def _driven_pieces(start, length, dt0: float, cut_times) -> list[tuple]:
    """A driven span's pieces (start, length, n_steps), each of steps no longer than dt0.

    Each cut time strictly inside the span that misses the step grid of
    what remains of it (by more than _slack, the frame takers' tolerance) ends a
    piece, so every snapshot lands on a step boundary; with none the span
    is one piece.  A span whose start is per group (a read after per-group
    holds) cannot share a cut, so a time off any group's grid is refused.
    """

    def off_grid(t, a, rest) -> bool:
        step = rest / max(1, math.ceil(rest / dt0))
        j = round((t - a) / step)
        return a < t < a + rest and abs(a + j * step - t) > _slack(t)

    if np.ndim(start):
        if any(off_grid(float(t), a, length) for t in cut_times for a in start.tolist()):
            raise ParameterError(
                "rows that differ in t_hold take a snapshot after the hold only on a step boundary"
            )
        return [(start, length, max(1, math.ceil(length / dt0)))]
    pieces, a, rest = [], start, length
    for t in _inside(cut_times, start, start + length):
        if off_grid(t, a, rest):
            pieces.append((a, t - a, max(1, math.ceil((t - a) / dt0))))
            a, rest = t, start + length - t
    return [*pieces, (a, rest, max(1, math.ceil(rest / dt0)))]


def _ending_at(plan, t_last: float):
    """plan up to the span whose end first reaches t_last on every group's clock
    (_FrameTaker.due's tolerance); the whole plan when no span's end does."""
    for p, (phase, spans) in enumerate(plan):
        for s, (start, length, *_) in enumerate(spans):
            end = np.asarray(start + length)
            if np.all(t_last <= end + 1e-12 * np.maximum(1.0, np.abs(end))):
                return [*plan[:p], (phase, spans[: s + 1])]
    return plan


def _rows_of(params, protocol, signal: SignalSpec) -> tuple[list, list]:
    """Per-row parameter sets and protocols; a single value serves every row.

    The one place a call's rows are checked: their count, the fields they
    may differ in, and each row by derive_groups (gradient and widths).
    """
    param_rows = [params] if isinstance(params, PhysicalParams) else list(params)
    protocol_rows = [protocol] if isinstance(protocol, StorageProtocol) else list(protocol)
    n_rows = max(len(param_rows), len(protocol_rows))
    if len(param_rows) == 1:
        param_rows *= n_rows
    if len(protocol_rows) == 1:
        protocol_rows *= n_rows
    if n_rows == 0 or len(param_rows) != len(protocol_rows):
        raise ParameterError(
            "params and protocol rows must be non-empty and equal in number "
            "(got %d and %d)" % (len(param_rows), len(protocol_rows))
        )
    _require_shared(param_rows, "diffusivity")
    _require_shared(protocol_rows, "t_hold")
    for row_params, row_protocol in zip(param_rows, protocol_rows):
        derive_groups(row_params, row_protocol, signal)
    return param_rows, protocol_rows


def _require_shared(rows, free: str) -> None:
    """Batched rows must agree in every field but `free`."""
    first = vars(rows[0])
    differ = sorted(
        {key for row in rows[1:] for key, value in vars(row).items() if value != first[key]}
        - {free}
    )
    if differ:
        raise ParameterError(
            "batched rows may differ only in %s; these differ in %s" % (free, ", ".join(differ))
        )


def _shared(values):
    """The common value of a per-row list, else the values as an array."""
    first = values[0]
    return first if all(value == first for value in values) else np.array(values, dtype=float)


def _col(values):
    """Per-group values as a (groups, 1, 1) column; a shared scalar passes through."""
    return values[:, None, None] if np.ndim(values) else values


def _at(values, g: int):
    """Group g's value of a shared scalar or a per-group array."""
    return float(values[g]) if np.ndim(values) else values


def _rotation(rate, span):
    """exp(-i rate span): np.exp for a per-row rate column, else cmath
    (a column of per-group spans gives a column of the same shape)."""
    if np.ndim(rate):
        return np.exp(-1j * rate * span)
    if np.ndim(span) == 0:
        return cmath.exp(-1j * rate * span)
    return np.array([cmath.exp(-1j * rate * s) for s in span.ravel().tolist()]).reshape(span.shape)


def _steps_by_row(samples) -> np.ndarray:
    """Per-step samples (shared scalars, or one value per group) as (groups, steps)."""
    a = np.asarray(samples)
    return a.reshape(1, -1) if a.ndim == 1 else a.T


def _row(values: np.ndarray, r: int) -> np.ndarray:
    """Entry r along axis 0 of an array whose single entry may stand for all."""
    return values[min(r, len(values) - 1)]


def _step_buffers(sigma: np.ndarray, grid: Grid1D):
    """A spare state and two medium-shaped buffers for states shaped like sigma."""
    medium = sigma[..., grid.medium].shape
    return np.empty_like(sigma), (np.empty(medium, dtype=complex), np.empty(medium, dtype=complex))


class _Trace(NamedTuple):
    """A recorded phase: each driven boundary's time (a scalar, or one per
    group) and solver-frame exit field, (groups, rows), and the end state."""

    times: list
    exits: list
    end: np.ndarray


def _drive_cycle(
    param_rows: Sequence[PhysicalParams],
    protocols: Sequence[StorageProtocol],
    signal: SignalSpec,
    grid: Grid1D,
    *,
    rabi,
    profile: np.ndarray | None = None,
    record: tuple[str, ...],
    transverse=None,
    diffusion_phases: tuple[str, ...] = _PHASES,
    sigma_times,
    steps_per_width: float,
):
    """Run the write / hold / read phases of _cycle_plan on a (groups, rows, n_z) state.

    param_rows and protocols are the call's checked rows (_rows_of), one
    group per protocol, and every field of param_rows but the diffusivity
    is shared.  A group has one row, or one per entry of profile, an
    (n_rows, 1) column of transverse weights; the state fans out from one
    shared group to each span's group count.  rabi (scalar or (n_rows, 1)
    column) sets the coupling and light-shift residual.  An input sample s
    of signal enters at the entrance face as face_phase * s, times profile
    when one is given.  The input is sampled once at each write boundary,
    which serves the exit field there and the next step's start, and once
    at each step's midpoint.  A span with a diffusivity diffuses along z
    and across rows by transverse(dt0), one operator per call, whose
    propagate(sigma, step, halves) applies halves half-steps of a piece's
    step: an undriven piece takes two at its end, and a read inside a
    piece applies the owed half to the (groups, rows, 1) medium integral
    instead of the state.
    A call that records no phase keeps only frames, so it runs the plan
    with read False, which ends at the last frame.
    Without a profile (1D) every row shares one constant generator over a
    driven piece, and a driven step is exact for it (_Propagators); with
    one (real space) the drive steps by advance_step's midpoint rule.

    Steps write into the driver's buffers (module docstring), made afresh
    when the state fans out.

    Returns (traces, injected, guards, takers): a _Trace per phase in
    record, the write boundary times with the input sample injected at
    each, and per group its guard ratios (of the phases run) and its
    _FrameTaker.
    """
    dt0, plan = _cycle_plan(
        param_rows,
        protocols,
        signal,
        diffusion_phases=diffusion_phases,
        steps_per_width=steps_per_width,
        cut_times=sigma_times,
        read=bool(record),
    )
    params = param_rows[0]
    face_phase = params.face_phase
    coupling = params.coupling_g * rabi / params.detuning
    residuals = stark_residual(params, rabi), stark_residual(params, 0.0 * rabi)
    n_groups = len(protocols)
    takers = [_FrameTaker(g, sigma_times) for g in range(n_groups)]
    want_frames = bool(takers[0].pending)
    sigma = np.zeros((1, 1 if profile is None else len(profile), grid.n_z), dtype=complex)
    spare, media = _step_buffers(sigma, grid)
    density, light_speed = params.density, params.light_speed
    traces, injected = {}, ([], [])  # injected: write boundary times, input samples

    def entrance(t, boundary: bool):
        """The entrance-face field at write time t; a boundary keeps its sample."""
        s = complex(sample_temporal(signal, t))
        if boundary:
            injected[0].append(t)
            injected[1].append(s)
        return face_phase * s if profile is None else face_phase * s * profile

    def observe(t, fin, trace, kern=None, spec=None, across=None, step=0.0, halves=0):
        """Keep the exit field at boundary t in trace (None: not read there) and
        take the snapshots due.  Without kern the state sigma has settled; with
        it t is inside a piece, and sigma owes its after half along z (spec, its
        spectrum) and halves transverse halves of step (across None: none)."""
        if trace is not None:
            integral = (
                _integral(sigma, grid) if kern is None else kern.integral(sigma, spec, grid, spare)
            )
            if across is not None:
                integral = across.propagate(integral, step, halves)
            trace[0].append(t)
            field = _field(integral, coupling, density, light_speed, fin)
            trace[1].append(field[..., 0].copy())  # a copy: a view keeps its base alive
        if want_frames and any(taker.due(t) for taker in takers):
            frame = sigma
            if kern is not None:  # from copies: the state goes on unsettled
                frame = kern.resume(sigma.copy(), None if spec is None else spec.copy(), kern.after)
            if across is not None:
                frame = across.propagate(frame, step, halves)
            for taker in takers:
                taker.take(t, frame)

    radial = None if transverse is None else transverse(dt0)
    drives = None  # real space: the midpoint rule
    if profile is None:
        drives = _Propagators(grid, coupling, density, light_speed, residuals[0])
    peaks, guards = [0.0] * n_groups, [{} for _ in range(n_groups)]
    for phase, spans in plan:
        writing = phase == "write"
        trace = ([], []) if phase in record else None  # boundary times, exit fields
        for span_start, length, eta, drive_on, diffusivity, groups, pieces in spans:
            residual = residuals[0] if drive_on else residuals[1]
            across = radial if np.any(diffusivity) else None
            if len(sigma) < groups:
                sigma = np.repeat(sigma, groups, axis=0)  # the groups part ways here
                spare, media = _step_buffers(sigma, grid)
            read_by = trace if drive_on else None
            fin = entrance(span_start, True) if writing else 0.0j
            observe(span_start, fin, read_by)
            for start, piece, n_steps in pieces:
                step = piece / n_steps
                drift = 0.0 if drive_on else eta
                kern = StepKernels.build(
                    grid,
                    _col(step),
                    eta,
                    residual,
                    _col(diffusivity),
                    params.k_matched,
                    drift,
                    drives(step, eta, writing) if drives is not None and drive_on else None,
                )
                # every boundary takes the spectrum of the state once: the next step
                # starts from ifft(spec * full), and only the piece end settles
                spec, kernel, owed_t = kern.spectrum(sigma), kern.before, 0  # owed_t: halves
                t = start
                for j in range(n_steps):
                    sigma = kern.resume(sigma, spec, kernel)
                    owed_t += 1
                    if across is not None and drive_on:  # the drive tells the rows apart
                        sigma, spare = across.propagate(sigma, step, owed_t, spare), sigma
                        owed_t = 0
                    t_next = start + (j + 1) * step
                    fin_next = entrance(t_next, True) if writing else 0.0j
                    sigma, spare = advance_step(
                        sigma,
                        kern,
                        grid,
                        coupling_eff=coupling,
                        fin_now=fin,
                        fin_mid=entrance(t + 0.5 * step, False) if writing else 0.0j,
                        drive_on=drive_on,
                        density=density,
                        light_speed=light_speed,
                        out=spare,
                        scratch=media,
                        fin_next=fin_next,
                    ), sigma
                    owed_t += 1
                    t, fin = t_next, fin_next
                    spec, kernel = kern.spectrum(sigma), kern.full
                    if j < n_steps - 1:
                        observe(t, fin, read_by, kern, spec, across, step, owed_t)
                sigma = kern.resume(sigma, spec, kern.after)
                if across is not None:
                    sigma, spare = across.propagate(sigma, step, owed_t, spare), sigma
                observe(t, fin, read_by)
        for g in range(n_groups):
            view = _row(sigma, g)
            peaks[g] = max(peaks[g], float(np.max(np.abs(view))))
            guards[g][phase] = _check_guard(view, grid, phase, peaks[g])
        if trace is not None:
            traces[phase] = _Trace(*trace, sigma.copy())  # a copy: later steps reuse the buffer
    return traces, injected, guards, takers


def run_cycle(
    params: PhysicalParams | Sequence[PhysicalParams],
    protocol: StorageProtocol | Sequence[StorageProtocol],
    signal: SignalSpec,
    *,
    n_medium: int = 256,
    steps_per_width: float = 8.0,
    diffusion_phases: tuple[str, ...] = _PHASES,
    sigma_times=(),
) -> CycleRecord | list[CycleRecord]:
    """Integrate one full write / hold / read cycle and record it.

    The write phase covers [-t_write, 0] with the input envelope injected
    at the entrance face, the hold [0, t_hold] (gradient and control per
    the protocol), and the read [t_hold, t_hold + t_write] with the
    gradient reversed; t_write is the protocol's write window.  The base
    step is t_width / steps_per_width.  The drive is exact in time, so
    steps_per_width sets how densely the fields are sampled (and the
    Strang diffusion split), not the drive's accuracy: from 6 per width on
    the efficiency holds to 5e-6.  diffusion_phases restricts which
    phases see the diffusion operator, which isolates per-phase decay (the
    collapse sweeps use it); physical runs keep all three.  sigma_times
    requests coherence frames (CycleRecord.sigma_frames) at scalar times,
    each taken at its time; a spin-wave spectrum is spinwave_spectrum of a
    frame.

    Batched rows: params and protocol may each be a sequence (a single
    value serves every row), and a list of records comes back in row
    order; a single PhysicalParams with a single StorageProtocol returns
    one CycleRecord.  Each row is a group of the driver's state.  Rows may
    differ only in diffusivity, and rows may differ in t_hold whenever the
    hold is undriven and takes no snapshot (after it, only on every row's
    step boundaries); any other difference raises ParameterError.  A span
    whose operator every row shares, such as a write with diffusion off, is
    solved once.

    Raises GuardBandError if coherence reaches the outer padding band.
    """
    single = isinstance(params, PhysicalParams) and isinstance(protocol, StorageProtocol)
    param_rows, protocol_rows = _rows_of(params, protocol, signal)
    params = param_rows[0]  # every field but the diffusivity is shared
    face_phase = params.face_phase
    grid = Grid1D.build(params.half_length, n_medium)
    traces, (_, f_in), guards, takers = _drive_cycle(
        param_rows,
        protocol_rows,
        signal,
        grid,
        rabi=params.rabi_control,
        record=_PHASES,
        steps_per_width=steps_per_width,
        diffusion_phases=diffusion_phases,
        sigma_times=sigma_times,
    )

    write, hold, read = (traces[phase] for phase in _PHASES)
    t_write_axis, f_in = np.array(write.times), np.array(f_in)
    # physical-frame exit field per row, as scalar products: numpy's
    # vector complex multiply may fuse multiply-adds and move last bits
    f_trans, f_hold, f_out = (
        _steps_by_row([[face_phase * value for value in e[:, 0]] for e in trace.exits])
        for trace in (write, hold, read)
    )
    t_hold_axis, t_out = _steps_by_row(hold.times), _steps_by_row(read.times)

    stored_scale = params.density / params.light_speed

    records = []
    for r, taker in enumerate(takers):  # a group of one row per record
        row_trans, row_hold, row_out = (_row(f, r) for f in (f_trans, f_hold, f_out))
        row_t_hold, row_t_out = _row(t_hold_axis, r), _row(t_out, r)
        end_write, end_hold, end_read = (_row(trace.end, r)[0] for trace in (write, hold, read))
        records.append(
            CycleRecord(
                params=param_rows[r],
                protocol=protocol_rows[r],
                signal=signal,
                grid=grid,
                t_write=t_write_axis,
                f_in=f_in,
                f_trans=row_trans,
                t_hold=row_t_hold,
                f_hold_leak=row_hold,
                t_out=row_t_out,
                f_out=row_out,
                sigma_end_write=end_write,
                sigma_end_hold=end_hold,
                sigma_end_read=end_read,
                sigma_frames=[(t, frame[0]) for t, frame in taker.sigma_frames],
                input_energy=_energy(f_in, t_write_axis),
                transmitted_energy=_energy(row_trans, t_write_axis),
                output_energy=_energy(row_out, row_t_out),
                hold_leak_energy=_energy(row_hold, row_t_hold),  # 0.0 with no samples
                stored_end_write=stored_scale * _energy(end_write, grid.z),
                stored_end_hold=stored_scale * _energy(end_hold, grid.z),
                stored_end_read=stored_scale * _energy(end_read, grid.z),
                guard_ratio=guards[r],
            )
        )
    return records[0] if single else records
