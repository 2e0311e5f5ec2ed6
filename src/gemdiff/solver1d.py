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
the entrance face).  Over a driven piece each row has one constant
generator, set by its coupling and light-shift residual, and the core
applies its exact propagator (_Propagators, built from five columns of its
exponential once per step and gradient size and per row, and
kept as a column, a Toeplitz symbol and a twist that every row shares), so
the step's only time error is the input's quadratic interpolation over
it: steps_per_width is a sampling rate, not an accuracy setting.  The core
applies it to every row at once as a causal convolution, one FFT pair
(_Drive).  That is the one drive core of every route.  A real-space call
steps rows of its own choosing (transverse._stepped_rows): under a
homogeneous control one per radial mode with diffusion (a row whose
residual carries the mode's decay as its imaginary part) and one row
without it, which the driver maps back onto the columns by a synthesis
matrix (without diffusion, the input profile), and otherwise its radial
columns, coupled by a transverse operator between the drive's steps
under a varying control with diffusion.  The rotation sub-flow is
exact, and phase boundaries land exactly because the step size is
re-fitted to each phase.

One step rule serves both routes: every snapshot time inside a span
ends a piece there, a driven piece steps at no more than dt0 (_steps),
and an undriven piece is one exact step (StepKernels), whatever its
gradient and diffusivity; so every snapshot ends its piece.  A
transverse operator takes each piece's step and owns how it steps it (its
propagate).

The driver applies the diffusion half-steps around the core itself.  At
every step boundary inside a piece it takes the state's spectrum once,
and the next step starts from its inverse transform by the full-step
kernel, followed in real space by one transverse propagation: the two
halves that meet there merge.  Only a piece end settles the owed halves
into the state, and frames are taken from settled states only.  One rule
reads the exit field at every boundary (the driver's observe): a settled
state by its trapezoid integral over the medium, a state inside a piece
without settling it, through the trapezoid functional: the medium
integral of the settled state is spec . (after * ifft(w)), w the
trapezoid weights, and the owed transverse half acts on that (rows, 1)
integral.  With the drive off every column sees the same longitudinal
operator, which commutes with the transverse one, so the transverse
half-steps of an undriven piece are applied at its end in one shot.

All step kernels broadcast over leading axes of sigma, with per-row
couplings and detunings passed as (..., 1) arrays.

A step allocates no state-sized array.  The driver owns two states and
two medium-shaped buffers per cycle (the second as long as the drive's
transform): the spectra are taken and turned back in
place (the out= of numpy.fft, the solver's only dependency), and each
transverse propagation and step core writes into the state that is not
its input.
Whatever leaves the driver is a copy: exit fields, end states and frames.

One driver, _drive_cycle, runs both routes on a (groups, rows, n_z) state
by the step plan of _cycle_plan.  _rows_of checks a call's rows once, the
plan takes their diffusivity, and the driver injects each input sample
times face_phase and each stepped row's input weight (1 for a 1D row).
Each group is a record: a 1D batch is G groups of one row, a real-space
call G groups of its stepped rows, one per protocol.  Per-group values are (G, 1,
1) columns and per-row ones (rows, 1) columns, so both broadcast without
tiling.  The state starts as one shared group and fans out along axis 0 to
each span's group count (_cycle_plan), so a write they all share runs
once.  The harness cost guard sums groups x steps over the same plan, so
it charges what _drive_cycle runs.  Groups may differ in the diffusivity
and, whenever the hold is undriven, in t_hold (the hold splits at each
group's own flip time); any other difference is a ParameterError.

The driver keeps what a route reads (_Trace, and the input injected at
each write boundary), and both routes integrate energies over its times by
the trapezoid rule.  The read runs on a clock of its own, offsets from
t_hold that every group shares, so no long hold rounds them.  The only
snapshots are coherence frames at requested scalar times (sigma_times)
inside the cycle, in the write only for rows that differ in t_hold; a
spin-wave spectrum is spinwave_spectrum of a frame.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.fft import fft, ifft

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

    The medium occupies [-half_length, half_length].  build's grid extends
    beyond it by a padding band of at least PAD_FRACTION of the medium on
    each side, so the periodic spectral diffusion never wraps coherence
    back into the medium; its sizes are powers of two for the FFT.
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
    per group.  rot_full is the gradient rotation times the light-shift
    residual over a step, built once per piece (a residual's imaginary part,
    a mode row's transverse decay, decays the row with it).  before and
    after, the diffusion halves on either side of the core (full = after *
    before, merged at a boundary inside a piece),
    decay the wave by exp(-D int_0^h (kappa -+ drift s)^2 ds), kappa = q +
    k_matched entering or leaving the core.  An undriven step passes its
    gradient as drift and is exact for the continuous operator (on the
    periodic grid, cutting a gradient-on piece moves the state by about
    5e-9); a driven step passes 0, the Strang halves.  Rows with no
    diffusion over the step (D = 0 or a zero-length step) are left out of
    diff_rows (None: every row diffuses) and skip the FFT pair, so they
    match a solve of their own.  probe = after * grid.trapezoid_k reads the
    medium integral of ifft(spec * after) as spec . probe, without forming
    the after half.  propagator is a driven piece's exact propagator with
    its input weights (a _Drive of _Propagators), which advance_step
    applies; None on an undriven piece.
    """

    dt: float | np.ndarray
    rot_full: np.ndarray
    before: np.ndarray | None
    after: np.ndarray | None
    full: np.ndarray | None
    probe: np.ndarray | None
    diff_rows: np.ndarray | None = None
    propagator: _Drive | None = None

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
        propagator: _Drive | None = None,
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
            rot_full=np.exp(-1j * eta * grid.z * dt) * np.exp(-1j * residual * dt),
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
        return fft(rows, axis=-1, out=rows)

    def resume(self, sigma: np.ndarray, spec: np.ndarray | None, kernel) -> np.ndarray:
        """sigma with its diffusing rows replaced by ifft(spec * kernel), kernel
        one of before, after and full, in place: spec is consumed, and the
        result lives in spec's memory when every row diffuses, else in sigma."""
        if spec is None:
            return sigma
        spec *= kernel
        if self.diff_rows is None:
            return ifft(spec, axis=-1, out=spec)
        sigma[self.diff_rows] = ifft(spec, axis=-1, out=spec)
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
    fin_now,
    fin_mid,
    fin_next=0.0j,
    drive_on: bool,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The core of one split step: gradient rotation, light shift and drive.

    The drive acts on the medium only, so the padding gets the rotation
    alone and the drive runs on sigma[..., grid.medium].  With the drive
    off the step is a pure (exact) rotation.  The exact diffusion
    half-steps around the core are the caller's (_drive_cycle).

    A driven step is exact for each row's constant generator, by the
    piece's propagator in kern (a _Drive of _Propagators): each row x of
    the medium becomes P(dt) x + w_now fin_now + w_mid fin_mid + w_next
    fin_next, with the row's own P and weights, the input quadratic
    through its three samples (its only time error), and no weights is no
    input.  P x is a causal convolution (_Drive.apply): one batched FFT,
    symbol product and inverse FFT serve every row of every group, and a
    row's transform takes the same bits in any batch.

    The new state goes into out (sigma's shape, not sharing its memory)
    when given, else into a new array; sigma is never written.  The drive
    runs in the two buffers of scratch (new ones when None): the first,
    shaped like sigma[..., medium], takes a contiguous copy of the medium
    and then P x, the second, as long as the drive's transform along the
    last axis, its zero-padded transform, so no ufunc reads a strided
    medium view (numpy would buffer it).  The ufunc buffers _Drive.apply
    still takes cost allocations, not time: without the copy (the drive
    reading sigma's medium and writing out's) beam-width's Gaussian call
    ran no faster, nor with a quarter of numpy's buffer size.
    """
    out = np.multiply(kern.rot_full, sigma, out=out)
    if not drive_on:
        return out
    drive = kern.propagator
    if scratch is None:
        scratch = _media(sigma, grid, drive.symbol.shape[-1])
    inside, padded = scratch
    np.copyto(inside, sigma[..., grid.medium])
    drive.apply(inside, padded)
    if drive.weights is not None:
        for weight, fin in zip(drive.weights, (fin_now, fin_mid, fin_next)):
            inside += weight * fin
    out[..., grid.medium] = inside
    return out


class _Propagators:
    """The exact propagators of the driven medium's rows, built once per step and gradient.

    Over a driven piece each row has one constant generator on the
    medium, L = diag(-i (eta z + residual)) - kappa S, kappa = g^2 N dz /
    (2 c) with g the row's coupling, residual its light-shift residual (a
    1D call's one row's, as a homogeneous real-space call's one row
    without diffusion; a radial column's own under a Gaussian control;
    under a homogeneous one with diffusion, a radial mode's, whose
    imaginary part is minus its transverse decay rate), and S the running
    sum of slave_field as a matrix: lower triangular, since the field at z
    sees only upstream coherence.  The input enters every cell as i g f(t).  Over a step of h
    the state becomes P(h) sigma + int_0^h P(h - s) (i g) 1 f(t + s) ds,
    P = expm(L h).  With f quadratic through its samples at the step's
    start, midpoint and end the integral is exact: w_now f(t) + w_mid
    f(t + h/2) + w_next f(t + h), the weights i g h (phi1 - 3 phi2 + 4
    phi3, 4 phi2 - 8 phi3, 4 phi3 - phi2)(L h) 1 (phi_k the exponential
    integrator's functions, Hochbruck and Ostermann, Acta Numerica 19, 209,
    2010).  They are columns of the same exponential as P: of L h bordered
    by the input column (1/n per cell, balanced against the shift) and a
    3 x 3 shift (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488, 2011),
    whose border columns are phi1, phi2 and phi3.  The input's
    interpolation is the step's only error.  A single midpoint sample, dt
    P(dt/2) (i g) 1 f_mid, would be as good for the stored wave but not for
    the exit field during the write: a near cancellation of the input and
    the medium's response, it would carry the step's aliased input
    (measured at 8 steps per width: 0.46 of the input energy transmitted,
    against 3e-9 with these weights).

    P is fixed by its columns 0 and 1.  Past index 0, S is Toeplitz (1 on
    the diagonal, 2 below it: the running sum counts an inner point twice),
    and z is uniform, so on indices j >= 1 the diagonal of L h steps by the
    same -i eta h dz from one cell to the next: the block of L h from index
    2 on is the block from index 1 on, less its last row and column, plus
    -i eta h dz times the identity.  A leading or trailing principal block
    of the exponential of a lower-triangular matrix is the exponential of
    that block, so P[j+1, k+1] = omega P[j, k] for j, k >= 1, omega =
    exp(-i eta h dz): P[j, k] = c[j-k] tau[k-1], c = P[1:, 1] and the
    twist tau[k-1] = exp(-i eta h (z_k - z_1)), a Toeplitz matrix twisted
    column by column.  So P x = x_0 P[:, 0] + [0; T (tau x[1:])], T the
    lower-triangular Toeplitz matrix of c: a causal convolution, which an
    FFT pair applies to every row at once, at the least 11-smooth length of
    at least 2 n - 3 (_next_fast_len; Golub and Van Loan, Matrix
    Computations, section 4.7).

    _build takes five columns of the bordered exponential, P's columns 0
    and 1 and the three border columns, by scaling and squaring on
    columns.  A truncated Taylor series of the bordered generator over 2^s
    acts on five unit vectors, each product O(n): a running sum, the
    diagonal, the border.  Then each of s squarings assembles the half
    step's P from its two columns and takes the five columns of the square:
    P c for P's, P C + C B for the border's C (B the border block, the
    shift's exponential).  s and the term count come from the generator's
    1-norm (_terms), so the cost grows with log ||L h||.  The exponential
    of a triangular matrix has the exponentials of its diagonal on its
    diagonal, and each squaring resets P[0, 0] and P[1, 1] to them (Al-Mohy
    and Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009): unreset, they
    carry the squarings' round-off into every entry (measured at 1000
    sweep steps against a 40-digit reference: 0.6 to 1.9e-13 of the
    largest entry, against 0.03 to 0.6e-13).  The squarings apply the
    half step's P by one dense matrix product with its assembled Toeplitz
    block (triangular, its zeros multiplied explicitly), not by the FFT
    product of a step: at 1000 sweep steps without a gradient the FFT
    product there took column 0 and the weights to 1.1e-13 of scipy's
    expm, against 9.3e-14 and 8.7e-14 with a triangular product, and s
    squarings compound each product's error where a step makes one.  A
    build costs O(n) per Taylor term and one assembly and
    n^2 product per squaring (the product 0.27 ms at 385 medium points on
    one Xeon core, against 0.17 ms for a BLAS triangular product; a sweep
    build takes 0 to 2 squarings), and keeps O(n): P's column 0, the FFT
    of c and the twist (_Drive).

    coupling and residual are (rows, 1) columns, broadcast against each
    other (a scalar is one row), kept as keys, one (coupling, residual)
    pair per row.  Every row takes one build, stacked: column (rows, n),
    symbol (rows, length) and three (rows, n) weights, with one twist for
    every row (it depends on h and eta only).  A 1D call steps one row, and
    a real-space call the rows of transverse._stepped_rows.  The rows
    whose norms give the same (s, terms) run the Taylor series together
    (_taylor), in batches of _TAYLOR_ROWS, by the products each row takes
    alone, so each keeps its single-row bits; each row then squares alone
    (_square), whose n^2 products gain nothing from a batch (a Gaussian
    control's 128 columns at 193 medium points take s = 0 and 18 to 25
    terms: 38-44 ms a build, against 82-85 ms row by row, one Xeon core).
    The residual does not factor out as a per-row phase: P(h) is exp(-i
    residual h) times the residual-free P, but the weights are
    phi-functions of (L + residual) h.

    Calling with (h, eta, inject) returns the _Drive of advance_step,
    with weights (w_now, w_mid, w_next), or None when inject is False (no
    input over the piece).  One build per distinct step and gradient size:
    the opposite gradient at the same step without input (the read, the
    second half of a flipped hold) is the conjugate, P_{-eta}(h) = rot
    conj(P_eta(h)), rot = exp(-2 i Re(residual) h) (per row; a decay is
    its own conjugate): rot conj(P[:, 0]), rot conj(c), whose FFT is rot
    conj(FFT(c)) at the negated frequencies, and conj(tau).  Steps that
    agree to 1e-12 (equal pieces between snapshots, which differ in
    round-off only) share one entry.
    """

    def __init__(self, grid: Grid1D, coupling, density: float, light_speed: float, residual):
        self.z = grid.z[grid.medium]
        self.density, self.dz, self.light_speed = density, grid.dz, light_speed
        self.length = _next_fast_len(2 * self.z.size - 3)  # the drive's transform length
        self.known: list[tuple[float, float, _Drive]] = []  # (h, eta, drive)
        # one (coupling, residual) pair per row, each built straight into the stack
        self.keys = np.stack(np.broadcast_arrays(coupling, residual), axis=-1).reshape(-1, 2)
        self.residual = self.keys[:, 1:]  # a complex residual makes the pairs complex

    def __call__(self, h: float, eta: float, inject: bool) -> _Drive:
        h = float(h)
        near = [e for e in self.known if abs(e[0] - h) <= 1e-12 * h and abs(e[1]) == abs(eta)]
        same = [e for e in near if e[1] == eta and (e[2].weights is not None or not inject)]
        if same:
            return same[0][2]
        if near and not inject:  # the opposite gradient: the conjugate identity
            drive, rot = near[0][2], np.exp(-1j * (2.0 * self.residual.real) * h)
            symbol = np.roll(drive.symbol[..., ::-1], 1, axis=-1)  # FFT(c) at -m mod length
            column = drive.column.conj()
            for part in (column, np.conjugate(symbol, out=symbol)):  # in place: no temporaries
                np.multiply(rot, part, out=part)  # rot * part: fused multiply-adds see order
            entry = (h, eta, _Drive(column, symbol, drive.twist.conj(), None))
        else:
            entry = (h, eta, self._build(h, eta))
        self.known.append(entry)
        return entry[2]

    def drop_inputs(self) -> None:
        """Free every entry's input weights: no later step takes input."""
        self.known = [(h, eta, drive._replace(weights=None)) for h, eta, drive in self.known]

    def _build(self, h: float, eta: float) -> _Drive:
        """P(h) and its input weights of every row of keys, stacked.

        The rows that share their (s, terms) take the Taylor phase together
        (_taylor), and each row then squares alone (_square).
        """
        z, keys = self.z, self.keys
        k, n = len(keys), z.size
        # the bordered generator's 1-norm: medium column j holds |L[j, j]| h and kappa
        # h times S's column below the diagonal, n - 1 ones at j = 0, else n - 1 - j
        # twos; the input column (1/n per cell) and the shift's each sum to 1
        below = 2.0 * np.arange(n - 1, -1, -1.0)
        below[0] = n - 1
        with np.errstate(over="ignore", invalid="ignore"):  # a norm out of range is refused
            coupling = keys[:, :1].real
            kappa = coupling * coupling * self.density * self.dz / (2.0 * self.light_speed)
            rate = -1j * (eta * z + keys[:, 1:])  # L's diagonal but for kappa S's
            diagonal = rate - kappa * (np.arange(n) > 0)  # S's diagonal: 0 at index 0, else 1
            norms = np.max((np.abs(diagonal) + below * kappa) * h, axis=-1)
        heads = diagonal[:, :2].copy()  # all _square reads: the batches rebuild their rates
        del rate, diagonal
        norm = float(np.max(norms))
        if not math.isfinite(norm):
            raise ParameterError(
                "the driven medium's generator is not finite over a step (1-norm %s): "
                "density, half_length or light_speed is out of range" % norm
            )
        plans = [_terms(max(value, 1.0)) for value in norms.tolist()]
        column = np.empty((k, n), dtype=complex)
        symbol = np.empty((k, self.length), dtype=complex)
        weights = np.empty((3, k, n), dtype=complex)
        couplings = coupling[:, 0].tolist()
        for s, n_terms in sorted(set(plans)):
            alike = [r for r, plan in enumerate(plans) if plan == (s, n_terms)]
            for first in range(0, len(alike), _TAYLOR_ROWS):
                rows = alike[first : first + _TAYLOR_ROWS]
                rate = -1j * (eta * z + keys[rows, 1:])
                meds, borders = self._taylor(h, s, n_terms, kappa[rows, None], rate[:, None])
                for r, med, border in zip(rows, meds, borders):
                    med, twist = self._square(h, eta, s, heads[r], med, border)
                    phi1, phi2, phi3 = (n * h * 1j * couplings[r]) * med[2:]
                    weights[:, r] = (
                        phi1 - 3.0 * phi2 + 4.0 * phi3,
                        4.0 * phi2 - 8.0 * phi3,
                        4.0 * phi3 - phi2,
                    )
                    column[r], symbol[r] = med[0], fft(med[1, 1:], n=self.length)
        return _Drive(column, symbol, twist, tuple(weights))

    def _taylor(self, h: float, s: int, n_terms: int, kappa, rate):
        """Five columns of exp(G / 2^s) for a batch of rows that share s and the
        term count, G a row's bordered generator over the step h: the
        truncated Taylor series on five unit vectors, each product O(n) (a
        running sum, the diagonal, the border).  kappa is a (rows, 1, 1)
        column and rate a (rows, 1, n) one, so each row takes the very
        products it takes alone, and keeps its single-row bits.  Returns the
        columns as (rows, 5, n) medium parts and (rows, 5, 3) border parts
        (input, the shift's middle, its last), in the order P's columns 0
        and 1, then the border's."""
        m, n = len(rate), self.z.size
        scale = 0.5**s
        hs = h * scale
        med = np.zeros((m, 5, n), dtype=complex)
        border = np.zeros((m, 5, 3), dtype=complex)
        med[:, 0, 0] = med[:, 1, 1] = 1.0
        border[:, 2:] = np.eye(3)
        term_med, term_border = med.copy(), border.copy()
        spare, product = np.empty_like(med), np.empty_like(med)
        spin, sum_rate = hs * rate, -kappa * hs
        for k in range(1, n_terms + 1):  # term k = (G / 2^s) (term k - 1) / k
            nxt = slave_field(term_med, sum_rate / k, None, out=spare)
            nxt += np.multiply(term_med, spin / k, out=product)
            nxt += term_border[..., :1] * (scale / (n * k))  # the input column
            term_border[..., :2] = term_border[..., 1:] * (scale / k)  # the shift
            term_border[..., 2] = 0.0
            spare, term_med = term_med, nxt
            med += term_med
            border += term_border
        return med, border

    def _square(self, h, eta, s, heads, med, border):
        """(med, twist): one row's Taylor columns (_taylor) taken to the step h
        by s squarings, and the twist (every row's: it depends on h and eta
        only).  heads is the generator's diagonal at indices 0 and 1."""
        z, n, hs = self.z, self.z.size, h * 0.5**s
        offsets = z[1:] - z[1]
        if s:
            toeplitz = np.empty((n - 1, n - 1), dtype=complex)
            padded = np.zeros(2 * n - 3, dtype=complex)
            # windows[b, a] = padded[n - 2 - b + a]: P[a - b + 1, 1] for a >= b, else 0
            windows = np.lib.stride_tricks.sliding_window_view(padded, n - 1)[::-1]
        for level in range(s + 1):
            span = hs * 2.0**level
            med[0, 0], med[1, 1] = np.exp(span * heads)
            twist = np.exp((-1j * eta * span) * offsets)
            if level == s:
                break
            # E x for each column x: C x_border + x_0 P[:, 0] plus, past index
            # 0, the Toeplitz block on the twisted x, one matrix product
            padded[n - 2 :] = med[1, 1:]
            np.copyto(toeplitz, windows)
            tail = (med[:, 1:] * twist) @ toeplitz
            squared = border @ med[2:]
            squared += med[:, :1] * med[0]
            squared[:, 1:] += tail
            med, border = squared, border @ border[2:]
        return med, twist


class _Drive(NamedTuple):
    """One driven step's exact propagator P(h) and input weights (_Propagators).

    P is kept in O(n) per row: its column 0, the FFT of c = P[1:, 1] at the
    transform length, zero-padded past c, and the twist tau; past index 0,
    P[j, k] = c[j-k] tau[k-1].  weights is (w_now, w_mid, w_next), or None
    for no input.  column, symbol and each weight are stacked (rows, ...),
    one row per stepped row of the state (a 1D call's one row included);
    tau is every row's.
    """

    column: np.ndarray
    symbol: np.ndarray
    twist: np.ndarray
    weights: tuple | None

    def apply(self, rows: np.ndarray, padded: np.ndarray) -> np.ndarray:
        """P x for each row x along the last axis of rows, in place, returned.

        padded, rows' shape but the transform length along the last axis,
        holds the twisted rows zero-padded and their spectrum.  The
        product's first n - 1 entries are the linear convolution's: the
        length is at least 2 n - 3, so the cyclic product wraps past them.
        """
        n = rows.shape[-1]
        np.multiply(rows[..., 1:], self.twist, out=padded[..., : n - 1])
        padded[..., n - 1 :] = 0.0
        spec = fft(padded, axis=-1, out=padded)
        spec *= self.symbol
        tail = ifft(spec, axis=-1, out=spec)[..., : n - 1]
        # x_0 times the whole column in one pass per row: a separate pass over
        # the (..., 1) heads may take other bits from a batch than from one row
        np.multiply(rows[..., :1].copy(), self.column, out=rows)
        rows[..., 1:] += tail
        return rows


def _next_fast_len(target: int) -> int:
    """The least 11-smooth integer >= target: the FFT lengths pocketfft takes
    fastest (scipy.fft.next_fast_len's, for complex transforms)."""
    length = max(target, 1)
    while True:
        rest = length
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return length
        length += 1


# rows per batch of _Propagators._taylor: one (rows, 5, n) term array stays in
# cache.  A Gaussian control's 128-row build at 193 medium points took 85 ms
# row by row, 51 ms in one batch, 45 / 38-41 / 43 / 46-48 ms in batches of 8 / 16
# / 32 / 64 rows (best of 5, one Xeon core)
_TAYLOR_ROWS = 16

# the largest 1-norm of the scaled generator a Taylor series takes: at 1000
# sweep steps without a gradient, 1 and 2 (two and one more squarings) left
# P 1.2 to 1.8x further from a 40-digit reference; builds time the same
# from 1 to 8
_THETA = 4.0


def _terms(norm: float) -> tuple[int, int]:
    """(s, terms): the least s that brings norm / 2^s within _THETA, and the
    Taylor terms that reach double precision there.

    At a = norm / 2^s, the series' tail past term q is at most a^(q+1) /
    (q+1)! / (1 - a / (q+2)), and a column of the exponential is at least
    e^-a of its unit vector, so q is the least with e^a times that tail
    within 2^-53.
    """
    s = max(0, math.ceil(math.log2(norm / _THETA)))
    a = norm * 0.5**s
    q, tail = 0, a  # tail: a^(q+1) / (q+1)!
    while q + 2 <= a or math.exp(a) * tail / (1.0 - a / (q + 2)) > 2.0**-53:
        q += 1
        tail *= a / (q + 1)
    return s, q


@dataclass(eq=False)
class CycleRecord:
    """Everything recorded from one write / hold / read cycle.

    Field samples are in the physical frame at the cell faces; coherence
    snapshots (sigma_frames, one (t, sigma) pair per requested time) stay
    in the solver frame (multiply by exp(i k_matched z) via
    to_physical_frame for the lab-frame coherence, or take
    spinwave_spectrum of a frame for |sigma(k)|^2).  The read's samples sit
    at the absolute times t_out and at t_read, their offsets from t_hold,
    over which output_energy is integrated.
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
    t_read: np.ndarray
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
    """Collects every group's coherence frames at the scalar sigma_times, each
    at the first settled boundary t that reaches it on its phase's clock,
    whose origin is 0 but in the read.  The plan ends a piece at every
    snapshot time (_cycle_plan), to round-off, so a frame keeps its time."""

    def __init__(self, sigma_times):
        self.pending = sorted(float(t) for t in sigma_times)
        self.sigma_frames: list[tuple[float, np.ndarray]] = []

    def due(self, t, origin) -> bool:
        """Whether a snapshot falls due at boundary t."""
        return bool(self.pending) and self.pending[0] - origin <= t + _slack(t)

    def take(self, t, frame: np.ndarray, origin) -> None:
        while self.due(t, origin):
            self.sigma_frames.append((self.pending.pop(0), frame))


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
    """The boundaries the times make strictly inside (t0, t1), sorted: ends
    excluded to round-off, and a time within _slack of the last kept one
    merged into it, so times that differ by round-off make one boundary."""
    eps = 1e-12 * max(1.0, abs(t0), abs(t1))
    kept: list[float] = []
    for t in sorted({float(t) for t in times}):
        if t0 + eps < t < t1 - eps and not (kept and t - kept[-1] <= _slack(kept[-1])):
            kept.append(t)
    return kept


def _cycle_plan(
    param_rows: Sequence[PhysicalParams],
    protocols: Sequence[StorageProtocol],
    signal: SignalSpec,
    *,
    diffusion_phases: tuple[str, ...] = _PHASES,
    steps_per_width: float,
    cut_times=(),
) -> tuple[float, list[tuple[str, list[tuple]]], float | np.ndarray]:
    """The step plan of one cycle: the driver runs it, the cost guard sums it.

    param_rows and protocols are the call's rows (_rows_of), one per group;
    the groups' diffusivity is the rows' (a scalar when they share it, else
    one value per group) and acts in the diffusion_phases only.  The base
    step is dt0 = t_width / steps_per_width, and the read window is as long
    as the write window.
    Returns dt0, per phase its constant-operator spans (start, length,
    eta, drive_on, diffusivity, groups, pieces), each run as pieces (start,
    length, n_steps) on groups groups: 1 up to the first span with a
    per-group length or diffusivity, where the groups part ways, and all of
    them from there on, and the read's origin, t_hold.  Values the groups
    differ in are per-group arrays.  The read runs from 0 on its origin's
    clock, so every group shares its boundaries.
    Every span is cut at the cut_times strictly inside it (_inside: times
    within _slack of each other make one cut), and a piece runs from one
    boundary to the next, (a, b - a, n).  A driven piece takes n =
    _steps(b - a, dt0) steps; an undriven one is exact at any step size,
    whatever its gradient and diffusivity, and takes one.  A cut time is
    one scalar time inside the cycle, to _slack, and in the write (t <= 0)
    when the groups differ in t_hold.  A gradient-on hold splits into two
    spans at each group's flip time.
    A plan whose last time is too large for double precision to resolve
    dt0 there (its spacing, math.ulp, exceeds dt0) is refused: the read
    times t_hold + offset and the snapshot times would collapse.
    """
    for name in diffusion_phases:
        if name not in _PHASES:
            raise ParameterError("unknown diffusion phase %r" % (name,))
    if steps_per_width <= 0.0:
        raise ParameterError("steps_per_width must be positive")
    if any(np.ndim(t) for t in cut_times):
        raise ParameterError("a snapshot time is one scalar time shared by every row")
    protocol = protocols[0]  # every field but t_hold is shared
    diffs = _shared([p.diffusivity for p in param_rows])
    dt0 = signal.t_width / steps_per_width
    t_window = protocol.write_window(signal)
    holds = _shared([p.t_hold for p in protocols])
    flips = _shared([p.flip_time() for p in protocols])
    late = cut_times  # the cut times after the write
    if np.ndim(holds):
        if protocol.control_on_hold:
            raise ParameterError("rows may differ in t_hold only when the hold is undriven")
        if any(t > _slack(0.0) for t in cut_times):
            raise ParameterError("rows that differ in t_hold take snapshots in the write only")
        late = ()
    slack = _slack(t_window)
    for t in cut_times:
        if t < -t_window - slack or np.any(t - holds > t_window + slack):
            raise ParameterError("snapshot time %.6g s is not inside the cycle" % t)
    groups = 1  # raised by span() where the groups part ways: build spans in time order

    def span(phase, start, length, eta, drive_on, cuts):
        nonlocal groups
        diffusivity = diffs if phase in diffusion_phases else 0.0
        if np.ndim(length) or np.ndim(diffusivity):
            groups = len(protocols)
        # a per-group span takes no cut (checked above)
        inside = _inside(cuts, start, start + length) if len(cuts) else []
        ends = zip([start, *inside], [*inside, start + length])
        pieces = [(a, b - a, _steps(b - a, dt0) if drive_on else 1) for a, b in ends]
        return start, length, eta, drive_on, diffusivity, groups, pieces

    write = [span("write", -t_window, t_window, protocol.eta_write, True, cut_times)]
    parts = []
    if np.any(np.greater(holds, 0.0)):
        eta = protocol.eta_hold
        parts = [(0.0, flips, eta), (flips, holds - flips, -eta)] if eta else [(0.0, holds, 0.0)]
    hold = [
        span("hold", start, length, eta, protocol.control_on_hold, late)
        for start, length, eta in parts
        if not np.all(np.less_equal(length, 0.0))
    ]
    read_cuts = [t - holds for t in late]  # on the read's clock
    read = [span("read", 0.0, t_window, -protocol.eta_write, True, read_cuts)]
    t_last = float(np.max(holds)) + t_window
    if math.ulp(t_last) > dt0:
        raise ParameterError(
            "the cycle ends at t = %.3g s, where double precision spaces times %.3g s "
            "apart, more than the base step t_width / steps_per_width = %.3g s: its "
            "read times are not resolved; shorten t_hold" % (t_last, math.ulp(t_last), dt0)
        )
    return dt0, [("write", write), ("hold", hold), ("read", read)], holds


def _steps(length: float, dt0: float) -> int:
    """The steps of at most dt0 that cover length, counted to round-off: a
    length a hair over a whole number of dt0 takes that number, not one more."""
    return max(1, math.ceil(length / dt0 * (1.0 - 1e-12)))


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


def _steps_by_row(samples) -> np.ndarray:
    """Per-step samples, one value per group, as (groups, steps); none is one empty row."""
    a = np.asarray(samples)
    return a.reshape(1, -1) if a.ndim == 1 else a.T


def _row(values: np.ndarray, r: int) -> np.ndarray:
    """Entry r along axis 0 of an array whose single entry may stand for all."""
    return values[min(r, len(values) - 1)]


def _step_buffers(sigma: np.ndarray, grid: Grid1D, width: int):
    """A spare state and advance_step's two buffers (_media) for states shaped like sigma."""
    return np.empty_like(sigma), _media(sigma, grid, width)


def _media(sigma: np.ndarray, grid: Grid1D, width: int):
    """Two buffers shaped like sigma[..., grid.medium], the second width (a
    drive's transform length) wide along the last axis."""
    medium = sigma[..., grid.medium].shape
    return np.empty(medium, dtype=complex), np.empty((*medium[:-1], width), dtype=complex)


class _Trace(NamedTuple):
    """A recorded phase: each driven boundary's time on the phase's clock
    (the read's an offset from its origin) and solver-frame exit field,
    (groups, rows), and the end state."""

    times: list
    exits: list
    end: np.ndarray


def _as_rows(stepped: np.ndarray, synthesis) -> np.ndarray:
    """A (groups, stepped rows, ...) array on the call's rows: synthesis @ stepped."""
    return stepped if synthesis is None else np.matmul(synthesis, stepped)


def _drive_cycle(
    param_rows: Sequence[PhysicalParams],
    protocols: Sequence[StorageProtocol],
    signal: SignalSpec,
    grid: Grid1D,
    *,
    rabi,
    decay=None,
    profile: np.ndarray,
    synthesis: np.ndarray | None = None,
    record: tuple[str, ...],
    transverse=None,
    diffusion_phases: tuple[str, ...] = _PHASES,
    sigma_times,
    steps_per_width: float,
):
    """Run the write / hold / read phases of _cycle_plan on a (groups, rows, n_z) state.

    param_rows and protocols are the call's checked rows (_rows_of), one
    group per protocol, and every field of param_rows but the diffusivity
    is shared.  A group has one row per entry of profile, an (n_rows, 1)
    column of input weights (a 1D call's is [[1.0]]); the state fans out
    from one shared group to each span's group count.  rabi, an (n_rows,
    1) column, sets each row's coupling and light-shift residual, and
    decay (an (n_rows, 1) column) a decay rate, minus the residual's
    imaginary part.  An input sample s of signal enters at the entrance
    face as face_phase * s * profile.  The input is sampled
    once at each write boundary, which serves the exit field there and the
    next step's start, and once at each step's midpoint.  Every driven
    step is exact (_Propagators).  A span with a diffusivity diffuses
    along z, and across rows by transverse(dt0) when given, one operator
    per call, whose propagate(sigma, step, halves) applies halves
    half-steps of a piece's step: a driven step takes one on each side of
    its core, an undriven piece two at its end, and a read inside a piece
    applies the owed half to the (groups, rows, 1) medium integral instead
    of the state.  Frames are taken at settled boundaries only, span starts
    and piece ends, where the plan puts every snapshot time.
    The frames, exit fields, phase-end states and guard inputs are
    synthesis @ the stepped rows' (_as_rows; transverse._stepped_rows
    picks a real-space call's rows), or the stepped rows' when it is None.

    Steps write into the driver's buffers (module docstring), made afresh
    when the state fans out.

    Returns (traces, injected, guards, taker): a _Trace per phase in
    record, the write boundary times with the input sample injected at
    each, per group its guard ratios (of the phases run), and the
    _FrameTaker.
    """
    dt0, plan, read_origin = _cycle_plan(
        param_rows,
        protocols,
        signal,
        diffusion_phases=diffusion_phases,
        steps_per_width=steps_per_width,
        cut_times=sigma_times,
    )
    params = param_rows[0]
    face_phase = params.face_phase
    coupling = params.coupling_g * rabi / params.detuning
    residuals = stark_residual(params, rabi), stark_residual(params, 0.0 * rabi)
    if decay is not None:
        residuals = tuple(residual - 1j * decay for residual in residuals)
    n_groups = len(protocols)
    taker = _FrameTaker(sigma_times)
    density, light_speed = params.density, params.light_speed
    drives = _Propagators(grid, coupling, density, light_speed, residuals[0])
    sigma = np.zeros((1, len(profile), grid.n_z), dtype=complex)
    spare, media = _step_buffers(sigma, grid, drives.length)
    traces, injected = {}, ([], [])  # injected: write boundary times, input samples

    def entrance(t, boundary: bool):
        """The entrance-face field at write time t; a boundary keeps its sample."""
        s = complex(sample_temporal(signal, t))
        if boundary:
            injected[0].append(t)
            injected[1].append(s)
        return face_phase * s * profile

    def observe(t, fin, trace, kern=None, spec=None, across=None, step=0.0, halves=0):
        """Keep the exit field at boundary t in trace (None: not read there).
        Without kern the state sigma has settled, and the snapshots due at t
        are taken from it; with it t is inside a piece, where none falls due
        (_cycle_plan), and sigma owes its after half along z (spec, its
        spectrum) and halves transverse halves of step (across None: none)."""
        if trace is not None:
            integral = (
                _integral(sigma, grid) if kern is None else kern.integral(sigma, spec, grid, spare)
            )
            if across is not None:
                integral = across.propagate(integral, step, halves)
            trace[0].append(t)
            field = _as_rows(_field(integral, coupling, density, light_speed, fin), synthesis)
            trace[1].append(field[..., 0].copy())  # a copy: a view keeps its base alive
        if kern is None and taker.due(t, clock):
            taker.take(t, _as_rows(sigma.copy(), synthesis), clock)

    radial = None if transverse is None else transverse(dt0)
    peaks, guards = [0.0] * n_groups, [{} for _ in range(n_groups)]
    for phase, spans in plan:
        writing = phase == "write"
        clock = read_origin if phase == "read" else 0.0
        trace = ([], []) if phase in record else None  # boundary times, exit fields
        for span_start, length, eta, drive_on, diffusivity, groups, pieces in spans:
            residual = residuals[0] if drive_on else residuals[1]
            across = radial if np.any(diffusivity) else None
            if len(sigma) < groups:
                sigma = np.repeat(sigma, groups, axis=0)  # the groups part ways here
                spare, media = _step_buffers(sigma, grid, drives.length)
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
                    drives(step, eta, writing) if drive_on else None,
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
                        fin_now=fin,
                        fin_mid=entrance(t + 0.5 * step, False) if writing else 0.0j,
                        drive_on=drive_on,
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
                del kern, spec  # the next piece's kernels build with these freed
        if writing:
            drives.drop_inputs()  # the write is the only phase with an input
        settled = _as_rows(sigma, synthesis)
        for g in range(n_groups):
            view = _row(settled, g)
            peaks[g] = max(peaks[g], float(np.max(np.abs(view))))
            guards[g][phase] = _check_guard(view, grid, phase, peaks[g])
        if trace is not None:  # a new array: later steps reuse the buffer
            traces[phase] = _Trace(*trace, sigma.copy() if synthesis is None else settled)
    return traces, injected, guards, taker


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
    requests coherence frames (CycleRecord.sigma_frames) at scalar times
    inside the cycle, each taken at its time; a spin-wave spectrum is
    spinwave_spectrum of a frame.

    Batched rows: params and protocol may each be a sequence (a single
    value serves every row), and a list of records comes back in row
    order; a single PhysicalParams with a single StorageProtocol returns
    one CycleRecord.  Each row is a group of the driver's state.  Rows may
    differ only in diffusivity, and in t_hold whenever the hold is undriven
    and the snapshots are in the write; any other difference raises
    ParameterError.  A span whose operator every row shares, such as a
    write with diffusion off, is solved once.

    Raises GuardBandError if coherence reaches the outer padding band.
    """
    single = isinstance(params, PhysicalParams) and isinstance(protocol, StorageProtocol)
    param_rows, protocol_rows = _rows_of(params, protocol, signal)
    params = param_rows[0]  # every field but the diffusivity is shared
    face_phase = params.face_phase
    grid = Grid1D.build(params.half_length, n_medium)
    traces, (_, f_in), guards, taker = _drive_cycle(
        param_rows,
        protocol_rows,
        signal,
        grid,
        rabi=np.array([[params.rabi_control]]),
        profile=np.ones((1, 1)),
        record=_PHASES,
        steps_per_width=steps_per_width,
        diffusion_phases=diffusion_phases,
        sigma_times=sigma_times,
    )

    write, hold, read = (traces[phase] for phase in _PHASES)
    t_write_axis, f_in = np.array(write.times), np.array(f_in)
    f_trans, f_hold, f_out = (  # physical-frame exit field per group's row
        _steps_by_row([face_phase * e[:, 0] for e in trace.exits]) for trace in (write, hold, read)
    )
    t_hold_axis, offsets = np.array(hold.times), np.array(read.times)

    stored_scale = params.density / params.light_speed

    records = []
    for r, row_protocol in enumerate(protocol_rows):  # a group of one row per record
        row_trans, row_hold, row_out = (_row(f, r) for f in (f_trans, f_hold, f_out))
        end_write, end_hold, end_read = (_row(trace.end, r)[0] for trace in (write, hold, read))
        records.append(
            CycleRecord(
                params=param_rows[r],
                protocol=row_protocol,
                signal=signal,
                grid=grid,
                t_write=t_write_axis,
                f_in=f_in,
                f_trans=row_trans,
                t_hold=t_hold_axis,
                f_hold_leak=row_hold,
                t_out=row_protocol.t_hold + offsets,
                t_read=offsets,
                f_out=row_out,
                sigma_end_write=end_write,
                sigma_end_hold=end_hold,
                sigma_end_read=end_read,
                sigma_frames=[(t, _row(frame, r)[0].copy()) for t, frame in taker.sigma_frames],
                input_energy=_energy(f_in, t_write_axis),
                transmitted_energy=_energy(row_trans, t_write_axis),
                output_energy=_energy(row_out, offsets),
                hold_leak_energy=_energy(row_hold, t_hold_axis),  # 0.0 with no samples
                stored_end_write=stored_scale * _energy(end_write, grid.z),
                stored_end_hold=stored_scale * _energy(end_hold, grid.z),
                stored_end_read=stored_scale * _energy(end_read, grid.z),
                guard_ratio=guards[r],
            )
        )
    return records[0] if single else records
