"""Transverse dynamics: exact mode decomposition and the radial real-space solver.

Two complementary routes:

* run_cycle_quasi1d - for a homogeneous control field the transverse
  Fourier modes decouple exactly: rescaling the coherence by e^(gamma t)
  with gamma = D k_perp^2 maps every mode onto the same 1D problem, so a
  single longitudinal solve serves all modes and each one just carries
  the decay e^(-gamma (2 t + t_hold)) at read offset t, which factorises
  by axis like the mode: a sum over the modes is two 1D sums' product,
  each a Gauss-Hermite quadrature of the axis factor's spectrum (ModeGrid).

* run_cycle_realspace - for a transversely varying control field the
  columns stop being equivalent (local Rabi frequency shifts both the
  coupling and the two-photon detuning), so the cycle is stepped on an
  explicit radial grid (an axisymmetric beam under an axisymmetric
  control).  It runs on the shared cycle driver of solver1d, one group
  per protocol (protocols that differ only in t_hold share one write),
  with energies and frames by run_cycle's rules and every row's drive
  exact in time.  _stepped_rows picks the rows: under a homogeneous
  control with diffusion one per radial mode the input excites, its decay
  the imaginary part of its light-shift residual, and without diffusion
  one row, mapped onto the columns by the input profile (every mode's
  decay is then 0, so all share one drive); under a varying control the
  columns, which with diffusion are coupled by
  conservative Crank-Nicolson diffusion on the finite-volume grid
  (_radial_operator), whose half-steps the driver applies around each
  step core, merged across every boundary inside a piece.  Without
  diffusion the columns are independent 1D rows, so they may sit at any
  radii: the nodes of a quadrature rule (TransverseGrid.panels).  One
  operator per call takes each piece's step and owns how it sub-steps
  it.  Its half-step is a propagator matrix built once per
  half-step length (one tridiagonal solve, solve_banded) and applied as
  one real GEMM per block of 16 rows over the column band those rows
  couple (n merged half-steps are its cached n-th power).  The module
  needs numpy only: numpy.polynomial's Gauss-Hermite rule,
  numpy.linalg.eigh for the radial modes, and its own tridiagonal solve
  and Gaussian width fit (_fit_gaussian, a one-parameter search once the
  amplitude is projected out).

Beam observables (intensity profile, fitted width, spin-wave phase maps,
effective diffusion rate) are extracted from the records here as well.
Diffraction is neglected throughout: the field propagates along z only,
which is what decouples the columns.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import ParameterError, PhysicalParams, StorageProtocol
from .pulses import ControlProfile, SignalSpec, control_rabi, hermite, sample_transverse
from .solver1d import (
    CycleRecord,
    Grid1D,
    _drive_cycle,
    _energy,
    _row,
    _rows_of,
    _steps,
    advance_step,  # noqa: F401  (the real-space step core; perfbench traces it per module)
    run_cycle,
)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


# the nodes a Gauss-Hermite rule needs to hold an order m: 24 + 2.5 m keeps each
# axis factor within 1e-4 of its closed form up to a per-axis exposure of 3
_NODES_AT_ORDER_0 = 24
_NODES_PER_ORDER = 2.5


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Gauss-Hermite quadrature of the mode spectrum for the quasi-1D decomposition.

    signal is the input the grid serves: its waist scales the nodes and its
    transverse mode u_m(x) u_n(y) is the one a quasi-1D cycle on the grid
    runs.  A Hermite-Gauss factor is its own Fourier transform, so the
    power of u_m at wavenumber k is H_m(kappa)^2 exp(-kappa^2), kappa = k
    waist / sqrt(2), and an n-node Gauss-Hermite rule (Golub and Welsch,
    Math. Comp. 23, 221, 1969) integrates it against the smooth diffusion
    kernel, to an error that falls with n.  kx holds the rule's nodes as
    wavenumbers, sqrt(2) kappa / waist, shared by both axes; weights, of
    shape (2, n), the rule's weights times H_m(kappa)^2 and times
    H_n(kappa)^2, each normalised to unit sum.
    """

    signal: SignalSpec
    kx: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, signal: SignalSpec, n: int = 64) -> "ModeGrid":
        """The n-node rule for signal's mode.

        Raises when n nodes cannot hold the mode's larger order m, n < 24 +
        2.5 m, before any Hermite polynomial is evaluated.
        """
        if max(signal.mode) > (n - _NODES_AT_ORDER_0) / _NODES_PER_ORDER:
            raise ParameterError(
                "%d Gauss-Hermite nodes cannot hold mode %r: order m needs %d + %g m"
                % (n, signal.mode, _NODES_AT_ORDER_0, _NODES_PER_ORDER)
            )
        kappa, w = np.polynomial.hermite.hermgauss(n)
        power = np.array([w * hermite(m, kappa) ** 2 for m in signal.mode])
        return cls(
            signal=signal,
            kx=math.sqrt(2.0) * kappa / signal.waist,
            weights=power / np.sum(power, axis=-1, keepdims=True),
        )

    @property
    def n(self) -> int:
        return self.kx.size


_RADIAL_WINDOW_WAISTS = 8.0  # the radial window's radius, in signal waists


@dataclass(frozen=True, eq=False)
class TransverseGrid:
    """Radial real-space columns at radii r, each with its transverse
    quadrature weight (an area).

    radial's columns are staggered cells over a window of 8 waists, r_j =
    (j + 1/2) dr, which gives the finite-volume diffusion operator its
    natural no-flux condition at the axis and makes every cell weight 2 pi
    r_j dr; only they carry dr, and only they take diffusion.  panels'
    columns are the nodes of a radial quadrature rule.
    """

    r: np.ndarray
    weights: np.ndarray
    dr: float | None = None

    @classmethod
    def radial(cls, waist: float, n_r: int = 96) -> "TransverseGrid":
        if n_r < 8:
            raise ParameterError("radial grid needs at least 8 cells")
        dr = (_RADIAL_WINDOW_WAISTS * waist) / n_r
        r = (np.arange(n_r) + 0.5) * dr
        return cls(r=r, weights=2.0 * math.pi * r * dr, dr=dr)

    @classmethod
    def panels(cls, r, w) -> "TransverseGrid":
        """Columns at the nodes r of a radial rule of weights w (Gauss-Legendre
        panels, say), each weighing 2 pi r w."""
        r = np.asarray(r, dtype=float)
        return cls(r=r, weights=2.0 * math.pi * r * np.asarray(w, dtype=float))

    @property
    def n_cols(self) -> int:
        return self.r.size


# ---------------------------------------------------------------------------
# quasi-1D decomposition (homogeneous control)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Quasi1DRecord:
    """One shared 1D cycle plus per-mode transverse decay factors.

    The transverse mode is mode_grid's.  The component at (kx, ky) sees the
    shared output scaled by exp(-D (kx^2 + ky^2) (2 t + t_hold)), t the read
    offset: a factor exp(-gamma (2 t + t_hold)) per axis, gamma = D kx^2 at
    the grid's nodes.  So every quadrature over the spectrum is a product
    of one sum per axis.  The read is integrated over the base's offsets
    from t_hold (base.t_read), which no long hold rounds.
    """

    base: CycleRecord
    mode_grid: ModeGrid
    gamma: np.ndarray

    @classmethod
    def from_bases(cls, bases: Sequence[CycleRecord], grid: ModeGrid) -> list["Quasi1DRecord"]:
        """Wrap 1D cycles with the mode spectrum of grid.

        The longitudinal cycle does not depend on the transverse mode, so
        one base can serve several modes, each wrapped on its own grid:
        the records take grid's mode whatever mode the base was run with.
        """
        return [cls(base, grid, base.params.diffusivity * grid.kx**2) for base in bases]

    def efficiency_kspace(self) -> float:
        """Cycle efficiency by quadrature over the mode spectrum, one axis at a
        time: each axis keeps weights @ exp(-2 gamma (2 t + t_hold)) of the
        power at each read sample, (2, t)."""
        exposure = 2.0 * self.base.t_read + self.base.protocol.t_hold
        kept = self.mode_grid.weights @ np.exp(-2.0 * self.gamma[:, None] * exposure)
        out = np.trapezoid(kept[0] * kept[1] * np.abs(self.base.f_out) ** 2, self.base.t_read)
        return float(out) / self.base.input_energy


def run_cycle_quasi1d(
    params: PhysicalParams | Sequence[PhysicalParams],
    protocol: StorageProtocol | Sequence[StorageProtocol],
    grid: ModeGrid,
    **solver_kwargs,
) -> Quasi1DRecord | list[Quasi1DRecord]:
    """Full 3D cycle for a homogeneous control via one 1D solve.

    The tilded longitudinal system is identical for every transverse
    Fourier mode, so exactly one solver1d cycle is run; each mode then
    carries its own decay factor.  The input is grid.signal, the signal
    the grid was built for: it sets both the longitudinal input and the
    transverse mode, so the two cannot disagree.  The control is
    the homogeneous params.rabi_control; a transversely varying control
    breaks the equivalence and goes through run_cycle_realspace.
    solver_kwargs are run_cycle's keyword options.  params and protocol may
    be row sequences under the batching rules of run_cycle; each row's base
    is then wrapped on its own, one record per row.
    """
    base = run_cycle(params, protocol, grid.signal, **solver_kwargs)
    if isinstance(base, CycleRecord):
        return Quasi1DRecord.from_bases([base], grid)[0]
    return Quasi1DRecord.from_bases(base, grid)


# ---------------------------------------------------------------------------
# real-space transverse solver (inhomogeneous control)
# ---------------------------------------------------------------------------


_BLOCK_ROWS = 16  # rows per block of a banded propagator power
_BAND_FLOOR = 1e-30  # share of a power's largest entry below which a block drops an entry


def _block_band(matrix: np.ndarray) -> list[tuple[slice, slice, np.ndarray]]:
    """matrix as block rows of _BLOCK_ROWS (the last may be ragged).

    Each block row keeps the contiguous column band outside which every
    entry of its rows is below _BAND_FLOOR of the matrix's largest entry,
    as (rows, cols, matrix[rows, cols]).  A dense matrix keeps full bands.
    """
    n = len(matrix)
    kept = np.abs(matrix) >= _BAND_FLOOR * np.max(np.abs(matrix))
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        used = kept[rows].any(axis=0)
        cols = slice(int(np.argmax(used)), n - int(np.argmax(used[::-1])))
        blocks.append((rows, cols, np.ascontiguousarray(matrix[rows, cols])))
    return blocks


def solve_banded(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with A x = rhs, A tridiagonal and strictly diagonally dominant.

    band holds A in LAPACK's banded layout, as scipy.linalg.solve_banded's
    (1, 1) form takes it: band[0, 1:] the superdiagonal, band[1] the
    diagonal, band[2, :-1] the subdiagonal.  rhs is (n,) or (n, k).  The
    Thomas algorithm, Gaussian elimination without pivoting, which
    diagonal dominance makes stable (Golub and Van Loan, Matrix
    Computations, section 4.3).
    """
    upper, diagonal, lower = band[0, 1:], band[1], band[2, :-1]  # A[i, i+1], A[i, i], A[i+1, i]
    x = np.array(rhs, dtype=np.result_type(band, rhs))
    ratio = np.empty(len(upper))  # the superdiagonal over its row's pivot
    pivot = diagonal[0]
    x[0] /= pivot
    for i in range(1, len(diagonal)):
        ratio[i - 1] = upper[i - 1] / pivot
        pivot = diagonal[i] - lower[i - 1] * ratio[i - 1]
        x[i] = (x[i] - lower[i - 1] * x[i - 1]) / pivot
    for i in range(len(upper) - 1, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x


def _radial_operator(grid: TransverseGrid) -> tuple[np.ndarray, np.ndarray]:
    """(1/r) d/dr (r d/dr) on the finite-volume grid as its off-diagonals
    (inward, outward), r_{j -+ 1/2} / (r_j dr^2), its diagonal their
    negated sum; the axis and the window's edge pass no flux.  Only the
    staggered cells of TransverseGrid.radial take it."""
    if grid.dr is None:
        raise ParameterError(
            "radial diffusion runs on the staggered cells of TransverseGrid.radial"
        )
    r, dr = grid.r, grid.dr
    lower_face = r - 0.5 * dr
    upper_face = r + 0.5 * dr
    lower_face[0] = upper_face[-1] = 0.0
    return lower_face / (r * dr * dr), upper_face / (r * dr * dr)


class _RadialDiffusion:
    """Radial diffusion by conservative Crank-Nicolson, and its step rule.

    Finite-volume discretization of (1/r) d/dr (r d/dr) on the staggered
    grid; no-flux at the axis (built in by r_{-1/2} = 0) and at the outer
    edge.  Unconditionally stable; second order in dr and dt.

    The driver builds one operator per cycle, with the plan's base step
    dt0, and hands it each piece's step.  A step of length T runs as
    n = _steps(T, dt0) Crank-Nicolson steps of T / n, counted to round-off
    as the plan counts a driven piece's steps (a driven step, never longer
    than dt0, is one), so a half of it is n half-steps of h = T / (2 n).
    The half-step is the real n_r x n_r propagator (I - A)^-1 (I + A),
    built by one tridiagonal solve per h (solve_banded, the Thomas
    algorithm: I - A is strictly diagonally dominant); m half-steps are its
    matrix power, cached per (h, m) as block rows (_block_band) and applied
    as one real GEMM per block row on the complex state viewed as float.  A
    short step's power is nearly banded (P^2 at 128 cells is below 1e-18
    beyond 8 cells from the diagonal), so its blocks multiply only the
    band; a long hold's power is dense and keeps full bands.
    """

    def __init__(self, grid: TransverseGrid, diffusivity: float, dt0: float):
        self.diffusivity, self.dt0 = diffusivity, dt0
        self._operator = _radial_operator(grid)
        self._halves: dict[float, np.ndarray] = {}
        self._powers: dict[tuple[float, int], list[tuple[slice, slice, np.ndarray]]] = {}

    def half(self, h: float) -> np.ndarray:
        """The propagator of one half-step of length h (built once per h)."""
        if h not in self._halves:
            inward, outward = self._operator
            coef = 0.5 * self.diffusivity * h
            a, c = coef * inward, coef * outward
            implicit = np.array([np.r_[0.0, -c[:-1]], 1.0 + a + c, np.r_[-a[1:], 0.0]])
            explicit = np.diag(1.0 - a - c) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
            self._halves[h] = solve_banded(implicit, explicit)
        return self._halves[h]

    def blocks(self, h: float, m: int) -> list[tuple[slice, slice, np.ndarray]]:
        """The block rows of m half-steps of length h (built once per (h, m))."""
        if (h, m) not in self._powers:
            self._powers[h, m] = _block_band(np.linalg.matrix_power(self.half(h), m))
        return self._powers[h, m]

    def propagate(
        self, sigma: np.ndarray, step, halves: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """halves half-steps of a piece's step on sigma of shape (..., n_r, n_z).

        step is a scalar length, or one length per group (sigma's axis 0);
        a group whose step is zero is copied.  The result goes into out
        (C-contiguous, sigma's shape, not sharing its memory) when given,
        else into a new array.
        """
        if out is None:
            out = np.empty(sigma.shape, dtype=complex)
        if np.ndim(step):
            for group, dest, length in zip(sigma, out, np.ravel(step).tolist()):
                self._apply(group, length, halves, dest)
            return out
        return self._apply(sigma, step, halves, out)

    def _apply(self, sigma: np.ndarray, step: float, halves: int, out: np.ndarray) -> np.ndarray:
        if step <= 0.0:
            out[...] = sigma
            return out
        n = _steps(step, self.dt0)
        x, y = np.ascontiguousarray(sigma).view(float), out.view(float)
        for rows, cols, block in self.blocks(0.5 * (step / n), halves * n):
            np.matmul(block, x[..., cols, :], out=y[..., rows, :])
        return out


_MODE_FLOOR = 1e-13  # share of the largest input coefficient a stepped radial mode exceeds


def _radial_modes(tgrid: TransverseGrid, profile: np.ndarray):
    """(rates, entry, synthesis): the radial modes an (n_r, 1) profile excites.

    K of _radial_operator is self-adjoint in the cell areas r, so sqrt(r)
    K / sqrt(r) is symmetric (off-diagonal sqrt(inward outward)); eigh
    gives its eigenvalues -rate_m and orthonormal v_m, K's modes are v_m /
    sqrt(r), and p = sum_m c_m v_m / sqrt(r), c = V^T sqrt(r) p.  The modes
    with |c_m| above _MODE_FLOOR of the largest are kept: their rates and
    c_m as (modes, 1) columns, the modes as synthesis's columns.
    """
    inward, outward = _radial_operator(tgrid)
    off = np.sqrt(outward[:-1] * inward[1:])
    symmetric = np.diag(-(inward + outward)) + np.diag(off, 1) + np.diag(off, -1)
    eigenvalues, vectors = np.linalg.eigh(symmetric)
    root = np.sqrt(tgrid.r)[:, None]
    coefficients = vectors.T @ (root * profile)
    kept = np.abs(coefficients[:, 0]) > _MODE_FLOOR * np.max(np.abs(coefficients))
    return np.abs(eigenvalues[kept])[:, None], coefficients[kept], vectors[:, kept] / root


def _stepped_rows(
    params: PhysicalParams, signal: SignalSpec, control: ControlProfile, tgrid: TransverseGrid
):
    """What a real-space call steps: (rabi, decay, entry, synthesis, coupling).

    Rows of control Rabi frequency rabi, decay rate decay and input weight
    entry, mapped onto the columns by synthesis and coupled between steps
    by coupling (None: the columns themselves; no decay; nothing couples
    them), by the call's own diffusivity D and control.  Under a
    homogeneous control the coupling and light shift are every column's,
    so diffusion only damps each radial mode (_radial_modes), at D rate_m;
    without diffusion every mode shares one undamped drive, so one row of
    input weight 1 is stepped and the input profile is its synthesis.
    Under a varying control, the columns: with diffusion under
    Crank-Nicolson, without it alone.
    """
    profile = sample_transverse(signal, tgrid.r[:, None], 0.0)  # (n_cols, 1)
    rabi = control_rabi(control, tgrid.r)[:, None]  # column-local control
    diffusivity = params.diffusivity
    if np.all(rabi == rabi[0]):
        if diffusivity == 0.0:  # every mode's decay D rate_m is 0: one drive serves them all
            return rabi[:1], None, np.ones((1, 1)), profile, None
        rates, entry, synthesis = _radial_modes(tgrid, profile)
        return rabi[:1], diffusivity * rates, entry, synthesis, None
    coupling = partial(_RadialDiffusion, tgrid, diffusivity) if diffusivity > 0.0 else None
    return rabi, None, profile, None, coupling


@dataclass(eq=False)
class RealspaceRecord:
    """Record of a radial real-space cycle.

    Fields are sampled at the medium exit face per radial column;
    intensity is the time-integrated |f_out|^2 per column.  Coherence
    snapshots have shape (n_r, n_z) in the solver frame, on grid.
    """

    params: PhysicalParams
    protocol: StorageProtocol
    signal: SignalSpec
    control: ControlProfile
    grid: Grid1D
    tgrid: TransverseGrid
    t_out: np.ndarray
    f_out: np.ndarray
    intensity: np.ndarray
    input_energy: float
    output_energy: float
    sigma_frames: list[tuple[float, np.ndarray]] = field(default_factory=list)
    guard_ratio: dict[str, float] = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        if self.input_energy == 0.0:
            raise ParameterError("cycle recorded no input energy")
        return self.output_energy / self.input_energy


def run_cycle_realspace(
    params: PhysicalParams,
    protocol: StorageProtocol | Sequence[StorageProtocol],
    signal: SignalSpec,
    control: ControlProfile,
    tgrid: TransverseGrid,
    *,
    n_medium: int = 192,
    steps_per_width: float = 8.0,
    sigma_times=(),
    store_fields=None,
) -> RealspaceRecord | list[RealspaceRecord]:
    """Full cycle on the radial grid with an axisymmetric local control field.

    The cycle runs on the cycle driver shared with solver1d.run_cycle, one
    group per protocol, with diffusion in every phase and run_cycle's step
    and read window.  The driver steps the rows of _stepped_rows, each
    drive exact in time, and maps them onto the columns: steps_per_width
    is a sampling rate, but under a varying control with diffusion the
    radial Crank-Nicolson halves around each drive leave a second-order
    error.  protocol may be a sequence under run_cycle's rule: only t_hold
    may differ, the hold must be undriven and frames are in the write.  The
    groups share one write and part ways at the hold; one record per
    protocol comes back.  The input must be the axisymmetric (0,0) mode;
    higher Hermite-Gauss modes go through run_cycle_quasi1d.  Coherence
    frames are taken at the scalar sigma_times only (extract_phase reads
    the mid-hold one, protocol.flip_time()).  Energies follow run_cycle's
    trapezoid rule in time, weighted over the columns.  Every record keeps
    its exit fields (store_fields is ignored).
    """
    single = isinstance(protocol, StorageProtocol)
    if signal.mode != (0, 0):
        raise ParameterError(
            "real space is restricted to the axisymmetric (0,0) mode; "
            "run mode %r through run_cycle_quasi1d" % (signal.mode,)
        )
    if abs(control.rabi_peak - params.rabi_control) > 1e-9 * abs(params.rabi_control):
        raise ParameterError(
            "control.rabi_peak must match params.rabi_control (the light-shift "
            "bias and far-detuning checks are anchored to it)"
        )
    param_rows, protocols = _rows_of(params, protocol, signal)

    rabi, decay, entry, synthesis, coupling = _stepped_rows(params, signal, control, tgrid)
    grid = Grid1D.build(params.half_length, n_medium)
    traces, (t_write, f_in), guards, taker = _drive_cycle(
        param_rows,
        protocols,
        signal,
        grid,
        rabi=rabi,
        decay=decay,
        profile=entry,
        synthesis=synthesis,
        record=("read",),
        transverse=coupling,
        steps_per_width=steps_per_width,
        sigma_times=sigma_times,
    )

    profile = sample_transverse(signal, tgrid.r[:, None], 0.0)[:, 0]
    input_energy = _energy(f_in, t_write) * float(tgrid.weights @ np.abs(profile) ** 2)
    offsets = np.array(traces["read"].times)  # from t_hold
    f_out = np.moveaxis(np.array([params.face_phase * e for e in traces["read"].exits]), 0, -1)

    records = []
    for g, row in enumerate(protocols):
        f_g = _row(f_out, g)
        intensity = np.trapezoid(np.abs(f_g) ** 2, offsets)  # per column
        records.append(
            RealspaceRecord(
                params=params,
                protocol=row,
                signal=signal,
                control=control,
                grid=grid,
                tgrid=tgrid,
                t_out=row.t_hold + offsets,
                f_out=f_g,
                intensity=intensity,
                input_energy=input_energy,
                output_energy=float(tgrid.weights @ intensity),
                sigma_frames=[(t, _row(frame, g).copy()) for t, frame in taker.sigma_frames],
                guard_ratio=guards[g],
            )
        )
    return records[0] if single else records


# ---------------------------------------------------------------------------
# beam observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BeamProfile:
    """Radial intensity profile with fitted and moment widths.

    width is the scale of the fitted I0 exp(-r^2 / (2 w^2)); width_moment
    is sqrt(<r^2>/2), which equals the fitted width for an exact Gaussian.
    fit_ok is False when the profile has no least-squares width (its best
    width grows without end, as for an intensity rising with r), in which
    case width falls back to the moment value.
    """

    r: np.ndarray
    intensity: np.ndarray
    width: float
    width_moment: float
    fit_residual: float
    fit_ok: bool


# the trial widths that bracket a fit's width, in moment widths: 2^-6 to 2^6, eight per octave
_FIT_WIDTHS = np.exp2(np.arange(-48, 49) / 8.0)


def _fit_gaussian(rho: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Least-squares (a, s > 0) of y >= 0 ~ a exp(-rho^2 / (2 s^2)).

    Variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): at width s the best amplitude is a = y.g / g.g, g = exp(-rho^2 /
    (2 s^2)), so the fit maximises (y.g)^2 / g.g over s alone, whose slope
    has the sign of (y.g d)(g.g) - (y.g)(g.g d), d = rho^2 - min rho^2 (the
    shift makes it exactly 0, not round-off, where g keeps one sample).
    The first fall of that sign over _FIT_WIDTHS brackets s, and bisection
    takes it to round-off; None when the sign never falls (the best width
    grows without end).  Callers scale rho and y to order 1.
    """
    rho_sq = rho * rho
    lift = rho_sq - np.min(rho_sq)

    def slope(s):  # at a scalar s or a (widths, 1) column, times a positive factor
        g = np.exp(-rho_sq / (2.0 * s * s))
        return (g * lift) @ y * np.sum(g * g, axis=-1) - (g @ y) * ((g * g) @ lift)

    rising = slope(_FIT_WIDTHS[:, None]) > 0.0
    falls = np.flatnonzero(rising[:-1] & ~rising[1:])
    if not len(falls):
        return None
    lo, hi = _FIT_WIDTHS[falls[0] : falls[0] + 2].tolist()
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    g = np.exp(-rho_sq / (2.0 * lo * lo))
    return float(g @ y / (g @ g)), lo


def intensity_and_width(record: RealspaceRecord) -> BeamProfile:
    """Fit the time-integrated output intensity to a Gaussian profile.

    Primary width from least squares on I(r) = I0 exp(-r^2/(2 w^2))
    (_fit_gaussian, on I / max I against r / the moment width);
    second-moment width reported alongside as a diagnostic.  If no
    least-squares width exists, the moment width is returned with fit_ok =
    False.
    """
    r, intensity = record.tgrid.r, record.intensity
    weights = record.tgrid.weights
    total = float(np.sum(weights * intensity))
    if total <= 0.0:
        raise ParameterError("output intensity is empty; nothing to fit")
    moment = math.sqrt(float(np.sum(weights * intensity * r**2)) / total / 2.0)
    peak = float(np.max(intensity))
    fit = _fit_gaussian(r / moment, intensity / peak)
    if fit is None:
        width, fit_residual, fit_ok = moment, math.nan, False
    else:
        a, s = fit
        width = s * moment
        resid = a * np.exp(-((r / moment) ** 2) / (2.0 * s * s)) - intensity / peak
        fit_residual, fit_ok = float(np.sqrt(np.mean(resid**2))), True
    return BeamProfile(
        r=r,
        intensity=intensity,
        width=width,
        width_moment=moment,
        fit_residual=fit_residual,
        fit_ok=fit_ok,
    )


@dataclass(frozen=True, eq=False)
class PhaseMap:
    """Spin-wave phase difference theta(r, z) at one snapshot time."""

    t: float
    r: np.ndarray
    z: np.ndarray
    theta: np.ndarray

    def at_z(self, z_value: float) -> tuple[np.ndarray, np.ndarray]:
        """theta(r) at the grid plane nearest z_value (NaN where masked)."""
        idx = int(np.argmin(np.abs(self.z - z_value)))
        return self.r, self.theta[:, idx]


def _find_frame(record: RealspaceRecord, t: float) -> np.ndarray:
    for ft, frame in record.sigma_frames:
        if ft == t:
            return frame
    raise ParameterError(
        "no coherence snapshot at t = %.6g; request it via sigma_times" % t
    )


def extract_phase(
    record_inhomo: RealspaceRecord,
    record_homo: RealspaceRecord,
    t: float | None = None,
) -> PhaseMap:
    """Phase difference of the stored spin wave, inhomogeneous minus homogeneous.

    Both records must hold coherence snapshots at the comparison time
    (default: mid-hold, protocol.flip_time(), which the caller requests
    through run_cycle_realspace's sigma_times).  The
    phase is unwrapped radially outward from the axis, and samples where
    either coherence falls below 1e-6 of its peak are NaN-masked.
    """
    if not (
        np.array_equal(record_inhomo.tgrid.r, record_homo.tgrid.r)
        and np.array_equal(record_inhomo.grid.z, record_homo.grid.z)
    ):
        raise ParameterError("phase extraction needs records on matching grids")
    when = t if t is not None else record_inhomo.protocol.flip_time()
    sig_i = _find_frame(record_inhomo, when)
    sig_h = _find_frame(record_homo, when)
    med = record_inhomo.grid.medium
    sig_i = sig_i[:, med]
    sig_h = sig_h[:, med]
    cross = sig_i * np.conj(sig_h)
    theta = np.unwrap(np.angle(cross), axis=0)
    bad = (np.abs(sig_i) < 1e-6 * np.max(np.abs(sig_i))) | (
        np.abs(sig_h) < 1e-6 * np.max(np.abs(sig_h))
    )
    theta = np.where(bad, np.nan, theta)
    z = record_inhomo.grid.z[med]
    return PhaseMap(t=when, r=record_inhomo.tgrid.r, z=z, theta=theta)


def fit_effective_diffusion(t_holds, widths_squared) -> float:
    """Apparent diffusion rate: least-squares slope of w^2 versus hold time."""
    t_holds = np.asarray(t_holds, dtype=float)
    widths_squared = np.asarray(widths_squared, dtype=float)
    if t_holds.size < 4:
        raise ParameterError("effective-diffusion fit needs at least 4 hold times")
    slope, _ = np.polyfit(t_holds, widths_squared, 1)
    return float(slope)
