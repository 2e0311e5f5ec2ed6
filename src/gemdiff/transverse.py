"""Transverse dynamics: exact mode decomposition and the radial real-space solver.

Two complementary routes:

* run_cycle_quasi1d - for a homogeneous control field the transverse
  Fourier modes decouple exactly: rescaling the coherence by e^(gamma t)
  with gamma = D k_perp^2 maps every mode onto the same 1D problem, so a
  single longitudinal solve serves all modes and each one just carries
  the decay e^(-gamma (2 t + t_hold)) at read offset t.

* run_cycle_realspace - for a transversely varying control field the
  columns stop being equivalent (local Rabi frequency shifts both the
  coupling and the two-photon detuning), so the cycle is stepped on an
  explicit transverse grid.  It runs on the shared cycle driver of
  solver1d, with the columns as the rows of one group per protocol
  (column-local coupling and light shift) and a transverse diffusion
  operator, whose half-steps the driver applies with the longitudinal
  ones around each step core, merged across every boundary inside a
  piece (an exit read there takes the owed half on the medium integral
  of each column, not on the state).  Protocols that differ only in
  t_hold share one write.  Energies and frames follow run_cycle's rules.
  Real space is radial (an axisymmetric beam under an axisymmetric
  control) on a finite-volume grid: conservative Crank-Nicolson
  diffusion, one operator per call that takes each piece's step and owns
  how it sub-steps it.  Its half-step is a propagator matrix built once
  per half-step length and applied as one real GEMM per block of 16 rows
  over the column band those rows couple (n merged half-steps are its
  cached n-th power).

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
from scipy.fft import fft2, ifft2
from scipy.linalg import solve_banded
from scipy.optimize import curve_fit

from .model import ParameterError, PhysicalParams, StorageProtocol
from .pulses import ControlProfile, SignalSpec, control_rabi, sample_transverse
from .solver1d import (
    CycleRecord,
    Grid1D,
    _drive_cycle,
    _energy,
    _row,
    _rows_of,
    _steps_by_row,
    advance_step,  # noqa: F401  (the real-space step core; perfbench traces it per module)
    run_cycle,
)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _edge_amplitude_ok(values: np.ndarray, threshold: float = 1e-6) -> bool:
    """True when the outermost samples stay below threshold * peak."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return True
    edge = max(
        float(np.max(np.abs(values[0]))),
        float(np.max(np.abs(values[-1]))),
        float(np.max(np.abs(values[..., 0]))),
        float(np.max(np.abs(values[..., -1]))),
    )
    return edge <= threshold * peak


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Square transverse Fourier grid for the quasi-1D decomposition.

    signal is the input the grid samples: its waist sizes the grid and its
    transverse mode is the one a quasi-1D cycle on the grid runs.  x is the
    axis of both dimensions, kx its FFT wavenumbers, and amp the spectrum of
    the mode, fft2 of its samples times dx^2.
    """

    signal: SignalSpec
    x: np.ndarray
    kx: np.ndarray
    amp: np.ndarray

    @classmethod
    def build(cls, signal: SignalSpec, n: int = 64, window_factor: float = 8.0) -> "ModeGrid":
        """Grid sized for signal's beam: window >= 6 waists, spectrum resolved.

        Raises when the sampled mode does not decay to 1e-6 of its peak at
        both the window edge and the Nyquist edge of the k grid.
        """
        waist, mode = signal.waist, signal.mode
        if window_factor < 6.0:
            raise ParameterError("transverse window must span at least 6 waists")
        if n < 8 or n % 2:
            raise ParameterError("transverse grid size must be an even number >= 8")
        # H_m(xi) exp(-xi^2 / 2), xi = sqrt(2) x / waist, turns at xi^2 = 2m + 1: an
        # order turning beyond the edge (xi^2 = window_factor^2 / 2) cannot decay
        # there, and is refused before eval_hermite spends O(m) per sample on it
        if 2 * max(mode) + 1 >= 0.5 * window_factor**2:
            raise ParameterError(
                "mode %r turns beyond the transverse window; increase window_factor" % (mode,)
            )
        window = window_factor * waist
        dx = window / n
        axis = (np.arange(n) - n // 2) * dx
        k_axis = 2.0 * math.pi * np.fft.fftfreq(n, dx)
        samples = sample_transverse(signal, axis[:, None], axis[None, :])
        if not _edge_amplitude_ok(samples):
            raise ParameterError(
                "transverse window too small for mode %r (edge amplitude above "
                "1e-6 of peak); increase window_factor" % (mode,)
            )
        spectrum = fft2(samples)
        if not _edge_amplitude_ok(np.fft.fftshift(spectrum)):
            raise ParameterError(
                "transverse grid too coarse for mode %r (spectrum not resolved "
                "to 1e-6 at Nyquist); increase n" % (mode,)
            )
        spacing = float(axis[1] - axis[0])  # dx as records read it back, not window / n
        return cls(signal=signal, x=axis, kx=k_axis, amp=spectrum * spacing * spacing)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def k_squared(self) -> np.ndarray:
        """kx^2 + ky^2 mesh in FFT order (both axes take kx)."""
        return self.kx[:, None] ** 2 + self.kx[None, :] ** 2


_RADIAL_WINDOW_WAISTS = 8.0  # the radial window's radius, in signal waists


@dataclass(frozen=True, eq=False)
class TransverseGrid:
    """Radial real-space grid over a window of 8 waists.

    The cells are staggered, r_j = (j + 1/2) dr, which gives the
    finite-volume diffusion operator its natural no-flux condition at the
    axis and makes every cell weight 2 pi r_j dr.
    """

    r: np.ndarray
    dr: float

    @classmethod
    def radial(cls, waist: float, n_r: int = 96) -> "TransverseGrid":
        if n_r < 8:
            raise ParameterError("radial grid needs at least 8 cells")
        dr = (_RADIAL_WINDOW_WAISTS * waist) / n_r
        return cls(r=(np.arange(n_r) + 0.5) * dr, dr=dr)

    @property
    def n_cols(self) -> int:
        return self.r.size

    @property
    def weights(self) -> np.ndarray:
        """Transverse quadrature weight of each column (annulus area)."""
        return 2.0 * math.pi * self.r * self.dr


# ---------------------------------------------------------------------------
# quasi-1D decomposition (homogeneous control)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Quasi1DRecord:
    """One shared 1D cycle plus per-mode transverse decay factors.

    The transverse mode is mode_grid's (its signal's, sampled as amp).
    The component with transverse wavenumber k_perp sees the shared output
    scaled by exp(-gamma (2 t + t_hold)), gamma = D k_perp^2, t the read
    offset; everything else is its amplitude.  Efficiencies follow by
    quadrature over the mode spectrum, in k space directly or in real space
    via the inverse transform (the two agree by Parseval).
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
        k_squared = grid.k_squared()
        return [
            cls(base=base, mode_grid=grid, gamma=base.params.diffusivity * k_squared)
            for base in bases
        ]

    @property
    def read_offsets(self) -> np.ndarray:
        return self.base.t_out - self.base.protocol.t_hold

    def _spectral_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique gamma values and their spectral weights sum |amp|^2."""
        gam = self.gamma.ravel()
        weight = np.abs(self.mode_grid.amp.ravel()) ** 2
        uniq, inverse = np.unique(gam, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inverse, weight)
        return uniq, sums

    def efficiency_kspace(self) -> float:
        """Cycle efficiency by quadrature over the mode spectrum."""
        uniq, weight = self._spectral_weights()
        out_t = np.abs(self.base.f_out) ** 2
        factors = np.exp(
            -2.0 * uniq[:, None] * (2.0 * self.read_offsets + self.base.protocol.t_hold)
        )
        out = np.trapezoid(factors * out_t, self.base.t_out, axis=-1)
        total_out = float(np.sum(weight * out))
        total_in = float(np.sum(weight)) * self.base.input_energy
        return total_out / total_in

    def efficiency_realspace(self) -> float:
        """Same efficiency via the inverse transform (Parseval route)."""
        dx = self.mode_grid.dx
        total_out = float(np.sum(self.intensity_realspace()[1])) * dx**2
        profile = ifft2(self.mode_grid.amp) / dx**2
        total_in = (
            float(np.sum(np.abs(profile) ** 2)) * dx**2 * self.base.input_energy
        )
        return total_out / total_in

    def intensity_realspace(self) -> tuple[np.ndarray, np.ndarray]:
        """Time-integrated output intensity I(x, y) on the real-space grid."""
        spec = self.mode_grid.amp[..., None] * np.exp(
            -self.gamma[..., None]
            * (2.0 * self.read_offsets + self.base.protocol.t_hold)
        )
        # ifft2 undoes the forward transform of the centred samples, so the
        # result is indexed by the grid axes directly (no shift needed)
        fields = ifft2(spec, axes=(0, 1)) / self.mode_grid.dx**2
        out_sq = np.abs(fields) ** 2 * np.abs(self.base.f_out) ** 2
        return self.mode_grid.x, np.trapezoid(out_sq, self.base.t_out, axis=-1)


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


class _RadialDiffusion:
    """Radial diffusion by conservative Crank-Nicolson, and its step rule.

    Finite-volume discretization of (1/r) d/dr (r d/dr) on the staggered
    grid; no-flux at the axis (built in by r_{-1/2} = 0) and at the outer
    edge.  Unconditionally stable; second order in dr and dt.

    The driver builds one operator per cycle, with the plan's base step
    dt0, and hands it each piece's step.  A step of length T runs as
    n = ceil(T / dt0) Crank-Nicolson steps of T / n (to round-off: a driven
    step, never longer than dt0, is one), so a half of it is n half-steps
    of h = T / (2 n).  The half-step is the real n_r x n_r propagator
    (I - A)^-1 (I + A), built by one banded solve per h; m half-steps are
    its matrix power, cached per (h, m) as block rows (_block_band) and
    applied as one real GEMM per block row on the complex state viewed as
    float.  A short step's power is nearly banded (P^2 at 128 cells is
    below 1e-18 beyond 8 cells from the diagonal), so its blocks multiply
    only the band; a long hold's power is dense and keeps full bands.
    """

    def __init__(self, grid: TransverseGrid, diffusivity: float, dt0: float):
        self.grid, self.diffusivity, self.dt0 = grid, diffusivity, dt0
        self._halves: dict[float, np.ndarray] = {}
        self._powers: dict[tuple[float, int], list[tuple[slice, slice, np.ndarray]]] = {}

    def half(self, h: float) -> np.ndarray:
        """The propagator of one half-step of length h (built once per h)."""
        if h not in self._halves:
            r, dr = self.grid.r, self.grid.dr
            lower_face = r - 0.5 * dr
            upper_face = r + 0.5 * dr
            lower_face[0] = 0.0
            coef = 0.5 * self.diffusivity * h
            a = coef * (lower_face / (r * dr * dr))
            c = coef * (upper_face / (r * dr * dr))
            c[-1] = 0.0
            implicit = np.array([np.r_[0.0, -c[:-1]], 1.0 + a + c, np.r_[-a[1:], 0.0]])
            explicit = np.diag(1.0 - a - c) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
            self._halves[h] = solve_banded((1, 1), implicit, explicit)
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
        n = math.ceil(step / self.dt0 * (1.0 - 1e-12))  # round-off: a step of dt0 is one
        if n == 0:
            out[...] = sigma
            return out
        x, y = np.ascontiguousarray(sigma).view(float), out.view(float)
        for rows, cols, block in self.blocks(0.5 * (step / n), halves * n):
            np.matmul(block, x[..., cols, :], out=y[..., rows, :])
        return out


@dataclass(eq=False)
class RealspaceRecord:
    """Record of a radial real-space cycle.

    Fields are sampled at the medium exit face per radial column;
    intensity is the time-integrated |f_out|^2 per column.  Coherence
    snapshots have shape (n_r, n_z) in the solver frame.  A cycle run
    without its read has t_out, f_out, intensity and output_energy None.
    """

    params: PhysicalParams
    protocol: StorageProtocol
    signal: SignalSpec
    control: ControlProfile
    grid: Grid1D
    tgrid: TransverseGrid
    t_out: np.ndarray | None
    f_out: np.ndarray | None
    intensity: np.ndarray | None
    input_energy: float
    output_energy: float | None
    sigma_frames: list[tuple[float, np.ndarray]] = field(default_factory=list)
    guard_ratio: dict[str, float] = field(default_factory=dict)

    def _require_read(self) -> None:
        if self.output_energy is None:
            raise ParameterError("no read was run: the cycle was solved with read=False")

    @property
    def efficiency(self) -> float:
        self._require_read()
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
    steps_per_width: float = 64.0,
    sigma_times=(),
    store_fields=None,
    read: bool = True,
) -> RealspaceRecord | list[RealspaceRecord]:
    """Full cycle on the radial grid with an axisymmetric local control field.

    The cycle runs on the cycle driver shared with solver1d.run_cycle,
    with the radial columns as the rows of one group per protocol:
    column-local coupling and light shift, and radial diffusion.
    Diffusion acts in every phase, with run_cycle's step and read window.
    protocol may be a sequence under run_cycle's rule: only t_hold may
    differ, and the hold must be undriven.  The groups share one write and
    part ways at the hold; one record per protocol comes back.  The input
    must be the axisymmetric (0,0) mode; higher Hermite-Gauss modes go
    through run_cycle_quasi1d.  Coherence frames are taken at the scalar
    sigma_times only (extract_phase reads the mid-hold one,
    protocol.flip_time()).  Energies follow run_cycle's trapezoid rule in
    time, weighted over the columns.  Every record keeps its exit fields
    (store_fields is ignored).  read=False runs no read: the cycle ends at
    the span that takes the last of the sigma_times frames (which must be
    given), the records keep their frames, input energy and guard ratios
    (of the phases run), and their read fields are None.
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

    profile = sample_transverse(signal, tgrid.r[:, None], 0.0)  # (n_cols, 1)
    diffusion = partial(_RadialDiffusion, tgrid, params.diffusivity)
    grid = Grid1D.build(params.half_length, n_medium)
    traces, (t_write, f_in), guards, takers = _drive_cycle(
        param_rows,
        protocols,
        signal,
        grid,
        rabi=control_rabi(control, tgrid.r)[:, None],  # column-local control
        profile=profile,
        record=("read",) if read else (),
        transverse=diffusion if params.diffusivity > 0.0 else None,
        steps_per_width=steps_per_width,
        sigma_times=sigma_times,
    )

    input_energy = _energy(f_in, t_write) * float(tgrid.weights @ np.abs(profile[:, 0]) ** 2)
    if read:
        t_out = _steps_by_row(traces["read"].times)
        f_out = np.moveaxis(np.array([params.face_phase * e for e in traces["read"].exits]), 0, -1)

    records = []
    for g, (row, taker) in enumerate(zip(protocols, takers)):
        t_g = f_g = intensity = output_energy = None
        if read:
            t_g, f_g = _row(t_out, g), _row(f_out, g)
            intensity = np.trapezoid(np.abs(f_g) ** 2, t_g)  # per column
            output_energy = float(tgrid.weights @ intensity)
        records.append(
            RealspaceRecord(
                params=params,
                protocol=row,
                signal=signal,
                control=control,
                grid=grid,
                tgrid=tgrid,
                t_out=t_g,
                f_out=f_g,
                intensity=intensity,
                input_energy=input_energy,
                output_energy=output_energy,
                sigma_frames=taker.sigma_frames,
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
    fit_ok is False when the least-squares fit failed to converge, in
    which case width falls back to the moment value.
    """

    r: np.ndarray
    intensity: np.ndarray
    width: float
    width_moment: float
    fit_residual: float
    fit_ok: bool


def intensity_and_width(record: RealspaceRecord) -> BeamProfile:
    """Fit the time-integrated output intensity to a Gaussian profile.

    Primary width from least squares on I(r) = I0 exp(-r^2/(2 w^2));
    second-moment width reported alongside as a diagnostic.  If the fit
    fails, the moment width is returned with fit_ok = False.
    """
    record._require_read()
    r, intensity = record.tgrid.r, record.intensity
    weights = record.tgrid.weights
    total = float(np.sum(weights * intensity))
    if total <= 0.0:
        raise ParameterError("output intensity is empty; nothing to fit")
    moment = math.sqrt(float(np.sum(weights * intensity * r**2)) / total / 2.0)

    def model(r_, i0, w):
        return i0 * np.exp(-(r_**2) / (2.0 * w**2))

    try:
        # the covariance, never read, overflows for a faint output
        with np.errstate(over="ignore", invalid="ignore"):
            popt, _ = curve_fit(
                model,
                r,
                intensity,
                p0=(float(np.max(intensity)), moment),
                maxfev=10000,
            )
        width = abs(float(popt[1]))
        resid = intensity - model(r, *popt)
        fit_residual = float(np.sqrt(np.mean(resid**2))) / float(np.max(intensity))
        fit_ok = True
    except RuntimeError:
        width = moment
        fit_residual = math.nan
        fit_ok = False
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
        if abs(ft - t) <= 1e-9 * max(abs(t), 1e-12) + 1e-15:
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
