"""Pseudo-spectral evolution on a periodic torus.

The Cauchy problem is evolved by exact Fourier-multiplier application:
each mode xi of the torus [-L, L)^n carries the closed-form kernels
K0hat(t, |xi|), K1hat(t, |xi|), so the linear flow has no
time-discretisation error at all.  The semi-linear problem is stepped
with an exponential Duhamel (variation-of-constants) integrator: the
linear part is propagated exactly over each step and the nonlinearity
enters through midpoint quadrature of the Duhamel integral with the
exact kernel as weight.  Observed orders are about 2 for f = |u|^p and
1 for f = |u_t|^p.  Fields hold real physical values; the linear flow,
the stepper and the Gevrey energy work on their rfftn half spectra,
with the multipliers on the distinct rows of |xi| (TorusGrid.rho_rows).

The torus is a desk-scale stand-in for R^n: decay measurements are only
meaningful while the solution remains well inside the box and the
frequency spacing pi/L resolves the surviving low-frequency content.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dispersion import cutoff_chi, kernel_dt_values, kernel_values
from .params import ModelParams

__all__ = [
    "TorusGrid", "Field", "Snapshot", "BlowUpError",
    "make_grid", "linear_evolve", "semilinear_solve",
    "lq_norm", "gevrey_energy", "gaussian_field", "zero_field",
]


@dataclass(frozen=True)
class TorusGrid:
    """Periodic lattice on [-L, L)^n.

    Its frequencies are xi_k = pi k / L for k = -N/2 .. N/2 - 1 on each
    axis; rows k and N - k of an axis share |xi_k|.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError("n must be 1, 2, or 3")
        if self.N < 16 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 16")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        """Per-axis physical coordinates."""
        return -self.L + self.dx * np.arange(self.N)

    @property
    def rho_rows(self) -> np.ndarray:
        """|xi| over the distinct rows of the rfftn half lattice: xi >= 0
        on every axis, as rows k and N - k carry the same |xi|."""
        xi = 2.0 * np.pi * np.fft.rfftfreq(self.N, d=self.dx)
        axes = np.meshgrid(*([xi] * self.n), indexing="ij")
        return np.sqrt(sum(a * a for a in axes))

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.x] * self.n), indexing="ij"))


@dataclass(frozen=True)
class Field:
    """A real grid function: its float64 values at the lattice points.

    Raises ValueError for values of the wrong shape or a complex array.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        shape, expected = np.shape(self.values), (self.grid.N,) * self.grid.n
        if shape != expected:
            raise ValueError(f"values shape {shape} != {expected}")
        if np.iscomplexobj(self.values):
            raise ValueError("Field values must be real: no imaginary part")
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.float64))


@dataclass(frozen=True)
class Snapshot:
    """State (u, u_t) at one time."""

    t: float
    u: Field
    ut: Field

    def __post_init__(self):
        if self.u.grid != self.ut.grid:
            raise ValueError("u and ut must share one grid")


class BlowUpError(RuntimeError):
    """Raised when a monitored norm exceeds its ceiling during stepping."""

    def __init__(self, t: float, q: float, norm: float, ceiling: float):
        self.t, self.q, self.norm, self.ceiling = t, q, norm, ceiling
        super().__init__(
            f"L^{q} norm {norm:.3e} exceeded ceiling {ceiling:.3e} at t = {t:.6g}")


def make_grid(n: int, L: float, N: int) -> TorusGrid:
    """Build a periodic grid on [-L, L)^n.

    Raises ValueError unless n is 1, 2 or 3, N is a power of two >= 16
    and L is positive.
    """
    return TorusGrid(n=n, L=float(L), N=int(N))


def zero_field(grid: TorusGrid) -> Field:
    return Field(grid, np.zeros((grid.N,) * grid.n))


def gaussian_field(grid: TorusGrid, amplitude: float = 1.0,
                   width: float = 1.0) -> Field:
    """Centered Gaussian amplitude * exp(-|x|^2 / width^2) on the lattice.

    Raises ValueError unless width is finite and positive (width = 0
    would put 0/0 = NaN at the origin) and amplitude is finite.
    """
    if not (np.isfinite(width) and width > 0):
        raise ValueError(f"width = {width} must be finite and positive")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude = {amplitude} must be finite")
    mesh = grid.meshgrid()
    r2 = sum(x * x for x in mesh)
    return Field(grid, amplitude * np.exp(-r2 / width**2))


def linear_evolve(data: Snapshot, t: float, params: ModelParams) -> Snapshot:
    """Exact linear flow over a time t >= 0: v = K0hat v0 + K1hat v1 and
    v_t = dK0hat v0 + dK1hat v1 on the rfftn half spectra of the data,
    returned as real physical Fields at data.t + t; t = 0 returns data.
    """
    if t == 0:
        return data
    grid, rho = data.u.grid, data.u.grid.rho_rows
    k0, k1 = kernel_values(t, rho, params)
    dk0, dk1 = kernel_dt_values(t, rho, params)
    v0, v1 = np.fft.rfftn(data.u.values), np.fft.rfftn(data.ut.values)
    v, vt, prod = (np.empty_like(v0) for _ in range(3))
    pairs = _row_pairs(grid)
    _apply(pairs, prod, v, (k0, v0), (k1, v1))
    _apply(pairs, prod, vt, (dk0, v0), (dk1, v1))
    return Snapshot(data.t + t, Field(grid, np.fft.irfftn(v)),
                    Field(grid, np.fft.irfftn(vt)))


#: Samples per row block in which semilinear_solve takes |u|^p.
_BLOCK_SAMPLES = 2 ** 15


def _blocks(n: int, N: int, upper: slice):
    """(coarse, other) index pairs, one per combination of the halves
    [:h], [h:] of the leading axes (h = N/2), which pair with [:h] and
    `upper` of the other array; the last axis is [:h + 1] in both."""
    h = N // 2
    halves = ((slice(0, h), slice(0, h)), (slice(h, N), upper))
    for combo in itertools.product(halves, repeat=n - 1):
        yield (tuple(c for c, _ in combo) + (slice(0, h + 1),),
               tuple(f for _, f in combo) + (slice(0, h + 1),))


def _row_pairs(grid: TorusGrid) -> list:
    """(half lattice, rho_rows) index pairs by blocks: rows [h, N) of a
    leading axis (h = N/2) read rows h .. 1 of rho_rows."""
    h = grid.N // 2
    return list(_blocks(grid.n, grid.N, slice(h, 0, -1)))


def _apply(pairs: list, prod: np.ndarray, out: np.ndarray, *terms,
           add: bool = False) -> None:
    """out = sum of k x over terms (out += it when add), block by block
    of pairs (from _row_pairs): each k is held on rho_rows, each x and
    out on the half lattice; prod is scratch of out's shape."""
    for coarse, rows in pairs:
        part = out[coarse]
        for i, (k, x) in enumerate(terms):
            if i or add:
                np.add(part, np.multiply(k[rows], x[coarse],
                                         out=prod[coarse]), out=part)
            else:
                np.multiply(k[rows], x[coarse], out=part)


def _pad_half(v: np.ndarray, out: np.ndarray, M: int) -> np.ndarray:
    """Zero-pad the N^n half spectrum v into the first N/2 + 1 columns of
    the M^n one `out`: the blocks [:h], [-h:] of each leading axis (h =
    N/2) are written and the rows between them zeroed; Nyquist modes go
    half to +N/2, half to -N/2."""
    n, N = v.ndim, 2 * (v.shape[-1] - 1)
    h = N // 2
    for coarse, fine in _blocks(n, N, slice(M - h, M)):
        np.multiply(v[coarse], (M / N) ** n, out=out[fine])
    out[..., h] *= 0.5
    for axis in range(n - 1):
        rows = np.moveaxis(out, axis, 0)
        rows[h + 1:M - h] = 0.0
        rows[M - h] *= 0.5
        rows[h] = rows[M - h]
    return out


def _truncate_half(f: np.ndarray, out: np.ndarray, M: int) -> np.ndarray:
    """Inverse of _pad_half into the N^n half spectrum `out`, scaling and
    averaging the first N/2 + 1 columns of the M^n one f in place: a
    leading axis's Nyquist row averages -N/2 and +N/2 (irfftn does so
    for the last axis)."""
    n, N = f.ndim, 2 * (out.shape[-1] - 1)
    h = N // 2
    low = f[..., :h + 1]
    low *= (N / M) ** n
    for axis in range(n - 1):
        rows = np.moveaxis(low, axis, 0)
        rows[M - h] += rows[h]
        rows[M - h] *= 0.5
    for coarse, fine in _blocks(n, N, slice(M - h, M)):
        out[coarse] = f[fine]
    return out


def _parseval_l2(v: np.ndarray, grid: TorusGrid, power: np.ndarray,
                 scratch: np.ndarray) -> float:
    """Lattice L^2 norm by Parseval; interior last-axis bins count twice.
    |v|^2 is formed in power and scratch, real arrays of v's shape."""
    np.multiply(v.real, v.real, out=power)
    power += np.multiply(v.imag, v.imag, out=scratch)
    energy = 2.0 * power.sum() - power[..., 0].sum() - power[..., -1].sum()
    return float(np.sqrt(grid.dx ** grid.n * energy / grid.N ** grid.n))


def semilinear_solve(
    data: Snapshot,
    params: ModelParams,
    nonlinearity: str,
    t_end: float,
    dt: float,
    store_every: int = 1,
    norm_ceiling: float = 1e6,
    ceiling_q: float = 2.0,
) -> Iterator[Snapshot]:
    """Exponential Duhamel stepping of u_tt + (-Lap)^sigma u
    + mu (-Lap)^delta u_t = f: |u|^p ("abs_u_p"), |u_t|^p ("abs_ut_p")
    or 0 ("none"), with t_end / dt an integer (to 1e-9).

    Arguments are checked and the data copied on the call (ValueError),
    which returns a generator: it steps as it is iterated, yields the data,
    every store_every-th state and the last as Snapshots of real
    physical Fields, keeps none of them, and raises BlowUpError when the
    L^q norm (q = 2 by Parseval) exceeds norm_ceiling.

    Each step propagates (u, u_t), as rfftn half spectra, with the exact
    linear kernels and takes the Duhamel integral by the midpoint rule
    with f at the linearly predicted midpoint; exact when f = 0.  The
    predictor drops the O(dt) forcing, which u_t feels at first order:
    halving dt from 0.2 (n = 1, N = 512, t = 4, p = 3) gives observed
    orders of about 2 for "abs_u_p" and 1 for "abs_ut_p".  Integer p is
    taken on a 3/2-padded lattice, which de-aliases quadratic products
    only, and by repeated multiplication rather than pow.

    The torus does not damp its zero mode (K0hat(t, 0) = 1, K1hat(t, 0)
    = t), so for "abs_u_p" the mean m of u obeys m'' = <|u|^p> >= |m|^p
    (Jensen): every solve with nonzero data and m'(0) >= 0 blows up, and
    no later than m'' = m^p does from m(0) > 0, however small the data
    (n = 1, L = 10, p = 3, amplitude 0.1: t = 160.1 against 209.2).  The
    torus cannot show small-data global existence.

    Buffers are allocated once per solve, and the eight real kernel
    tables a step reads are held on rho_rows.  The padded transforms are
    pruned to the N/2 + 1 last-axis columns that can be nonzero or are
    kept, and |u|^p is taken in row blocks of about 2^15 samples (irfft,
    abs, power, rfft), so no whole padded field is held.  For n = 1 and 2
    the states equal those of whole-lattice transforms bit for bit.
    """
    if nonlinearity not in ("abs_u_p", "abs_ut_p", "none"):
        raise ValueError(f"unknown nonlinearity {nonlinearity!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = round(t_end / dt)
    if steps < 0 or abs(t_end / dt - steps) > 1e-9 * t_end / dt:
        raise ValueError(f"t_end / dt = {t_end / dt:.12g} must be a "
                         "non-negative integer")
    if store_every < 1:
        raise ValueError(f"store_every = {store_every} must be >= 1")
    if nonlinearity != "none" and params.p is None:
        raise ValueError("nonlinearity requires params.p")
    # Copies, so that writes to the data's arrays after the call do not
    # reach the solve; the first snapshot yielded holds them.
    first = Snapshot(data.t, *(Field(f.grid, f.values.copy())
                               for f in (data.u, data.ut)))
    return _stepping(first, params, nonlinearity, steps, dt, store_every,
                     norm_ceiling, ceiling_q)


def _stepping(first: Snapshot, params: ModelParams, nonlinearity: str,
              steps: int, dt: float, store_every: int, norm_ceiling: float,
              ceiling_q: float) -> Iterator[Snapshot]:
    """The generator that semilinear_solve returns."""
    grid, t0 = first.u.grid, first.t
    n, N, h = grid.n, grid.N, grid.N // 2
    p = float(params.p) if params.p is not None else 0.0
    dealias = nonlinearity != "none" and p == int(p)
    rho = grid.rho_rows
    # Real kernels: a real x complex product has the complex one's bits.
    k0_h, k1_h, dk0_h, dk1_h, k0_f, k1_f, dk0_f, dk1_f = (
        k for tau in (dt / 2.0, dt)
        for k in (*kernel_values(tau, rho, params),
                  *kernel_dt_values(tau, rho, params)))
    mid0, mid1 = (k0_h, k1_h) if nonlinearity == "abs_u_p" else (dk0_h, dk1_h)
    weight_u, weight_ut = dt * k1_h, dt * dk1_h
    del k0_h, k1_h, dk0_h, dk1_h  # a step reads mid0, mid1 and the weights

    v, vt = np.fft.rfftn(first.u.values), np.fft.rfftn(first.ut.values)
    yield first
    del first  # how long the data lives is up to the caller
    v_new, vt_new, prod = (np.empty_like(v) for _ in range(3))
    apply = functools.partial(_apply, _row_pairs(grid), prod)

    # `lines` holds the first h + 1 last-axis columns of the (3/2-padded
    # when de-aliasing) product lattice: the spectrum of the predicted
    # midpoint, then that of f, transformed in place along the leading
    # axes in irfftn's axis order (rfftn's when forward); `phys`,
    # `power`, `spec` hold a block of rows.
    M = 3 * N // 2 if dealias else N
    lines = np.zeros((M,) * (n - 1) + (h + 1,), dtype=complex)
    line_rows = lines.reshape(-1, h + 1)
    block = max(1, _BLOCK_SAMPLES // M)
    phys, power = np.empty((block, M)), np.empty((block, M))
    spec = np.empty((block, M // 2 + 1), dtype=complex)
    mid = f_mid = np.empty_like(v) if dealias else lines  # mid is spent first
    # _parseval_l2's scratch: the two real halves of prod, idle after a step
    monitor = prod.view(np.float64).reshape(2, *v.shape)
    for step in range(1, steps + 1):
        apply(v_new, (k0_f, v), (k1_f, vt))
        apply(vt_new, (dk0_f, v), (dk1_f, vt))
        if nonlinearity != "none":
            apply(mid, (mid0, v), (mid1, vt))
            if dealias:
                _pad_half(mid, lines, M)
            for axis in range(n - 1):
                np.fft.ifft(lines, axis=axis, out=lines)
            for start in range(0, len(line_rows), block):
                rows = line_rows[start:start + block]
                x, y = phys[:len(rows)], power[:len(rows)]
                np.abs(np.fft.irfft(rows, M, out=x), out=x)
                if dealias and p >= 1:
                    np.copyto(y, x)
                    for _ in range(int(p) - 1):
                        y *= x
                else:
                    np.power(x, p, out=y)
                rows[...] = np.fft.rfft(y, out=spec[:len(rows)])[:, :h + 1]
            for axis in reversed(range(n - 1)):
                np.fft.fft(lines, axis=axis, out=lines)
            if dealias:
                _truncate_half(lines, f_mid, M)
            apply(v_new, (weight_u, f_mid), add=True)
            apply(vt_new, (weight_ut, f_mid), add=True)
        v, v_new, vt, vt_new = v_new, v, vt_new, vt
        t = t0 + step * dt

        store = step % store_every == 0 or step == steps
        u = np.fft.irfftn(v) if store or ceiling_q != 2 else None
        norm = (_parseval_l2(v, grid, *monitor) if ceiling_q == 2
                else lq_norm(Field(grid, u), ceiling_q))
        if not np.isfinite(norm) or norm > norm_ceiling:
            raise BlowUpError(t=t, q=ceiling_q, norm=float(norm),
                              ceiling=norm_ceiling)
        if store:
            yield Snapshot(t, Field(grid, u), Field(grid, np.fft.irfftn(vt)))


def lq_norm(field: Field, q: float) -> float:
    """Lattice L^q norm: (dx^n sum |u|^q)^{1/q}; q = inf is the lattice max."""
    if q < 1:
        raise ValueError("q must be >= 1 (or inf)")
    u = field.values
    if np.isinf(q):
        return float(np.max(np.abs(u)))
    dxn = field.grid.dx ** field.grid.n
    power = np.abs(u)
    power **= q
    return float((dxn * np.sum(power)) ** (1.0 / q))


def gevrey_energy(snapshot: Snapshot, c: float, params: ModelParams) -> float:
    """High-frequency spectral energy with Gevrey weight exp(2 c rho^{2 delta} t):

        sum over modes of exp(2 c rho^{2 delta} t) (1 - chi(rho))
            (rho^{2 sigma} |v|^2 + |v_t|^2)

    normalised like an L^2 integral.  For the linear flow this stays
    bounded when c is below the high-band envelope rate mu/2.  The sum
    runs over the rfftn half spectra, interior last-axis bins counted
    twice for their mirror modes, with the weight held on rho_rows.
    Where the weight overflows (large c t) it is inf or nan, unwarned.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    grid, rho = snapshot.u.grid, snapshot.u.grid.rho_rows
    power_v, power_vt = (np.abs(np.fft.rfftn(f.values)) ** 2
                         for f in (snapshot.u, snapshot.ut))
    dens, prod = np.empty(power_v.shape), np.empty(power_v.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = (np.exp(2.0 * c * rho ** (2.0 * params.delta_f) * snapshot.t)
                  * (1.0 - np.asarray(cutoff_chi(rho))))
        _apply(_row_pairs(grid), prod, dens, (weight, power_vt),
               (weight * rho ** (2.0 * params.sigma_f), power_v))
        energy = 2.0 * dens.sum() - dens[..., 0].sum() - dens[..., -1].sum()
    return float(grid.dx ** grid.n / grid.N ** grid.n * energy)

