"""Pseudo-spectral evolution on a periodic torus.

The Cauchy problem is evolved by exact Fourier-multiplier application:
each mode xi of the torus [-L, L)^n carries the closed-form kernels
K0hat(t, |xi|), K1hat(t, |xi|), so the linear flow has no
time-discretisation error at all.  The semi-linear problem is stepped
with an exponential Duhamel (variation-of-constants) integrator: the
linear part is propagated exactly over each step and the nonlinearity
enters through midpoint quadrature of the Duhamel integral with the
exact kernel as weight.  Observed orders are about 2 for f = |u|^p and
1 for f = |u_t|^p; the linear flow is one exact step of the linear
solve.  Fields hold real physical values; the stepper and the Gevrey
energy work on their rfftn half spectra, with the multipliers on the
distinct rows of |xi| (TorusGrid.rho_rows).

The torus is a desk-scale stand-in for R^n: decay measurements are only
meaningful while the solution remains well inside the box and the
frequency spacing pi/L resolves the surviving low-frequency content.
"""

from __future__ import annotations

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
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L = {self.L} must be finite and positive")
        # rfftfreq divides by dx, and rho_rows reaches pi N / (2 L).
        if not (self.dx >= np.finfo(np.float64).tiny and np.isfinite(np.pi / self.L)):
            raise ValueError(f"L = {self.L} gives a grid step 2 L / N or a "
                             "frequency pi / L out of the normal float range")
        # |x|^2 reaches n L^2 and |xi|^2 n (pi N / (2 L))^2 (in Python
        # floats, which overflow to inf without a warning).
        L = float(self.L)
        top = np.pi * self.N / (2.0 * L)
        if not np.isfinite([self.n * L * L, self.n * top * top]).all():
            raise ValueError(f"L = {self.L} gives a squared radius n L^2 or a "
                             "squared frequency n (pi N / (2 L))^2 that overflows")

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
    """Raised when the monitored L^2 norm exceeds its ceiling (or is not
    finite) during stepping."""

    def __init__(self, t: float, norm: float, ceiling: float):
        self.t, self.norm, self.ceiling = t, norm, ceiling
        super().__init__(
            f"L^2 norm {norm:.3e} exceeded ceiling {ceiling:.3e} at t = {t:.6g}")


def make_grid(n: int, L: float, N: int) -> TorusGrid:
    """Build a periodic grid on [-L, L)^n.

    Raises ValueError unless n is 1, 2 or 3, N is a power of two >= 16
    and L is finite and positive.
    """
    return TorusGrid(n=n, L=float(L), N=int(N))


def zero_field(grid: TorusGrid) -> Field:
    return Field(grid, np.zeros((grid.N,) * grid.n))


def gaussian_field(grid: TorusGrid, amplitude: float = 1.0,
                   width: float = 1.0) -> Field:
    """Centered Gaussian amplitude * exp(-|x|^2 / width^2) on the lattice.

    Raises ValueError unless width is finite and positive (width = 0
    would put 0/0 = NaN at the origin), width^2 and n (L / width)^2 are
    finite and amplitude is finite.
    """
    if not (np.isfinite(width) and width > 0):
        raise ValueError(f"width = {width} must be finite and positive")
    if not np.isfinite(width * width):
        raise ValueError(f"width = {width} is too large to square")
    ratio = float(grid.L) / float(width)
    if not np.isfinite(grid.n * ratio * ratio):
        raise ValueError(f"width = {width} is too small for L = {grid.L}: "
                         "n (L / width)^2 overflows")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude = {amplitude} must be finite")
    mesh = grid.meshgrid()
    r2 = sum(x * x for x in mesh)
    return Field(grid, amplitude * np.exp(-r2 / width**2))


def linear_evolve(data: Snapshot, t: float, params: ModelParams) -> Snapshot:
    """Exact linear flow over a time t >= 0: the last state of the
    one-step linear solve semilinear_solve(data, params, "none", t, t)
    with no norm ceiling, so a non-finite L^2 norm still raises
    BlowUpError; t = 0 returns data.
    """
    if t == 0:
        return data
    for last in semilinear_solve(data, params, "none", t, t,
                                 norm_ceiling=np.inf):
        pass
    return last


#: Samples per row block in which semilinear_solve takes |u|^p; its
#: diagonal passes run in chunks of an eighth of that.
_BLOCK_SAMPLES = 2 ** 15

#: The most steps one solve takes; a longer t_end / dt is refused on the
#: call, before any work.
_MAX_STEPS = 10 ** 6

#: The largest integral p for which |u|^p is taken by repeated
#: multiplication; a larger one, which would take p - 1 passes, by pow.
_MULTIPLY_MAX = 8


def _chunks(n: int, N: int, M: int, rows: int):
    """(half lattice, padded lines, rho_rows) index triples in chunks of
    at most `rows` rows of the first axis.  Rows [0, h) of a leading axis
    (h = N/2) sit at [0, h) of the M^n lines and read rows 0 .. h - 1 of
    rho_rows; rows [h, N) sit at [M - h, M) and read rows h .. 1.  The
    last axis is [:h + 1]; n = 1 is one chunk."""
    h, last = N // 2, (slice(0, N // 2 + 1),) * 3
    halves = ((0, 0, 0, 1), (h, M - h, h, -1))  # starts; rho_rows step

    def cut(v, line, k, step, a, b):  # rows [a, b) of a half
        return (slice(v + a, v + b), slice(line + a, line + b),
                slice(k + step * a, k + step * b, step))

    for combo in itertools.product(halves, repeat=n - 1):
        for a in range(0, h if n > 1 else 1, rows):
            cuts = ([cut(*half, a, min(a + rows, h)) for half in combo[:1]]
                    + [cut(*half, 0, h) for half in combo[1:]])
            yield tuple(zip(*cuts, last))


def _pad_half(out: np.ndarray, N: int) -> np.ndarray:
    """Finish zero-padding an N^n half spectrum into the first N/2 + 1
    columns of the M^n one `out`, in place: it is held, scaled by
    (M/N)^n, in the blocks [:h], [-h:] of each leading axis (h = N/2)
    where _chunks puts it.  Nyquist modes go half to +N/2, half to -N/2,
    and the rows between the blocks are zeroed."""
    h = N // 2
    out[..., h] *= 0.5
    for axis in range(out.ndim - 1):
        rows = np.moveaxis(out, axis, 0)
        M = len(rows)
        rows[h + 1:M - h] = 0.0
        rows[M - h] *= 0.5
        rows[h] = rows[M - h]
    return out


def _truncate_half(f: np.ndarray, N: int, M: int) -> np.ndarray:
    """Inverse of _pad_half, in place: scale the first N/2 + 1 columns of
    the M^n half spectrum f and average each leading axis's Nyquist rows
    -N/2 and +N/2 (irfftn does so for the last axis); the N^n half
    spectrum is then f's blocks where _chunks puts them."""
    n, h = f.ndim, N // 2
    low = f[..., :h + 1]
    low *= (N / M) ** n
    for axis in range(n - 1):
        rows = np.moveaxis(low, axis, 0)
        rows[M - h] += rows[h]
        rows[M - h] *= 0.5
    return f


def _irfftn(v: np.ndarray, N: int, work: np.ndarray) -> np.ndarray:
    """np.fft.irfftn(v) of an N^n half spectrum, bit for bit, with the
    leading-axis transforms in `work`, complex scratch of v's shape."""
    for axis in range(v.ndim - 1):
        v = np.fft.ifft(v, axis=axis, out=work)
    return np.fft.irfft(v, N)


def _parseval_l2(v: np.ndarray, grid: TorusGrid, power: np.ndarray,
                 scratch: np.ndarray) -> float:
    """Lattice L^2 norm by Parseval; interior last-axis bins count twice.
    |v|^2 is formed in power and scratch, real arrays of v's shape.  A
    spectrum too large to square gives inf or nan, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
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
) -> Iterator[Snapshot]:
    """Exponential Duhamel stepping of u_tt + (-Lap)^sigma u
    + mu (-Lap)^delta u_t = f: |u|^p ("abs_u_p"), |u_t|^p ("abs_ut_p")
    or 0 ("none"), with t_end / dt an integer (to 1e-9) of at most
    _MAX_STEPS = 10^6.

    Arguments are checked and the data copied on the call (ValueError),
    which returns a generator: it steps as it is iterated, yields the data,
    every store_every-th state and the last as Snapshots of real
    physical Fields, keeps none of them, and raises BlowUpError when the
    lattice L^2 norm, taken by Parseval on the half spectrum, exceeds
    norm_ceiling or is not finite.

    Each step propagates (u, u_t), as rfftn half spectra, with the exact
    linear kernels and takes the Duhamel integral by the midpoint rule
    with f at the linearly predicted midpoint; exact when f = 0.  The
    predictor drops the O(dt) forcing, which u_t feels at first order:
    halving dt from 0.2 (n = 1, N = 512, t = 4, p = 3) gives observed
    orders of about 2 for "abs_u_p" and 1 for "abs_ut_p".  Integer p is
    taken on a 3/2-padded lattice, which de-aliases quadratic products
    only, and up to p = 8 by repeated multiplication rather than pow.

    The torus does not damp its zero mode (K0hat(t, 0) = 1, K1hat(t, 0)
    = t), so for "abs_u_p" the mean m of u obeys m'' = <|u|^p> >= |m|^p
    (Jensen): every solve with nonzero data and m'(0) >= 0 blows up, and
    no later than m'' = m^p does from m(0) > 0, however small the data
    (n = 1, L = 10, p = 3, amplitude 0.1: t = 160.1 against 209.2).  The
    torus cannot show small-data global existence.

    Buffers are allocated once per solve.  The real kernel tables a step
    reads (eight; four for "none") are held on rho_rows.  The state is
    its two half spectra, stepped in place a chunk of about 2^12 samples
    of leading rows at a time (every multiplier is diagonal).  The
    padded transforms are pruned to the N/2 + 1 last-axis columns that
    can be nonzero or are kept, and a nonlinear solve takes |u|^p in row
    blocks of about 2^15 samples (irfft, abs, power, rfft), so no whole
    padded field is held; between steps those columns hold the L^2
    monitor and the leading-axis inverse transforms of a stored state.
    For n = 1 and 2 the states equal those of whole-lattice transforms
    bit for bit.
    """
    if nonlinearity not in ("abs_u_p", "abs_ut_p", "none"):
        raise ValueError(f"unknown nonlinearity {nonlinearity!r}")
    if not (dt > 0 and np.isfinite(t_end / dt)):
        raise ValueError(f"need dt > 0 and t_end / dt finite, not t_end = {t_end:g}, "
                         f"dt = {dt:g}")
    steps = round(t_end / dt)
    if steps < 0 or abs(t_end / dt - steps) > 1e-9 * t_end / dt:
        raise ValueError(f"t_end / dt = {t_end / dt:.12g} must be a "
                         "non-negative integer")
    if steps > _MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end / dt:.12g} asks for more than "
                         f"{_MAX_STEPS} steps")
    if store_every < 1:
        raise ValueError(f"store_every = {store_every} must be >= 1")
    if nonlinearity != "none" and params.p is None:
        raise ValueError("nonlinearity requires params.p")
    # Copies, so that writes to the data's arrays after the call do not
    # reach the solve; the first snapshot yielded holds them.
    first = Snapshot(data.t, *(Field(f.grid, f.values.copy())
                               for f in (data.u, data.ut)))
    return _stepping(first, params, nonlinearity, steps, dt, store_every,
                     norm_ceiling)


def _stepping(first: Snapshot, params: ModelParams, nonlinearity: str,
              steps: int, dt: float, store_every: int,
              norm_ceiling: float) -> Iterator[Snapshot]:
    """The generator that semilinear_solve returns."""
    grid, t0 = first.u.grid, first.t
    n, N, h = grid.n, grid.N, grid.N // 2
    p = float(params.p) if params.p is not None else 0.0
    nonlinear = nonlinearity != "none"
    dealias = nonlinear and p == int(p)
    rho = grid.rho_rows

    def tables(tau):
        # Real kernels: a real x complex product has the complex one's bits.
        k = kernel_values(tau, rho, params)
        return (*k, *kernel_dt_values(tau, rho, params, k))

    k0_f, k1_f, dk0_f, dk1_f = tables(dt)
    if nonlinear:
        k0_h, k1_h, dk0_h, dk1_h = tables(dt / 2.0)
        mid0, mid1 = ((k0_h, k1_h) if nonlinearity == "abs_u_p"
                      else (dk0_h, dk1_h))
        weight_u, weight_ut = dt * k1_h, dt * dk1_h
        del k0_h, k1_h, dk0_h, dk1_h  # a step reads mid0, mid1, the weights

    v, vt = np.fft.rfftn(first.u.values), np.fft.rfftn(first.ut.values)
    yield first
    del first  # how long the data lives is up to the caller

    # `lines` holds the first h + 1 last-axis columns of the (3/2-padded
    # when de-aliasing) product lattice: the spectrum of the predicted
    # midpoint, then that of f, transformed in place along the leading
    # axes in irfftn's axis order (rfftn's when forward); `phys`,
    # `power`, `spec` hold a block of rows of a nonlinear solve.  The
    # diagonal passes step v and vt in place, a chunk of leading rows at
    # a time, through `scratch`.
    M = 3 * N // 2 if dealias else N
    lines = np.zeros((M,) * (n - 1) + (h + 1,), dtype=complex)
    if nonlinear:
        line_rows = lines.reshape(-1, h + 1)
        block = max(1, _BLOCK_SAMPLES // M)
        phys, power = np.empty((block, M)), np.empty((block, M))
        spec = np.empty((block, M // 2 + 1), dtype=complex)
    chunk_rows = max(1, _BLOCK_SAMPLES // 8 // ((h + 1) * h ** max(n - 2, 0)))
    chunks = list(_chunks(n, N, M, chunk_rows))
    scratch = np.empty((2, *v[chunks[0][0]].shape), dtype=complex)
    # Between steps `lines` is idle: it holds the leading-axis inverse
    # transforms of a stored state and _parseval_l2's two real arrays.
    work = lines.reshape(-1)[:v.size].reshape(v.shape)
    monitor = work.view(np.float64).reshape(2, *v.shape)
    for step in range(1, steps + 1):
        for coarse, fine, k in chunks:
            x, xt = v[coarse], vt[coarse]
            new_t, prod = scratch[:, :len(x)]
            if nonlinear:  # the midpoint, scaled as _pad_half expects
                mid = lines[fine]
                np.multiply(mid0[k], x, out=mid)
                np.add(mid, np.multiply(mid1[k], xt, out=prod), out=mid)
                if dealias:
                    mid *= (M / N) ** n
            np.multiply(dk0_f[k], x, out=new_t)
            np.add(new_t, np.multiply(dk1_f[k], xt, out=prod), out=new_t)
            np.multiply(k0_f[k], x, out=x)
            np.add(x, np.multiply(k1_f[k], xt, out=prod), out=x)
            xt[...] = new_t
        if nonlinear:
            if dealias:
                _pad_half(lines, N)
            for axis in range(n - 1):
                np.fft.ifft(lines, axis=axis, out=lines)
            for start in range(0, len(line_rows), block):
                rows = line_rows[start:start + block]
                x, y = phys[:len(rows)], power[:len(rows)]
                np.abs(np.fft.irfft(rows, M, out=x), out=x)
                if dealias and 1 <= p <= _MULTIPLY_MAX:
                    np.copyto(y, x)
                    for _ in range(int(p) - 1):
                        y *= x
                else:
                    np.power(x, p, out=y)
                rows[...] = np.fft.rfft(y, out=spec[:len(rows)])[:, :h + 1]
            for axis in reversed(range(n - 1)):
                np.fft.fft(lines, axis=axis, out=lines)
            if dealias:
                _truncate_half(lines, N, M)
            for coarse, fine, k in chunks:  # the Duhamel terms
                x, xt, f = v[coarse], vt[coarse], lines[fine]
                prod = scratch[1, :len(x)]
                np.add(x, np.multiply(weight_u[k], f, out=prod), out=x)
                np.add(xt, np.multiply(weight_ut[k], f, out=prod), out=xt)
        t = t0 + step * dt
        norm = _parseval_l2(v, grid, *monitor)
        if not np.isfinite(norm) or norm > norm_ceiling:
            raise BlowUpError(t=t, norm=norm, ceiling=norm_ceiling)
        if step % store_every == 0 or step == steps:
            yield Snapshot(t, Field(grid, _irfftn(v, N, work)),
                           Field(grid, _irfftn(vt, N, work)))


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
    Modes of zero weight add nothing, even where their squared spectrum
    overflows; where a weighted term overflows the energy is inf or nan,
    unwarned.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    grid, rho = snapshot.u.grid, snapshot.u.grid.rho_rows
    with np.errstate(over="ignore", invalid="ignore"):
        power_v, power_vt = (np.abs(np.fft.rfftn(f.values)) ** 2
                             for f in (snapshot.u, snapshot.ut))
        weight = (np.exp(2.0 * c * rho ** (2.0 * params.delta_f) * snapshot.t)
                  * (1.0 - np.asarray(cutoff_chi(rho))))
        weight_v = weight * rho ** (2.0 * params.sigma_f)
        dens, prod = np.zeros(power_v.shape), np.zeros(power_v.shape)
        for coarse, _, rows in _chunks(grid.n, grid.N, grid.N, grid.N):
            part, w, w_v = dens[coarse], weight[rows], weight_v[rows]
            np.multiply(w, power_vt[coarse], out=part, where=w != 0)
            np.add(part, np.multiply(w_v, power_v[coarse], out=prod[coarse],
                                     where=w_v != 0), out=part)
        energy = 2.0 * dens.sum() - dens[..., 0].sum() - dens[..., -1].sum()
    return float(grid.dx ** grid.n / grid.N ** grid.n * energy)

