"""Value distributions for auction models, plus lognormal tail calculus.

Four families of private-value laws share one interface (CDF, density,
quantile; sampling is inverse transform, ``quantile`` of uniforms):

- ``Uniform(lo, hi)``       closed forms
- ``Beta(alpha, beta)``     regularized incomplete beta on [0, 1]; the quantile
                            is a per-law table finished by one Halley step
- ``Lognormal(a, s)``       V = exp(N(a, s^2)); supports unbounded values
- ``EmpiricalGrid(x, cdf)`` monotone piecewise-linear CDF from tabulated points

All distributions are immutable after construction and safe to share across
workers: no object holds mutable state.

The lognormal expected shortfall at the bottom is the analytic backbone of
the common-value auction module. The normal CDF and its inverse that the
lognormal needs are here too, so that only a Beta law imports
``scipy.special``.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValueDistribution",
    "Uniform",
    "Beta",
    "Lognormal",
    "EmpiricalGrid",
    "ndtr",
    "ndtri",
    "lognormal_put_value",
    "lower_tail_exponent",
    "parse_distribution",
]

_MASS_FLOOR = 1e-9  # a CDF value above it is mass at the point it is read at


@functools.cache
def _special():
    """``scipy.special``, imported when the first Beta law is built: no other
    law needs it, and its import (about 0.3 s) would double a fresh
    ``solve-candlestick``."""
    import scipy.special
    return scipy.special


def _check_prob(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):  # also rejects NaN
        raise ValueError(f"probability must lie in [0, 1], got {q!r}")
    return q


class ValueDistribution:
    """Common interface of all private-value laws.

    Subclasses provide ``cdf``, ``pdf`` and ``quantile`` as vectorized
    functions; a value is drawn as ``quantile`` of a uniform, so a given
    uniform draw always maps to the same value.
    """

    kind: str
    support: tuple[float, float]

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(ValueDistribution):
    lo: float = 0.0
    hi: float = 1.0
    kind: str = field(default="uniform", init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if self.lo < 0.0:
            raise ValueError("support must be nonnegative")
        if self.hi <= self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def quantile(self, q):
        return self.lo + _check_prob(q) * (self.hi - self.lo)


@dataclass(frozen=True)
class Beta(ValueDistribution):
    """Beta(alpha, beta) on [0, 1]; CDF is the regularized incomplete beta."""

    alpha: float
    beta: float
    kind: str = field(default="beta", init=False, repr=False)
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError(f"beta shape parameters must be positive and finite, "
                             f"got ({self.alpha}, {self.beta})")
        object.__setattr__(self, "_log_norm", _special().betaln(self.alpha, self.beta))

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def cdf(self, x):
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), 1.0)
        return _special().betainc(self.alpha, self.beta, x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        x_in = np.where(inside, x, 0.5)  # keeps log and log1p finite outside
        log_pdf = ((self.alpha - 1.0) * np.log(x_in)
                   + (self.beta - 1.0) * np.log1p(-x_in) - self._log_norm)
        with np.errstate(over="ignore"):  # a density above the doubles is inf
            return np.where(inside, np.exp(log_pdf), 0.0)

    def quantile(self, q):
        """Inverse of ``cdf``, elementwise; each value depends on its own q
        only. Above a split at or over 1/2 it is one minus the quantile of
        Beta(beta, alpha) at the exact 1 - q, so that upper tails keep their
        relative precision; below it is solved directly (see
        :meth:`_halves`).

        It is monotone only to the last bits: the final Halley step follows
        ``betainc``'s rounding, so at adjacent doubles q < q' the value at q'
        can be a few ulps below the value at q. Of 200,000 such pairs, 1,939
        drop on Beta(2,2) and 1,806 on Beta(5,0.5), by at most 2 ulps, and
        4,542 on Beta(0.5,0.5), by at most 5 (``betaincinv`` has none there);
        skewed shapes drop further (26 ulps on Beta(0.7,3) in 2e6 pairs).
        The solver sorts its value grid and the Monte Carlo kernel never
        compares two values of one class, so no caller relies on order at
        that scale."""
        q = _check_prob(q)
        below, above, split = self._halves
        flat = q.ravel()
        out = np.empty_like(flat)
        for start in range(0, flat.size, _BLOCK):  # temporaries stay in cache
            q_b, out_b = flat[start:start + _BLOCK], out[start:start + _BLOCK]
            upper = q_b > split
            lower_idx, upper_idx = np.flatnonzero(~upper), np.flatnonzero(upper)
            out_b[lower_idx] = below(q_b[lower_idx])
            out_b[upper_idx] = 1.0 - above(1.0 - q_b[upper_idx], complement=True)
        out = out.reshape(q.shape)
        return out if out.ndim else out[()]

    @functools.cached_property
    def _halves(self) -> tuple["_BetaHalf", "_BetaHalf", float]:
        """The tables below and above the probability that splits the two
        ways of solving, and that split, built on first use.

        The split is 1/2 unless the value at q = 1/2 lies below 1/2. Then,
        for q between 1/2 and cdf(1/2), the direct solve misses by about
        ulp(q)/f and the one through 1 - q by half an ulp of 1, so the split
        moves up to where the density f falls to _SPLIT_DENSITY = 2. It
        stays under 1, so that q = 1 gives 1."""
        a, b = self.alpha, self.beta
        split = 0.5
        if _special().betainc(a, b, 0.5) > 0.5:
            split = float(_special().betainc(a, b, self._where_density_falls()))
        split = min(max(split, 0.5), 1.0 - 2.0 ** -53)
        below = _BetaHalf(a, b, self._log_norm, split)
        above = below if a == b else _BetaHalf(b, a, self._log_norm, 1.0 - split)
        return below, above, split

    def _where_density_falls(self) -> float:
        """The x in [mode, 1/2] (from 0 for alpha <= 1) where the density
        falls to _SPLIT_DENSITY, by bisection in log x: when cdf(1/2) > 1/2
        the density falls all along that interval. An end of it when the
        density stays on one side."""
        a1, b1 = self.alpha - 1.0, self.beta - 1.0
        lo = math.log(a1 / (a1 + b1)) if a1 > 0.0 else math.log(_TINY)
        hi = math.log(0.5)
        log_level = math.log(_SPLIT_DENSITY) + self._log_norm
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if a1 * mid + b1 * math.log1p(-math.exp(mid)) > log_level:
                lo = mid
            else:
                hi = mid
        return math.exp(hi)


# Beta quantile (Beta.quantile, _BetaHalf)
_CELLS = 384             # cells per table, one betaincinv knot each
_BLOCK = 8192            # values per pass, so that temporaries stay in cache
_SPLIT_DENSITY = 2.0     # see Beta._halves
_MAX_STEP = 2.0 ** -10   # largest final Halley step, relative to the distance
                         # to the nearer end and to the scale 1/|f'/f|
_HALLEY_ERR = 2.0 ** -54  # largest predicted error it may leave, relative
_MAX_REFINE = 100        # cap on the steps of the bracketed fallback
_TINY = np.finfo(float).tiny


class _BetaHalf:
    """Quantiles z of Beta(a, b) at probabilities y in [0, y_top].

    The table is a cubic Hermite interpolant in p = (a B(a, b) y)^(1/a), the
    leading term of the lower tail: z = p c(p) with c(0) = 1, so the cells
    near y = 0 are no worse a guess than the others. Its knot values come
    from ``betaincinv`` and its slopes from the density. One Halley step on
    ``betainc`` finishes each value. It counts as converged when the step is
    small and Halley's error term C step^3 (C = g'/6 - g^2/12, g = f'/f) is
    below 2^-54 of the value; the rest go through :meth:`_refine`.
    """

    def __init__(self, a: float, b: float, log_norm: float, y_top: float):
        self.a, self.b, self.log_norm = a, b, log_norm
        self.log_ab = math.log(a) + log_norm
        try:
            top = math.exp((math.log(y_top) + self.log_ab) / a)  # p at y_top
        except OverflowError:
            top = math.inf
        if not 0.0 < top < math.inf:
            raise ValueError(f"beta shapes {a} and {b} are too extreme for the "
                             f"quantile table: its top p is {top}")
        self.cells_per_p = _CELLS / top
        p = np.arange(1, _CELLS + 1) / self.cells_per_p
        with np.errstate(all="ignore"):
            y = np.minimum(np.exp(a * np.log(p) - self.log_ab), y_top)
            z = _special().betaincinv(a, b, y)
            c = np.concatenate([[1.0], z / p])
            # dc/dp from dz/dy = 1/f and dy/dp = a y / p; (b-1)/(a+1) at p = 0
            dc = (a * y / (p * self._density(z)[0]) - c[1:]) / p
        slope = np.concatenate([[(b - 1.0) / (a + 1.0)], dc]) / self.cells_per_p
        secant = np.diff(c)
        m0 = np.where(np.isfinite(slope[:-1]), slope[:-1], secant)
        m1 = np.where(np.isfinite(slope[1:]), slope[1:], secant)
        # c on cell i is c0 + t (m0 + t (c2 + t c3)) for t in [0, 1]
        self.coef = np.stack([c[:-1], m0, 3.0 * secant - 2.0 * m0 - m1,
                              m0 + m1 - 2.0 * secant])

    def _density(self, z):
        """f(z), g = f'/f and g' for 0 < z < 1."""
        a1, b1 = self.a - 1.0, self.b - 1.0
        iz, iw = 1.0 / z, 1.0 / (1.0 - z)
        f = np.exp(a1 * np.log(z) + b1 * np.log1p(-z) - self.log_norm)
        return f, a1 * iz - b1 * iw, -a1 * iz * iz - b1 * iw * iw

    def __call__(self, y: np.ndarray, complement: bool = False) -> np.ndarray:
        """The quantiles at ``y``; with ``complement`` the caller takes
        1 - z, so z must also be exact relative to 1 - z."""
        with np.errstate(all="ignore"):
            p = np.exp((np.log(y) + self.log_ab) / self.a)
            s = p * self.cells_per_p
            i = np.fmin(s, _CELLS - 1).astype(np.intp)  # NaN lands in range too
            t = s - i
            c0, m, c2, c3 = self.coef.take(i, axis=1)
            z = p * (c0 + t * (m + t * (c2 + t * c3)))
            f, g, g1 = self._density(z)
            d = (_special().betainc(self.a, self.b, z) - y) / f
            step = -d / (1.0 - 0.5 * d * g)
            size, near_end = np.abs(step), np.minimum(z, 1.0 - z)
            err = np.abs(g1 / 6.0 - g * g / 12.0) * size * size * size
            done = ((size <= _MAX_STEP * near_end) & (np.abs(d * g) <= _MAX_STEP)
                    & (err <= _HALLEY_ERR * (near_end if complement else z)))
        # the power law is the answer where p underflows, and betainc cannot
        # resolve a residual below the smallest normal probability
        as_is = (y < _TINY) | (z == 0.0)
        out = np.where(as_is, z, z + step)
        rest = np.flatnonzero(~(done | as_is))
        if rest.size:
            out[rest] = self._refine(y[rest], out[rest], complement)
        return out

    def _refine(self, y: np.ndarray, z: np.ndarray, complement: bool) -> np.ndarray:
        """Newton on log F(z) = log y, exact on a power-law tail, kept inside
        a bracket that each residual narrows; a step that leaves it bisects
        instead. Each value stops on its own, after at most _MAX_REFINE
        steps."""
        out = np.empty_like(y)
        idx = np.arange(y.size)
        lo, hi = np.zeros_like(y), np.ones_like(y)
        z = np.where((z > 0.0) & (z < 1.0), z, 0.5)
        log_y = np.log(y)
        for _ in range(_MAX_REFINE):
            with np.errstate(all="ignore"):
                big_f = _special().betainc(self.a, self.b, z)
                below = big_f < y
                lo, hi = np.where(below, z, lo), np.where(below, hi, z)
                newton = z * np.exp((log_y - np.log(big_f)) * big_f
                                    / (z * self._density(z)[0]))
                mid = np.where(lo > 0.0, np.sqrt(lo) * np.sqrt(hi), 0.5 * hi)
                nxt = np.where(big_f == y, z,
                               np.where((newton > lo) & (newton < hi), newton, mid))
            scale = np.minimum(nxt, 1.0 - nxt) if complement else nxt
            stop = np.abs(nxt - z) <= 2.0 ** -50 * scale
            out[idx[stop]] = nxt[stop]
            go = ~stop
            idx, y, log_y, z, lo, hi = idx[go], y[go], log_y[go], nxt[go], lo[go], hi[go]
            if not idx.size:
                break
        out[idx] = z
        return out


@dataclass(frozen=True)
class Lognormal(ValueDistribution):
    """V = exp(N(log_mean, log_sd^2)) with mean exp(log_mean + log_sd^2 / 2).

    ``quantile(0)`` is 0 and ``quantile(1)`` is ``inf`` (unbounded support).
    """

    log_mean: float
    log_sd: float
    kind: str = field(default="lognormal", init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.log_mean):
            raise ValueError("log_mean must be finite")
        if not (0.0 < self.log_sd < math.inf):
            raise ValueError(f"log_sd must be positive and finite, got {self.log_sd}")

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        z = (np.log(np.where(pos, x, 1.0)) - self.log_mean) / self.log_sd
        return np.where(pos, ndtr(z), 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        x_pos = np.where(pos, x, 1.0)  # keeps log finite outside the support
        z = (np.log(x_pos) - self.log_mean) / self.log_sd
        kernel = np.exp(-0.5 * z * z)
        with np.errstate(invalid="ignore"):  # 0/0 where x * log_sd underflows to 0
            dens = kernel / (x_pos * self.log_sd * math.sqrt(2.0 * math.pi))
        return np.where(pos & (kernel > 0.0), dens, 0.0)

    def quantile(self, q):
        out = np.exp(self.log_mean + self.log_sd * ndtri(_check_prob(q)))  # 0 at q = 0
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class EmpiricalGrid(ValueDistribution):
    """Tabulated CDF; piecewise-linear between nodes, piecewise-constant density.

    ``points`` must be strictly increasing with ``points[0] >= 0``;
    ``cdf_values`` must be strictly increasing from 0 to 1 (flat segments are
    rejected because they would make the quantile non-invertible).
    """

    points: np.ndarray
    cdf_values: np.ndarray
    kind: str = field(default="empirical-grid", init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.points, dtype=float)
        c = np.asarray(self.cdf_values, dtype=float)
        if x.ndim != 1 or x.shape != c.shape or x.size < 2:
            raise ValueError("need matching 1-d arrays with at least two nodes")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if x[0] < 0.0:
            raise ValueError("support must be nonnegative")
        if abs(c[0]) > 1e-9 or abs(c[-1] - 1.0) > 1e-9:
            raise ValueError("cdf values must run from 0 to 1")
        if np.any(np.diff(c) <= 0.0):
            raise ValueError("cdf values must be strictly increasing")
        c = c.copy()
        c[0], c[-1] = 0.0, 1.0
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "cdf_values", c)

    @classmethod
    def from_csv(cls, path) -> "EmpiricalGrid":
        """Load from a CSV with header ``x,cdf`` (spaces around the names
        allowed) and two fields on every row, rows sorted ascending."""
        xs, cs = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [f.strip() for f in header] != ["x", "cdf"]:
                raise ValueError(f"{path}: expected header 'x,cdf', got {header}")
            for row in filter(None, reader):  # blank lines hold no row
                if len(row) != 2:
                    raise ValueError(f"{path}, line {reader.line_num}: "
                                     f"expected 2 fields 'x,cdf', got {row}")
                xs.append(float(row[0]))
                cs.append(float(row[1]))
        return cls(np.array(xs), np.array(cs))

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.points[0]), float(self.points[-1]))

    def cdf(self, x):
        return np.interp(np.asarray(x, dtype=float), self.points, self.cdf_values)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        slopes = np.diff(self.cdf_values) / np.diff(self.points)
        idx = np.clip(np.searchsorted(self.points, x, side="right") - 1, 0, slopes.size - 1)
        inside = (x >= self.points[0]) & (x <= self.points[-1])
        return np.where(inside, slopes[idx], 0.0)

    def quantile(self, q):
        return np.interp(_check_prob(q), self.cdf_values, self.points)


# ------------------------- normal and lognormal calculus ----------------------

_SQRT_HALF = math.sqrt(0.5)


def ndtr(z):
    """Standard normal CDF, 0.5 erfc(-z/sqrt(2)) with libm's ``erfc`` value
    by value. Rounding z/sqrt(2) costs about z^2/2 ulps, no more than in
    ``scipy.special.ndtr`` down to z = -37.5. A float or 0-d input gives a
    scalar; a float, as the candlestick bisection passes, takes under 0.5 us."""
    if isinstance(z, float):  # numpy's float64 too
        return np.float64(0.5 * math.erfc(z * -_SQRT_HALF))
    z = np.asarray(z, dtype=float)
    x = (z * -_SQRT_HALF).ravel().tolist()
    out = 0.5 * np.fromiter(map(math.erfc, x), float, len(x)).reshape(z.shape)
    return out if out.ndim else out[()]


# Wichura's AS241 (PPND16, Appl. Statist. 37, 1988) rounded to doubles:
# numerator and denominator per region, constant term first
_NDTRI_CENTRAL = (
    [3.3871328727963665, 133.14166789178438, 1971.5909503065513, 13731.69376550946,
     45921.95393154987, 67265.7709270087, 33430.57558358813, 2509.0809287301227],
    [1.0, 42.31333070160091, 687.1870074920579, 5394.196021424751,
     21213.794301586597, 39307.89580009271, 28729.085735721943, 5226.495278852854])
_NDTRI_NEAR = (
    [1.4234371107496835, 4.630337846156546, 5.769497221460691, 3.6478483247632045,
     1.2704582524523684, 0.2417807251774506, 0.022723844989269184, 7.745450142783414e-4],
    [1.0, 2.053191626637759, 1.6763848301838038, 0.6897673349851, 0.14810397642748008,
     0.015198666563616457, 5.475938084995345e-4, 1.0507500716444169e-09])
_NDTRI_FAR = (
    [6.657904643501103, 5.463784911164114, 1.7848265399172913, 0.29656057182850487,
     0.026532189526576124, 0.0012426609473880784, 2.7115555687434876e-05,
     2.0103343992922881e-07],
    [1.0, 0.599832206555888, 0.1369298809227358, 0.014875361290850615,
     7.868691311456133e-4, 1.8463183175100548e-05, 1.421511758316446e-07,
     2.0442631033899397e-15])


def _ratio(num: list, den: list, x: np.ndarray) -> np.ndarray:
    """num(x)/den(x) by Horner, coefficients listed constant term first."""
    top, bottom = num[-1] * x, den[-1] * x
    for a, b in zip(num[-2:0:-1], den[-2:0:-1]):
        top += a
        top *= x
        bottom += b
        bottom *= x
    return (top + num[0]) / (bottom + den[0])


def ndtri(p):
    """Inverse of :func:`ndtr` on [0, 1] by AS241: a rational function of
    q = p - 1/2 where |q| <= 0.425, else of r = sqrt(-log(min(p, 1 - p))),
    one for r <= 5 and one beyond. Relative error under 3 * 2^-52 from
    p = 5e-324 to 1 - 2^-53; exactly -inf, 0 and inf at p = 0, 1/2 and 1.
    A 0-d input gives a scalar."""
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    q = flat - 0.5
    out = q * _ratio(*_NDTRI_CENTRAL, 0.180625 - q * q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        p_t = flat[tail]
        with np.errstate(divide="ignore", invalid="ignore"):  # r = inf at p = 0, 1
            r = np.sqrt(-np.log(np.minimum(p_t, 1.0 - p_t)))  # 1 - p is exact here
            z = _ratio(*_NDTRI_NEAR, r - 1.6)
            far = np.flatnonzero(r > 5.0)
            if far.size:
                r_far = r[far]
                z[far] = np.where(r_far < math.inf, _ratio(*_NDTRI_FAR, r_far - 5.0),
                                  math.inf)
        out[tail] = np.copysign(z, p_t - 0.5)
    out = out.reshape(p.shape)
    return out if out.ndim else out[()]


def lognormal_put_value(v0: float, b, s: float):
    """Expected shortfall E[(b - V)+] for lognormal V with mean v0 and log-sd s.

    Uses the shifted-normal-CDF form b*Phi(-d2) - v0*Phi(-d1) with
    d1 = (ln(v0/b) + s^2/2)/s and d2 = d1 - s; stable for b deep in either
    tail, where the truncated-mean route degenerates to 0/0. Elementwise in
    ``b``: an array of strikes gives an array, a scalar strike a float. A
    float strike in (0, inf), as the candlestick bisection passes, skips the
    array path (about 3 against 14 us) with the same ufuncs in the same
    order, so the same bits; subnormal strikes warn on neither path.
    """
    if not v0 > 0.0:
        raise ValueError(f"v0 must be positive, got {v0}")
    if isinstance(b, float) and 0.0 < b < math.inf and s > 0.0:  # numpy's float64 too
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d1 = (np.log(v0 / b) + 0.5 * s * s) / s
        return float(b * ndtr(-(d1 - s)) - v0 * ndtr(-d1))
    b = np.asarray(b, dtype=float)
    if np.any(b < 0.0):
        raise ValueError(f"strike must be nonnegative, got {b}")
    if not s > 0.0:
        raise ValueError(f"log-sd must be positive, got {s}")
    pos = b > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = (np.log(v0 / np.where(pos, b, 1.0)) + 0.5 * s * s) / s
    d2 = d1 - s
    put = np.where(pos, b * ndtr(-d2) - v0 * ndtr(-d1), 0.0)
    return put if put.ndim else float(put)


def lower_tail_exponent(d: ValueDistribution, at: float, probe: float) -> float:
    """Local power-law exponent k with F(at + u) ~ C * u**k for small u > 0.

    Returns 0 where F(at) is above ``_MASS_FLOOR``. At or below the support
    bottom it reads the law's own exponent (1 for uniform(0.5, 1.5) at 0: the
    start line's slope below a reserve's start). ``probe`` sets the length
    scale for the numeric estimate of laws without a closed-form exponent
    (clamped to [0, 500]; a lognormal lower tail is steeper than any power).
    """
    if float(d.cdf(at)) > _MASS_FLOOR:
        return 0.0
    lo = d.support[0]
    if at <= lo + 1e-12 * max(1.0, abs(lo)):
        if isinstance(d, Uniform):
            return 1.0
        if isinstance(d, Beta):
            return d.alpha
        if isinstance(d, EmpiricalGrid):
            return 1.0
    u = max(probe, 1e-300)
    f = float(d.pdf(at + u))
    big_f = float(d.cdf(at + u))
    if big_f <= 0.0:
        return 500.0
    return float(np.clip(u * f / big_f, 0.0, 500.0))


# ------------------------------- specification -------------------------------

_SPEC_RE = re.compile(r"^\s*(\w[\w-]*)\s*\(\s*([^()]*)\s*\)\s*$")


def parse_distribution(spec: str) -> ValueDistribution:
    """Parse a distribution spec string used by the CLI and config files.

    Syntax: ``uniform(lo,hi)``, ``beta(alpha,beta)``, ``lognormal(a,s)``,
    ``empirical(path.csv)``.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"malformed distribution spec: {spec!r}")
    name, args = m.group(1).lower(), m.group(2)
    if name == "empirical":
        return EmpiricalGrid.from_csv(args.strip())
    try:
        params = [float(tok) for tok in args.split(",")] if args.strip() else []
    except ValueError as exc:
        raise ValueError(f"non-numeric parameter in spec {spec!r}") from exc
    if name == "uniform" and len(params) == 2:
        return Uniform(*params)
    if name == "beta" and len(params) == 2:
        return Beta(*params)
    if name == "lognormal" and len(params) == 2:
        return Lognormal(*params)
    raise ValueError(f"unknown distribution spec: {spec!r}")
