"""Value distributions for auction models, plus lognormal tail calculus.

Four families of private-value laws share one interface (CDF, density,
quantile, inverse-transform sampling):

- ``Uniform(lo, hi)``       closed forms
- ``Beta(alpha, beta)``     regularized incomplete beta on [0, 1]
- ``Lognormal(a, s)``       V = exp(N(a, s^2)); supports unbounded values
- ``EmpiricalGrid(x, cdf)`` monotone piecewise-linear CDF from tabulated points

All distributions are immutable after construction and safe to share across
workers; sampling takes an externally owned ``numpy.random.Generator`` so no
object holds mutable state.

The lognormal helpers at the bottom (truncated conditional mean, expected
shortfall) are the analytic backbone of the common-value auction module.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaincinv, betaln, ndtr, ndtri

__all__ = [
    "ValueDistribution",
    "Uniform",
    "Beta",
    "Lognormal",
    "EmpiricalGrid",
    "NegligibleMassError",
    "lognormal_truncated_mean",
    "lognormal_put_value",
    "lower_tail_exponent",
    "parse_distribution",
]


class NegligibleMassError(ValueError):
    """Truncation event has probability below machine tiny; the conditional
    mean is numerically undefined."""


def _check_prob(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):  # also rejects NaN
        raise ValueError(f"probability must lie in [0, 1], got {q!r}")
    return q


class ValueDistribution:
    """Common interface of all private-value laws.

    Subclasses provide ``cdf``, ``pdf`` and ``quantile`` as vectorized
    functions; ``sample`` is inverse-transform sampling through ``quantile``
    so a given uniform draw always maps to the same value.
    """

    kind: str
    support: tuple[float, float]

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """Draw values via inverse transform; reproducible given the rng state."""
        return self.quantile(rng.random(size))


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

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0


@dataclass(frozen=True)
class Beta(ValueDistribution):
    """Beta(alpha, beta) on [0, 1]; CDF is the regularized incomplete beta."""

    alpha: float
    beta: float
    kind: str = field(default="beta", init=False, repr=False)
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"beta shape parameters must be positive, got "
                             f"({self.alpha}, {self.beta})")
        object.__setattr__(self, "_log_norm", betaln(self.alpha, self.beta))

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def cdf(self, x):
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), 1.0)
        return betainc(self.alpha, self.beta, x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        x_in = np.where(inside, x, 0.5)  # keeps log and log1p finite outside
        log_pdf = ((self.alpha - 1.0) * np.log(x_in)
                   + (self.beta - 1.0) * np.log1p(-x_in) - self._log_norm)
        return np.where(inside, np.exp(log_pdf), 0.0)

    def quantile(self, q):
        return betaincinv(self.alpha, self.beta, _check_prob(q))

    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def variance(self) -> float:
        ab = self.alpha + self.beta
        return self.alpha * self.beta / (ab * ab * (ab + 1.0))


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
        if not (self.log_sd > 0.0):
            raise ValueError(f"log_sd must be positive, got {self.log_sd}")

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
        with np.errstate(invalid="ignore"):  # 0/0 where x * log_sd underflows to 0
            dens = np.exp(-0.5 * z * z) / (x_pos * self.log_sd * math.sqrt(2.0 * math.pi))
        return np.where(pos, dens, 0.0)

    def quantile(self, q):
        q = _check_prob(q)
        with np.errstate(divide="ignore"):
            out = np.exp(self.log_mean + self.log_sd * ndtri(q))
        return np.where(q == 0.0, 0.0, out) if out.ndim else (0.0 if q == 0.0 else float(out))

    def mean(self) -> float:
        return math.exp(self.log_mean + 0.5 * self.log_sd ** 2)

    def variance(self) -> float:
        s2 = self.log_sd ** 2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.log_mean + s2)


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
        """Load from a CSV with header ``x,cdf``, rows sorted ascending."""
        xs, cs = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["x", "cdf"]:
                raise ValueError(f"{path}: expected header 'x,cdf', got {reader.fieldnames}")
            for row in reader:
                xs.append(float(row["x"]))
                cs.append(float(row["cdf"]))
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

    def mean(self) -> float:
        w = np.diff(self.cdf_values)
        return float(np.sum(w * 0.5 * (self.points[:-1] + self.points[1:])))

    def variance(self) -> float:
        # each CDF segment is a uniform chunk of mass w on [x0, x1]
        w = np.diff(self.cdf_values)
        x0, x1 = self.points[:-1], self.points[1:]
        second = np.sum(w * (x0 * x0 + x0 * x1 + x1 * x1) / 3.0)
        return float(second - self.mean() ** 2)


# ----------------------------- lognormal calculus ----------------------------


def lognormal_truncated_mean(law: Lognormal, b: float) -> float:
    """Conditional mean E[V | V < b] for a lognormal V.

    Closed form: exp(a + s^2/2) * Phi((ln b - a - s^2)/s) / Phi((ln b - a)/s).
    Raises :class:`NegligibleMassError` when P(V < b) underflows below machine
    tiny, since the ratio is then 0/0.
    """
    if not b > 0.0:
        raise ValueError(f"truncation point must be positive, got {b}")
    a, s = law.log_mean, law.log_sd
    z = (math.log(b) - a) / s
    mass = float(ndtr(z))
    if mass < np.finfo(float).tiny:
        raise NegligibleMassError(
            f"P(V < {b}) underflows; truncated mean undefined at this point")
    return law.mean() * float(ndtr(z - s)) / mass


def lognormal_put_value(v0: float, b, s: float):
    """Expected shortfall E[(b - V)+] for lognormal V with mean v0 and log-sd s.

    Uses the shifted-normal-CDF form b*Phi(-d2) - v0*Phi(-d1) with
    d1 = (ln(v0/b) + s^2/2)/s and d2 = d1 - s; stable for b deep in either
    tail, where the truncated-mean route degenerates to 0/0. Elementwise in
    ``b``: an array of strikes gives an array, a scalar strike a float.
    """
    if not v0 > 0.0:
        raise ValueError(f"v0 must be positive, got {v0}")
    b = np.asarray(b, dtype=float)
    if np.any(b < 0.0):
        raise ValueError(f"strike must be nonnegative, got {b}")
    if not s > 0.0:
        raise ValueError(f"log-sd must be positive, got {s}")
    pos = b > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(v0 / np.where(pos, b, 1.0)) + 0.5 * s * s) / s
    d2 = d1 - s
    put = np.where(pos, b * ndtr(-d2) - v0 * ndtr(-d1), 0.0)
    return put if put.ndim else float(put)


def lower_tail_exponent(d: ValueDistribution, at: float, probe: float) -> float:
    """Local power-law exponent k with F(at + u) ~ C * u**k for small u > 0.

    Returns 0 when F(at) is already positive. ``probe`` sets the length scale
    for the numeric estimate used by laws without a closed-form exponent
    (clamped to [0, 500]; a lognormal lower tail is steeper than any power).
    """
    if float(d.cdf(at)) > 1e-9:
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
