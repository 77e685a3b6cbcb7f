"""Distribution layer: closed forms, inversion identities, sampling moments."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, betaincinv, betaln
from scipy.special import ndtr as special_ndtr
from scipy.special import ndtri as special_ndtri

from pbslab.distributions import (Beta, EmpiricalGrid, Lognormal, Uniform,
                                  lognormal_put_value, lower_tail_exponent, ndtr,
                                  ndtri, parse_distribution)

from reference_oracle import (NegligibleMassError, lognormal_moments,
                              lognormal_truncated_mean)


def _empirical_example() -> EmpiricalGrid:
    x = np.array([0.0, 0.2, 0.5, 0.8, 1.1, 1.6])
    c = np.array([0.0, 0.15, 0.35, 0.65, 0.9, 1.0])
    return EmpiricalGrid(x, c)


ALL_KINDS = [
    Uniform(0.0, 1.0),
    Uniform(0.5, 2.5),
    Beta(2.0, 2.0),
    Beta(0.7, 3.0),
    Lognormal(0.0, 1.0),
    Lognormal(-0.02, 0.2),
    _empirical_example(),
]


# ---------------------------------- CDF/PDF -----------------------------------


def test_cdf_closed_forms():
    assert Uniform(0, 1).cdf(0.3) == pytest.approx(0.3, abs=1e-15)
    assert Beta(1, 1).cdf(0.42) == pytest.approx(0.42, abs=1e-12)
    assert Beta(2, 2).cdf(0.5) == pytest.approx(0.5, abs=1e-12)


def test_pdf_closed_forms():
    assert Uniform(0, 1).pdf(0.7) == pytest.approx(1.0, abs=1e-15)
    assert Beta(2, 2).pdf(0.5) == pytest.approx(1.5, abs=1e-12)
    assert Lognormal(0.0, 1.0).pdf(1e-12) == pytest.approx(0.0, abs=1e-30)
    assert Lognormal(0.0, 1.0).pdf(0.0) == 0.0
    # the kernel underflows along with x * log_sd: 0, not 0/0
    assert Lognormal(0.0, 0.5).pdf(5e-324) == 0.0


@pytest.mark.filterwarnings("error")
def test_beta_pdf_above_the_largest_double_is_inf():
    """Beta(0.002, 1) at the least subnormal has density about 1e320, so
    inf is the correctly rounded value; the overflow raises no warning."""
    assert Beta(0.002, 1).pdf(5e-324) == math.inf


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: repr(d))
def test_pdf_is_cdf_derivative(dist):
    """Central finite difference of the CDF matches the density to 1e-6."""
    lo, hi = dist.support
    hi = min(hi, float(dist.quantile(0.999)))
    if isinstance(dist, EmpiricalGrid):
        x = 0.5 * (dist.points[:-1] + dist.points[1:])  # segment midpoints
    else:
        x = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 200)
    h = 1e-6 * max(1.0, hi - lo)
    fd = (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h)
    assert np.max(np.abs(fd - dist.pdf(x))) < 1e-6


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: repr(d))
def test_cdf_bounds_and_monotonicity(dist):
    lo, hi = dist.support
    hi = min(hi, float(dist.quantile(1 - 1e-12)))
    x = np.linspace(lo - 0.5, hi + 0.5, 500)
    c = dist.cdf(x)
    assert np.all(np.diff(c) >= -1e-15)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert dist.cdf(lo) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: repr(d))
def test_pdf_integrates_to_one(dist):
    lo = dist.support[0]
    hi = float(dist.quantile(1 - 1e-13)) if not math.isfinite(dist.support[1]) \
        else dist.support[1]
    total = quad(lambda t: float(dist.pdf(t)), lo, hi, limit=400)[0]
    assert total == pytest.approx(1.0, abs=1e-6)


# Reference formulas for the scalar-and-array law methods: the masked-output
# forms that the single np.where code path replaced, kept to pin its values.
def _reference_beta_cdf(d, x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return betainc(d.alpha, d.beta, x)


def _reference_beta_pdf(d, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = ((d.alpha - 1.0) * np.log(x, where=inside, out=np.zeros_like(x))
                   + (d.beta - 1.0) * np.log1p(-x, where=inside, out=np.zeros_like(x))
                   - betaln(d.alpha, d.beta))
    np.exp(log_pdf, where=inside, out=out)
    return out


def _reference_lognormal_cdf(d, x):
    """On the package's normal CDF, which the ndtr tests below hold to
    mpmath and to ``scipy.special.ndtr``."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        z = (np.log(np.maximum(x, 0.0)) - d.log_mean) / d.log_sd
    return np.where(x > 0.0, ndtr(z), 0.0)


def _reference_lognormal_pdf(d, x):
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (np.log(x, where=pos, out=np.zeros_like(x)) - d.log_mean) / d.log_sd
        kernel = np.exp(-0.5 * z * z)
        dens = kernel / (x * d.log_sd * math.sqrt(2.0 * math.pi))
    return np.where(pos & (kernel > 0.0), dens, 0.0)


_REFERENCE = {Beta: (_reference_beta_cdf, _reference_beta_pdf),
              Lognormal: (_reference_lognormal_cdf, _reference_lognormal_pdf)}

# support ends, one step inside and outside them, negatives, infinities, nan
_EDGE_POINTS = [0.0, -0.0, 5e-324, 1e-300, -1e-300, 0.3, 0.999,
                float(np.nextafter(1.0, 0.0)), 1.0, float(np.nextafter(1.0, 2.0)),
                1.7, 1e300, -0.5, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("law", [
    Beta(0.5, 0.5), Beta(0.7, 3.0), Beta(1.0, 1.0), Beta(2.0, 2.0),
    Beta(3.5, 0.8), Lognormal(0.0, 0.5), Lognormal(-0.02, 0.2),
    Lognormal(1.0, 1.5),
], ids=repr)
def test_law_values_match_reference_formulas_bit_for_bit(law):
    """cdf and pdf return the reference formulas' type, dtype, shape and bits
    for Python floats, 0-d and 1-d arrays; the suite's error::RuntimeWarning
    filter makes any warning they raise a failure."""
    inputs = [*_EDGE_POINTS, *map(np.asarray, _EDGE_POINTS),
              np.array(_EDGE_POINTS), np.array([])]
    for method, reference in zip(("cdf", "pdf"), _REFERENCE[type(law)]):
        for x in inputs:
            got, want = getattr(law, method)(x), reference(law, x)
            assert type(got) is type(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True), (method, x)
            assert got.tobytes() == want.tobytes(), (method, x)  # sign of 0


# --------------------------------- quantiles ----------------------------------


def test_quantile_closed_forms():
    assert Uniform(0, 1).quantile(0.25) == pytest.approx(0.25, abs=1e-15)
    assert Beta(2, 2).quantile(0.5) == pytest.approx(0.5, abs=1e-12)
    assert Lognormal(0.0, 1.0).quantile(0.5) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: repr(d))
def test_quantile_cdf_roundtrip(dist):
    """quantile(cdf(x)) recovers x to 1e-8 on 1000 interior points."""
    q = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    x = np.asarray(dist.quantile(q), dtype=float)
    back = np.asarray(dist.quantile(np.asarray(dist.cdf(x))), dtype=float)
    scale = np.maximum(1.0, np.abs(x))
    assert np.max(np.abs(back - x) / scale) < 1e-8
    # and the inner identity: cdf(quantile(q)) = q to 1e-10
    assert np.max(np.abs(np.asarray(dist.cdf(x)) - q)) < 1e-10


# interior values, the ends, the smallest subnormal, deep tails on both sides
_BETA_Q_POINTS = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12,
                  float(np.nextafter(1.0, 0.0)), 1.0]


@pytest.mark.parametrize("law", [Beta(0.5, 0.5), Beta(0.7, 3.0), Beta(2.0, 2.0),
                                 Beta(5.0, 0.5)], ids=repr)
def test_beta_quantile_against_betaincinv(law):
    rng = np.random.default_rng(11)
    q = rng.permutation(np.concatenate([rng.random(200), _BETA_Q_POINTS]))
    got = law.quantile(q)

    # each value depends on its own q only: not on the call's size or shape
    one_by_one = np.array([law.quantile(float(v)) for v in q])
    assert got.tobytes() == one_by_one.tobytes()
    assert law.quantile(q[::-1]).tobytes() == got[::-1].tobytes()
    assert law.quantile(q.reshape(8, -1)).tobytes() == got.tobytes()

    assert law.quantile(0.0) == 0.0 and law.quantile(1.0) == 1.0
    assert got[q == 0.0].tobytes() == np.zeros(1).tobytes()

    for x in [0.3, np.asarray(0.3), q, q.reshape(8, -1), np.array([]),
              np.empty((0, 3))]:
        result = law.quantile(x)
        want = betaincinv(law.alpha, law.beta, np.asarray(x, dtype=float))
        assert type(result) is type(want)
        assert result.dtype == want.dtype and result.shape == want.shape

    # where betaincinv inverts betainc to 1e-15 of the tail probability, the
    # two agree to 1e-12
    ref = betaincinv(law.alpha, law.beta, q)
    trips = (np.abs(betainc(law.alpha, law.beta, ref) - q)
             <= 1e-15 * np.minimum(q, 1.0 - q))
    assert np.count_nonzero(trips) > 100
    assert np.all(np.abs(got[trips] - ref[trips]) <= 1e-12 * ref[trips])

    for bad in [math.nan, -1e-300, 1.0 + 1e-15, [0.5, math.nan], [[0.2], [1.5]]]:
        with pytest.raises(ValueError):
            law.quantile(bad)


@pytest.mark.parametrize("alpha, beta, pairs, ulps", [
    (2.0, 2.0, 1939, 2), (5.0, 0.5, 1806, 2), (0.5, 0.5, 4542, 5)])
def test_beta_quantile_is_monotone_to_the_last_bits(alpha, beta, pairs, ulps):
    """The drops ``Beta.quantile`` documents: over 200,000 pairs of adjacent
    doubles q < q', at most ``pairs`` give a lower value at q', by at most
    ``ulps`` units in the last place."""
    q = np.random.default_rng(7).random(200_000)
    law = Beta(alpha, beta)
    low, high = law.quantile(q), law.quantile(np.nextafter(q, 2.0))
    drop = low.view(np.int64) - high.view(np.int64)  # values are >= 0
    assert np.count_nonzero(drop > 0) <= pairs
    assert drop.max() <= ulps


@pytest.mark.parametrize("alpha, beta, q", [
    (0.01, 5.0, 0.6), (0.055, 62.0, 0.5025),         # a tiny value at q > 1/2
    (0.27, 65.0, 1.0 - 2.0 ** -53), (1.0, 1e5, 1.0 - 2.0 ** -53),  # far tails
    (200.0, 0.3, 1e-50),                              # a large value at small q
])
def test_beta_quantile_of_skewed_laws_keeps_relative_precision(alpha, beta, q):
    want = betaincinv(alpha, beta, q)
    assert abs(Beta(alpha, beta).quantile(q) - want) <= 1e-12 * want


@pytest.mark.parametrize("alpha, beta", [(0.7, 3.0), (5.0, 0.5), (50.0, 50.0)])
def test_beta_quantile_fallback_converges_from_poor_starts(alpha, beta):
    """The bracketed fallback reaches the quantile from any start, NaN too."""
    below = Beta(alpha, beta)._halves[0]
    y = np.tile([1e-100, 1e-12, 0.01, 0.3, 0.5], 5)
    start = np.repeat([1e-300, 1e-6, 0.5, 1.0 - 1e-9, math.nan], 5)
    want = betaincinv(alpha, beta, y)
    assert np.all(np.abs(below._refine(y, start, False) - want) <= 1e-12 * want)


@pytest.mark.parametrize("alpha, beta", [(1e-300, 2.0), (2.0, 1e-300), (1e-20, 3.0),
                                         (1e-200, 1e-200)])
def test_beta_quantile_table_out_of_range_is_a_value_error(alpha, beta):
    """Shapes whose table top p = (a B(a, b) y)^(1/a) underflows to 0 or
    overflows cannot be tabled; they are rejected, not divided by."""
    with pytest.raises(ValueError, match="too extreme"):
        Beta(alpha, beta).quantile(0.3)


@pytest.mark.parametrize("bad_q", [-0.1, 1.5, math.nan])
def test_quantile_rejects_bad_probability(bad_q):
    with pytest.raises(ValueError):
        Uniform(0, 1).quantile(bad_q)


# --------------------------------- sampling -----------------------------------


def _moments(dist) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of ``dist``."""
    if isinstance(dist, Uniform):
        frozen = scipy.stats.uniform(dist.lo, dist.hi - dist.lo)
    elif isinstance(dist, Beta):
        frozen = scipy.stats.beta(dist.alpha, dist.beta)
    elif isinstance(dist, Lognormal):
        frozen = scipy.stats.lognorm(dist.log_sd, scale=math.exp(dist.log_mean))
    else:  # piecewise-uniform mixture: integrate segment raw moments
        w = np.diff(dist.cdf_values)
        x0, x1 = dist.points[:-1], dist.points[1:]
        raw = [float(np.sum(w * (x1 ** (k + 1) - x0 ** (k + 1)) / ((k + 1) * (x1 - x0))))
               for k in range(1, 5)]
        m = raw[0]
        return (m, raw[1] - m * m,
                raw[3] - 4 * m * raw[2] + 6 * m * m * raw[1] - 3 * m ** 4)
    mean, var, kurt = (float(x) for x in frozen.stats(moments="mvk"))
    return mean, var, (kurt + 3.0) * var ** 2


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: repr(d))
def test_sample_moments(dist):
    """Mean and variance of 1e6 inverse-transform draws sit within 4 SEs."""
    n = 1_000_000
    rng = np.random.default_rng(1234)
    draws = dist.quantile(rng.random(n))
    mu, var, mu4 = _moments(dist)
    assert abs(float(np.mean(draws)) - mu) < 4.0 * math.sqrt(var / n)
    se_var = math.sqrt(max(mu4 - var ** 2, 0.0) / n)
    assert abs(float(np.var(draws, ddof=1)) - var) < 4.0 * se_var


def test_sample_unit_mean_martingale_parameterization():
    # log-mean pinned to -s^2/2 forces a unit mean
    dist = Lognormal(-0.02, 0.2)
    rng = np.random.default_rng(99)
    draws = dist.quantile(rng.random(1_000_000))
    se = math.sqrt(lognormal_moments(dist)[1] / draws.size)
    assert abs(float(np.mean(draws)) - 1.0) < 3.0 * se


def test_sampling_is_reproducible():
    dist = Beta(2, 2)
    a = dist.quantile(np.random.default_rng(5).random(100))
    b = dist.quantile(np.random.default_rng(5).random(100))
    assert np.array_equal(a, b)


# ------------------------- normal CDF and its inverse --------------------------

_EPS = 2.0 ** -52


def _normal_root(p: float):
    """The exact x with Phi(x) = p, as an mpmath number: Newton from scipy's
    value, on the lower tail probability min(p, 1 - p) (exact in doubles)."""
    upper = p > 0.5
    tail = 1 - mpmath.mpf(p) if upper else mpmath.mpf(p)
    x = mpmath.mpf(-abs(float(special_ndtri(float(tail)))))
    for _ in range(3):
        x -= (mpmath.ncdf(x) - tail) / mpmath.npdf(x)
    return -x if upper else x


@pytest.mark.filterwarnings("error")
def test_ndtri_within_4_ulps_of_the_exact_root():
    """A dense sweep of the centre and of both tails, from the smallest
    subnormal to 1 - 2^-53."""
    ps = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:-1],
                         np.logspace(-323.3, -0.3, 500),
                         1.0 - np.logspace(-15.95, -0.3, 300),
                         [5e-324, 2.0 ** -1074 * 3, 1e-300, 2.0 ** -53, 0.075,
                          np.nextafter(0.075, 1.0), 0.925, np.nextafter(0.5, 0.0),
                          np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53]])
    ps = ps[ps != 0.5]  # the root 0 is checked exactly below
    got = ndtri(ps)
    with mpmath.workdps(40):
        worst = max(abs((mpmath.mpf(float(g)) - r) / r) for g, r in
                    zip(got, map(_normal_root, ps.tolist())))
    assert worst <= 4 * _EPS


@pytest.mark.filterwarnings("error")
def test_ndtri_ends_and_centre_are_exact():
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf and ndtri(0.5) == 0.0
    got = ndtri(np.array([0.0, 0.5, 1.0, 1e-300, 1.0 - 2.0 ** -53]))
    assert got[0] == -math.inf and got[1] == 0.0 and got[2] == math.inf
    assert np.all(np.isfinite(got[3:]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi, points", [(-8.0, 8.0, 2001), (-20.0, -8.0, 1001),
                                            (-37.5, -20.0, 1001)])
def test_ndtr_no_less_accurate_than_scipy(lo, hi, points):
    """Largest relative error against mpmath in each band, on the same
    points: the error of both grows as z^2/2 ulps, from rounding z/sqrt(2)."""
    z = np.linspace(lo, hi, points)
    with mpmath.workdps(30):
        exact = [mpmath.ncdf(v) for v in z.tolist()]

        def worst(values):
            return max(abs((mpmath.mpf(float(v)) - e) / e) for v, e in zip(values, exact))

        assert worst(ndtr(z)) <= worst(special_ndtr(z))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("func, reference", [(ndtr, special_ndtr), (ndtri, special_ndtri)],
                         ids=["ndtr", "ndtri"])
def test_normal_functions_keep_scipy_types_and_shapes(func, reference):
    """A Python float or 0-d input gives a numpy scalar, as scipy's did, so
    ``float(...)`` and ``np.where`` callers keep working; arrays keep their
    shape, empty ones too."""
    for x in (0.3, np.float64(0.3), np.asarray(0.3)):
        assert type(func(x)) is type(reference(x)) is np.float64
    for x in (np.full((2, 3), 0.3), np.array([])):
        got = func(x)
        assert got.dtype == np.float64 and got.shape == x.shape
    assert np.isnan(func(math.nan)) and np.isnan(func(np.array([math.nan]))[0])


# ----------------------------- lognormal calculus -----------------------------


def test_truncated_mean_no_truncation_limit():
    law = Lognormal(0.3, 0.5)
    b = float(law.quantile(1 - 1e-15))
    assert lognormal_truncated_mean(law, b) == pytest.approx(lognormal_moments(law)[0], abs=1e-9)
    unit = Lognormal(math.log(1.0) - 0.5 * 0.2 ** 2, 0.2)
    assert lognormal_truncated_mean(unit, float(unit.quantile(1 - 1e-15))) == \
        pytest.approx(1.0, abs=1e-9)


def test_truncated_mean_against_quadrature():
    law = Lognormal(-0.02, 0.2)
    num = quad(lambda x: x * float(law.pdf(x)), 0.0, 1.0, limit=400)[0]
    expected = num / float(law.cdf(1.0))
    assert lognormal_truncated_mean(law, 1.0) == pytest.approx(expected, abs=1e-8)


def test_truncated_mean_strict_bounds():
    law = Lognormal(-0.02, 0.2)
    for q in (1e-6, 0.1, 0.5, 0.9, 1 - 1e-10):
        b = float(law.quantile(q))
        t = lognormal_truncated_mean(law, b)
        assert t < b and t < lognormal_moments(law)[0]


def test_truncated_mean_errors():
    law = Lognormal(0.0, 1.0)
    with pytest.raises(ValueError):
        lognormal_truncated_mean(law, 0.0)
    with pytest.raises(ValueError):
        lognormal_truncated_mean(law, -1.0)
    with pytest.raises(NegligibleMassError):
        lognormal_truncated_mean(law, 1e-200)


def test_put_value_basics():
    assert lognormal_put_value(1.0, 0.0, 0.2) == 0.0
    # deterministic limit: price surely above the strike
    assert lognormal_put_value(1.0, 0.9, 1e-6) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        lognormal_put_value(-1.0, 0.5, 0.2)
    with pytest.raises(ValueError):
        lognormal_put_value(1.0, 0.5, 0.0)


def test_put_value_range():
    for b in (0.2, 0.8, 1.0, 1.7):
        p = lognormal_put_value(1.0, b, 0.3)
        assert max(b - 1.0, 0.0) - 1e-12 <= p < b


def test_put_truncated_mean_cross_identity():
    """P(V<b)*(E[V|V<b] - b) + E[(b-V)+] vanishes on a 100-point (b, s) grid."""
    worst = 0.0
    for s in np.linspace(0.05, 0.8, 10):
        law = Lognormal(-0.5 * s * s, float(s))  # mean 1
        for b in np.linspace(0.3, 1.9, 10):
            mass = float(law.cdf(b))
            lhs = mass * (lognormal_truncated_mean(law, float(b)) - b)
            worst = max(worst, abs(lhs + lognormal_put_value(1.0, float(b), float(s))))
    assert worst < 1e-12


def test_put_identity_single_point():
    law = Lognormal(-0.02, 0.2)
    lhs = float(law.cdf(1.0)) * (lognormal_truncated_mean(law, 1.0) - 1.0)
    assert lhs == pytest.approx(-lognormal_put_value(1.0, 1.0, 0.2), abs=1e-12)


# --------------------------- property-based checks ----------------------------


@given(alpha=st.floats(0.5, 5.0), beta=st.floats(0.5, 5.0),
       q=st.floats(1e-4, 1.0 - 1e-4))
@example(alpha=1.1015625, beta=1.1015625, q=0.5)
@settings(max_examples=60, deadline=None)
def test_beta_roundtrip_property(alpha, beta, q):
    """cdf(quantile(q)) = q up to 1e-13 plus two ulps of x through the
    density."""
    dist = Beta(alpha, beta)
    x = float(dist.quantile(q))
    bound = 1e-13 + 2.0 * float(dist.pdf(x)) * float(np.spacing(x))
    assert abs(float(dist.cdf(x)) - q) <= bound


@given(a=st.floats(-1.0, 1.0), s=st.floats(0.05, 1.5),
       q=st.floats(1e-4, 1.0 - 1e-4))
@settings(max_examples=60, deadline=None)
def test_lognormal_roundtrip_property(a, s, q):
    dist = Lognormal(a, s)
    assert float(dist.cdf(dist.quantile(q))) == pytest.approx(q, abs=1e-9)


@given(s=st.floats(0.05, 0.9), b=st.floats(0.05, 3.0))
@settings(max_examples=80, deadline=None)
def test_put_identity_property(s, b):
    law = Lognormal(-0.5 * s * s, s)
    mass = float(law.cdf(b))
    if mass < 1e-8:
        return
    lhs = mass * (lognormal_truncated_mean(law, b) - b)
    assert abs(lhs + lognormal_put_value(1.0, b, s)) < 1e-12


@given(v0=st.floats(1e-3, 1e3), b=st.floats(1e-300, 1e300), s=st.floats(1e-3, 5.0),
       numpy_scalar=st.booleans())
@example(v0=1.0, b=0.8064801100926781, s=0.8, numpy_scalar=False)
@settings(max_examples=200, deadline=None)
def test_put_scalar_strike_equals_array_path(v0, b, s, numpy_scalar):
    """A float strike (numpy's float64 too) gives a Python float with the
    bits of the same strike in a 1-element array."""
    value = lognormal_put_value(v0, np.float64(b) if numpy_scalar else b, s)
    [element] = lognormal_put_value(v0, np.array([b]), s)
    assert type(value) is float
    assert value.hex() == float(element).hex()


# subnormal strikes overflow v0/b to inf, where the put is exactly 0
@pytest.mark.parametrize("b, put", [(5e-324, 0.0), (1e-310, 0.0), (0.0, 0.0),
                                    (1e300, 1e300), (math.inf, math.inf)])
def test_put_value_extreme_strikes_warn_nothing(b, put):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [lognormal_put_value(10.0, b, 0.5),
                  lognormal_put_value(10.0, np.float64(b), 0.5),
                  float(lognormal_put_value(10.0, np.array([b]), 0.5)[0])]
    assert [v.hex() for v in values] == [put.hex()] * 3


# ------------------------------ validation et al. -----------------------------


@pytest.mark.parametrize("ctor", [
    lambda: Uniform(1.0, 1.0),
    lambda: Uniform(-0.5, 1.0),
    lambda: Beta(0.0, 2.0),
    lambda: Beta(2.0, -1.0),
    lambda: Beta(math.inf, 2.0),
    lambda: Beta(2.0, math.inf),
    lambda: Lognormal(0.0, 0.0),
    lambda: EmpiricalGrid(np.array([0.0, 0.5, 0.4]), np.array([0.0, 0.5, 1.0])),
    lambda: EmpiricalGrid(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.6, 0.6])),
    lambda: EmpiricalGrid(np.array([-0.1, 0.5, 1.0]), np.array([0.0, 0.5, 1.0])),
    lambda: EmpiricalGrid(np.array([0.0, 1.0]), np.array([0.1, 1.0])),
])
def test_invalid_parameters_rejected(ctor):
    with pytest.raises(ValueError):
        ctor()


@pytest.mark.parametrize("log_sd", [math.inf, -math.inf, math.nan])
def test_lognormal_rejects_non_finite_log_sd(log_sd):
    """lognormal(0,inf) would put half its mass at 0 and half at infinity."""
    with pytest.raises(ValueError, match="log_sd"):
        Lognormal(0.0, log_sd)
    with pytest.raises(ValueError, match="log_sd"):
        parse_distribution(f"lognormal(0,{log_sd})")


def test_lower_tail_exponents():
    assert lower_tail_exponent(Uniform(0, 1), 0.0, 1e-3) == 1.0
    assert lower_tail_exponent(Beta(2, 2), 0.0, 1e-3) == 2.0
    assert lower_tail_exponent(_empirical_example(), 0.0, 1e-3) == 1.0
    # positive CDF mass means no power-law correction
    assert lower_tail_exponent(Uniform(0, 1), 0.5, 1e-3) == 0.0
    # lognormal lower tail is steeper than any polynomial
    assert lower_tail_exponent(Lognormal(0.0, 0.3), 0.0, 1e-3) > 10.0


def test_parse_distribution_forms(tmp_path):
    assert parse_distribution("uniform(0,1)") == Uniform(0.0, 1.0)
    assert parse_distribution("beta(2, 2)") == Beta(2.0, 2.0)
    assert parse_distribution("lognormal(-0.02,0.2)") == Lognormal(-0.02, 0.2)
    csv_path = tmp_path / "law.csv"
    csv_path.write_text("x,cdf\n0.0,0.0\n0.5,0.4\n1.0,1.0\n")
    emp = parse_distribution(f"empirical({csv_path})")
    assert emp.kind == "empirical-grid"
    assert float(emp.cdf(0.5)) == pytest.approx(0.4)


@pytest.mark.parametrize("spec", ["gamma(1,1)", "uniform(0)", "uniform(a,b)",
                                  "uniform 0 1", "beta(2,2,2)"])
def test_parse_distribution_rejects(spec):
    with pytest.raises(ValueError):
        parse_distribution(spec)


def test_empirical_csv_header_checked(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("value,prob\n0,0\n1,1\n")
    with pytest.raises(ValueError, match="header"):
        parse_distribution(f"empirical({bad})")


@pytest.mark.parametrize("body", ["x,cdf\n0,0\n1\n", "x,cdf\n0,0\n1,1,1\n"],
                         ids=["short-row", "extra-field"])
def test_empirical_csv_malformed_row_rejected(tmp_path, body):
    bad = tmp_path / "bad.csv"
    bad.write_text(body)
    with pytest.raises(ValueError, match="line 3: expected 2 fields"):
        parse_distribution(f"empirical({bad})")


def test_empirical_csv_header_may_hold_spaces(tmp_path):
    law = tmp_path / "law.csv"
    law.write_text("x, cdf\n0.0, 0.0\n0.5, 0.4\n\n1.0, 1.0\n")
    emp = parse_distribution(f"empirical({law})")
    assert np.array_equal(emp.points, [0.0, 0.5, 1.0])
    assert np.array_equal(emp.cdf_values, [0.0, 0.4, 1.0])
