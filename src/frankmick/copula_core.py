"""Frank copula family in closed form, plus the checkerboard discretization
and the Debye-function bridge between the dependence parameter theta and
Kendall's tau.

All evaluators are written in expm1/log1p style and evaluate theta as
_check_support returns it, up to ``THETA_SUPPORT`` (= 300).  The
density and the checkerboard work at |theta|, by C_{-theta}(u, v) = u -
C_theta(u, 1 - v).  The tau-theta bridge needs no bound of its own (its
inversion climbs from 9|tau| by Newton steps that tau's concavity keeps
below the root, up to |theta| = 600).  The key trick is the denominator
rearrangement

    1 - e^{-t} - (1 - e^{-tu})(1 - e^{-tv})
        = e^{-tu}(1 - e^{-tv}) + e^{-tv}(1 - e^{-t(1-v)})

whose right-hand side is a sum of same-sign terms, so it never cancels.
The checkerboard evaluates only its top half: the Frank copula is radially
symmetric, C(u, v) = u + v - 1 + C(1 - u, 1 - v), and the bottom half is
the top half turned by half a turn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonInvertible, ThetaOutOfSupport, ZeroTau, _require_fields

#: largest |theta| the evaluators accept: the smallest checkerboard cells,
#: about e^{-2 |theta|}, stay normal floats up to about 350.
THETA_SUPPORT = 300.0

#: marginal tolerance for constructed checkerboard densities.
MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class FrankParameter:
    """Dependence parameter of the Frank family; finite and nonzero."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta == 0.0:
            raise ValueError("theta must be finite and nonzero")


def _check_support(p: FrankParameter) -> float:
    """The theta at which the closed forms evaluate p.

    They accept 0 < |theta| <= THETA_SUPPORT and raise ThetaOutOfSupport
    past the upper end.  At the lower end |theta| is lifted to 1e-300: the
    copula departs from independence by O(theta), so it is independence to
    round-off there and below, and theta / n stays a normal float.
    """
    t = p.theta
    if abs(t) > THETA_SUPPORT:
        raise ThetaOutOfSupport(
            f"|theta| <= {THETA_SUPPORT} is the supported range for "
            f"closed-form evaluation, got {t}"
        )
    return math.copysign(max(abs(t), 1e-300), t)


def _check_unit(x, name):
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails both
        raise ValueError(f"{name} must lie in [0, 1]")
    return x


def _em(x):
    """1 - e^{-x}, accurate for small |x|."""
    return -np.expm1(-x)


def _log1p_split(x, far_log):
    """log(1 + x): log1p(x), or far_log where x < -1/2 and 1 + x cancels."""
    far = x < -0.5
    return np.log1p(np.where(far, 0.0, x)) + np.where(far, far_log, 0.0)


def _bracket(t, eu, ev, v):
    """e^{-tu} (1 - e^{-tv}) + e^{-tv} (1 - e^{-t(1-v)}) from eu = e^{-tu}
    and ev = e^{-tv}: (1 - e^{-t}) e^{-t C(u, v)} as a sum of same-sign terms."""
    return eu * _em(t * v) + ev * _em(t * (1.0 - v))


@dataclass(frozen=True)
class CheckerboardDensity:
    """n x n matrix of cell masses with uniform marginals.

    Cell (i, j) holds the total probability of
    [(i-1)/n, i/n] x [(j-1)/n, j/n]; every row and column sums to 1/n.
    """

    n: int
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"masses must be {self.n}x{self.n}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        if m.min() < -1e-12:
            raise ValueError(f"negative cell mass {m.min()}")
        target = 1.0 / self.n
        row_err = np.max(np.abs(m.sum(axis=1) - target))
        col_err = np.max(np.abs(m.sum(axis=0) - target))
        if max(row_err, col_err) > MARGINAL_TOL:
            raise ValueError(
                f"marginals deviate from 1/n by {max(row_err, col_err):.3e}"
            )
        object.__setattr__(self, "masses", m)

    # -- serialization ----------------------------------------------------

    def _record(self, tau=None, theta=None) -> dict:
        """The JSON object of the board: n, row-major masses and meta."""
        return {
            "n": self.n,
            "masses": self.masses.ravel().tolist(),
            "meta": {"tau": tau, "theta": theta},
        }

    @classmethod
    def _from_record(cls, obj: dict) -> "CheckerboardDensity":
        _require_fields(obj, ("n", "masses"), "board record")
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"board record field 'n' is not an integer: {n!r}")
        try:
            return cls(n, np.array(obj["masses"], dtype=float).reshape(n, n))
        except TypeError:
            raise ValueError("board record field 'masses' is not numbers") from None

    def to_json(self, tau=None, theta=None) -> str:
        return json.dumps(self._record(tau, theta))

    @classmethod
    def from_json(cls, text: str) -> "CheckerboardDensity":
        return cls._from_record(json.loads(text))

    def to_csv(self) -> str:
        lines = [",".join(map(repr, row)) for row in self.masses.tolist()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "CheckerboardDensity":
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in text.strip().splitlines()
        ]
        m = np.array(rows, dtype=float)
        return cls(m.shape[0], m)


def uniform_checkerboard(n: int) -> CheckerboardDensity:
    """Independence copula on an n x n grid (all cells 1/n^2)."""
    return CheckerboardDensity(n, np.full((n, n), 1.0 / (n * n)))


@dataclass(frozen=True)
class GridFunction:
    """Values of a bivariate function sampled at the (n+1)^2 nodes (i/n, j/n)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n + 1, self.n + 1):
            raise ValueError(
                f"values must be {(self.n + 1, self.n + 1)}, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", v)


# -- closed-form family ----------------------------------------------------


def frank_cdf(p: FrankParameter, u, v):
    """C(u,v) = -(1/theta) ln(1 + (e^{-tu}-1)(e^{-tv}-1)/(e^{-t}-1)).

    Accepts scalars or broadcasting arrays in [0, 1].
    """
    t = _check_support(p)
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    x = np.expm1(-t * u) / np.expm1(-t) * np.expm1(-t * v)  # no underflow at tiny t
    bracket = _bracket(t, np.exp(-t * u), np.exp(-t * v), v)  # (1 + x)(1 - e^{-t})
    return -_log1p_split(x, np.log(bracket / _em(t))) / t


def frank_density(p: FrankParameter, u, v):
    """Frank copula density c(u,v); strictly positive on [0,1]^2."""
    theta = _check_support(p)
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    t = abs(theta)  # c_{-theta}(u, v) = c_theta(u, 1 - v)
    v = v if theta > 0.0 else 1.0 - v
    eu = np.exp(-t * u)
    ev = np.exp(-t * v)
    b = _bracket(t, eu, ev, v)  # divided into each small factor: no 0/0 at tiny t
    return (t / b) * (_em(t) / b) * eu * ev


def frank_generator(p: FrankParameter, s):
    """psi(s) = -(1/theta) ln(1 - (1-e^{-theta}) e^{-s}) for s >= 0."""
    t = _check_support(p)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("generator argument must be >= 0")
    k, e = np.expm1(-t), np.exp(-s)
    x = k * e  # 1 + x = (1 - e^{-s}) + e^{-(theta + s)}
    # a subnormal x has lost digits: log1p(x) = x there, so psi = -(k / t) e
    sub = np.abs(x) < np.finfo(float).tiny
    psi = -_log1p_split(np.where(sub, 0.0, x), np.log(_em(s) + np.exp(-(t + s)))) / t
    return psi - np.where(sub, k / t * e, 0.0)


def frank_generator_inverse(p: FrankParameter, s):
    """psi^{-1}(s) = -ln((e^{-theta s} - 1)/(e^{-theta} - 1)) for s in (0, 1]."""
    t = _check_support(p)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s > 1.0):
        raise ValueError("generator inverse needs s in (0, 1]")
    k, a = np.expm1(-t), np.expm1(-t * s)
    x = -np.exp(-t * s) * np.expm1(-t * (1.0 - s)) / k  # a/k - 1
    # a/k may underflow: log|a| - log|k|, with |a| = |t| s where a is subnormal
    small = np.abs(a) < np.finfo(float).tiny
    log_a = np.where(small, np.log(abs(t)) + np.log(s), np.log(np.abs(a) + small))
    return -_log1p_split(x, log_a - np.log(np.abs(k)))


def frank_sample(p: FrankParameter, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` pairs by conditional inversion; shape (count, 2).

    u is uniform; v solves dC/du = w in closed form, so the result is exact
    (no root finding) and fully determined by the seed.
    """
    t = _check_support(p)
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    w = rng.random(count)
    # -t v = -t u + log1p(w expm1(-t (1-u))) - log1p((1-w) expm1(-t u)).
    # Both log1p arguments stay above -1 (bar the w = 0 limit, where v = 0),
    # so large |t| does not round v to an edge; clip only guards the last ulp.
    upper = np.log1p(w * np.expm1(-t * (1.0 - u)))
    lower = np.log1p((1.0 - w) * np.expm1(-t * u))
    v = u - (upper - lower) / t
    return np.column_stack([u, np.clip(v, 0.0, 1.0)])


# -- Debye bridge -----------------------------------------------------------


def _bernoulli_even(count):
    """B_2, B_4, ..., B_{2 count} as exact fractions (standard recurrence)."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[2::2]


#: tau(x) = x * sum_k c_k x^{2k-2} with c_k = 4 B_2k / ((2k+1)(2k)!); the
#: series converges for |x| < 2 pi; below |x| = _SERIES_LIMIT the terms
#: after the 16th sum to under 1e-17 of tau, so 17 reach round-off.
_TAU_SERIES = tuple(
    float(4 * b / ((2 * k + 1) * math.factorial(2 * k)))
    for k, b in enumerate(_bernoulli_even(17), start=1)
)
_TAU_SLOPE_SERIES = tuple(
    (2 * k - 1) * c for k, c in enumerate(_TAU_SERIES, start=1)
)
_SERIES_LIMIT = 2.0
_PI2_6 = math.pi**2 / 6.0

#: Li2(z) = z * sum_k z^{k-1} / k^2; from |x| = _SERIES_LIMIT on z = e^-x
#: <= e^-2, where the first term left out, z^19/361, is below 1e-19.
_LI2_SERIES = tuple(1.0 / (k * k) for k in range(1, 19))


def _poly(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _tau_series(x: float) -> float:
    return x * _poly(_TAU_SERIES, x * x)


def _d1_positive(x: float) -> float:
    """D1(x) for x >= _SERIES_LIMIT from the dilogarithm:
    int_0^x t/(e^t - 1) dt = pi^2/6 + x log(1 - e^-x) - Li2(e^-x)."""
    z = math.exp(-x)
    return (_PI2_6 + x * math.log1p(-z) - z * _poly(_LI2_SERIES, z)) / x


def debye_d1(x: float) -> float:
    """First Debye function D1(x) = (1/x) * int_0^x t/(e^t - 1) dt.

    Defined for all real x (even in the x -> 0 limit, where it equals 1).
    Below |x| = 2 it is 1 - x/4 + (x/4) tau(x) with tau's Bernoulli series;
    from there on the dilogarithm closed form, with D1(-x) = D1(x) + x/2.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if abs(x) < _SERIES_LIMIT:
        return 1.0 - 0.25 * x + 0.25 * x * _tau_series(x)
    d1 = _d1_positive(abs(x))
    return d1 if x > 0.0 else d1 - 0.5 * x


def _tau(x: float) -> float:
    """Kendall's tau of the Frank copula at theta = x, for x >= 0."""
    if x < _SERIES_LIMIT:
        return _tau_series(x)
    return 1.0 - 4.0 / x * (1.0 - _d1_positive(x))


def _tau_slope(theta: float) -> float:
    """dtau/dtheta of the Frank bridge (even in theta; 1/9 at 0).

    Above |theta| = 2 it is 4(1 - 2 D1)/theta^2 + 4/(theta (e^theta - 1)).
    """
    x = abs(float(theta))
    if x < _SERIES_LIMIT:
        return _poly(_TAU_SLOPE_SERIES, x * x)
    # 1/(e^x - 1) as e^-x / (1 - e^-x), which cannot overflow
    tail = math.exp(-x) / -math.expm1(-x)
    return 4.0 * (1.0 - 2.0 * _d1_positive(x)) / (x * x) + 4.0 * tail / x


def tau_from_theta(p: FrankParameter) -> float:
    """Kendall's tau of the Frank copula: 1 - (4/theta)(1 - D1(theta)).

    That form cancels for small theta, so |theta| < 2 sums tau's own odd
    Bernoulli series theta/9 - theta^3/900 + theta^5/52920 - ... instead.
    """
    t = p.theta
    return math.copysign(_tau(abs(t)), t)


#: widest |theta| the tau inversion returns; tau(600) ~ 0.9934.
_THETA_SEARCH_CAP = 600.0
_TAU_AT_CAP = _tau(_THETA_SEARCH_CAP)


def theta_from_tau(tau: float) -> FrankParameter:
    """Invert the tau-theta relation by Newton's method on |tau| from below.

    tau is increasing and concave on theta > 0 with tau(theta) <= theta/9,
    so Newton steps from 9|tau| climb to the root without overshooting.
    They climb until a step no longer does, which happens at round-off,
    and the last iterate they reached is the answer.  Raises ZeroTau for
    tau = 0 (independence has no Frank parameter) and NonInvertible when
    |tau| >= 1 or |tau| > tau(600).
    """
    if not math.isfinite(tau) or abs(tau) >= 1.0:
        raise NonInvertible(f"tau must lie in (-1, 1), got {tau}")
    if tau == 0.0:
        raise ZeroTau("tau = 0 corresponds to independence, not a Frank copula")
    target = abs(tau)
    if target > _TAU_AT_CAP:
        raise NonInvertible(
            f"tau = {tau} needs |theta| beyond {_THETA_SEARCH_CAP}"
        )

    step = 9.0 * target
    for _ in range(200):
        t = step
        step = t - (_tau(t) - target) / _tau_slope(t)
        if step <= t:
            break
    return FrankParameter(math.copysign(t, tau))


# -- checkerboard discretization --------------------------------------------


def frank_checkerboard(p: FrankParameter, n: int) -> CheckerboardDensity:
    """Cell masses on the n x n grid, from the cdf's cross-ratio.

    With A(u, v) = 1 + a(u) a(v)/k, a(u) = e^{-theta u} - 1 and
    k = e^{-theta} - 1, cell (i, j) holds

        (1/theta) log1p(-da_i da_j / (k A(u_i, v_j) A(u_i+1, v_j+1))),

    a product of same-sign terms, so no second difference of the cdf
    cancels.  It is computed at |theta| (C_{-theta}(u, v) = u - C_theta(u,
    1 - v), so a negative theta reverses the columns).

    The Frank copula is radially symmetric, C(u, v) = u + v - 1 + C(1 - u,
    1 - v), so cell (i, j) holds the mass of cell (n-1-i, n-1-j): only the
    top ceil(n/2) rows are evaluated, and the board is exactly equal to
    itself turned half a turn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = _check_support(p)
    t = abs(theta)
    h = (n + 1) // 2
    nodes = np.arange(n + 1) / n
    e = np.exp(-t * nodes)
    # -k A(u, v) = _bracket at the node pairs of the top h rows
    bracket = _bracket(t, e[: h + 1, None], e, nodes)
    # -da_i = e^{-t u_i} (1 - e^{-t/n}); each factor is divided in before
    # the next is multiplied in, so no partial product leaves the normal
    # range (tiny theta included)
    da = e[:n] * _em(t / n)
    masses = np.empty((n, n))
    top = masses[:h]
    np.divide(da[:h, None], bracket[:h, :n], out=top)
    top *= da[None, :]
    top /= bracket[1:, 1:]
    top *= _em(t)
    np.log1p(top, out=top)
    top /= t
    masses[h:] = masses[: n - h][::-1, ::-1]
    if n % 2:
        masses[h - 1, h:] = masses[h - 1, : n - h][::-1]
    if theta < 0.0:
        masses = masses[:, ::-1]
    return CheckerboardDensity(n, masses)


def checkerboard_cdf_eval(c: CheckerboardDensity, u: float, v: float) -> float:
    """Cdf of the checkerboard copula (bilinear within each cell)."""
    u = float(_check_unit(u, "u"))
    v = float(_check_unit(v, "v"))
    n = c.n
    left = np.arange(n) / n
    ov_u = np.clip(u - left, 0.0, 1.0 / n)
    ov_v = np.clip(v - left, 0.0, 1.0 / n)
    return float(n * n * (ov_u @ c.masses @ ov_v))
