"""Frank copula family in closed form, plus the checkerboard discretization
and the Debye-function bridge between the dependence parameter theta and
Kendall's tau.

All evaluators are written in expm1/log1p style so they stay stable for
|theta| up to ``THETA_SUPPORT`` (= 50); larger parameters are rejected.
The key trick is the denominator rearrangement

    1 - e^{-t} - (1 - e^{-tu})(1 - e^{-tv})
        = -[ e^{-tu}(1 - e^{-tv}) + e^{-tv}(1 - e^{-t(1-v)}) ]

whose right-hand side is a sum of same-sign terms, so it never cancels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NonInvertible, ThetaOutOfSupport, ZeroTau

#: largest |theta| the closed-form evaluators accept.
THETA_SUPPORT = 50.0

#: marginal tolerance for constructed checkerboard densities.
MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class FrankParameter:
    """Dependence parameter of the Frank family; finite and nonzero."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta == 0.0:
            raise ValueError("theta must be finite and nonzero")


def _check_support(p: FrankParameter):
    if abs(p.theta) > THETA_SUPPORT:
        raise ThetaOutOfSupport(
            f"|theta| <= {THETA_SUPPORT} is the supported range for "
            f"closed-form evaluation, got {p.theta}"
        )


def _check_unit(x, name):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return x


def _em(x):
    """1 - e^{-x}, accurate for small |x|."""
    return -np.expm1(-x)


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

    def to_json(self, tau=None, theta=None) -> str:
        return json.dumps(
            {
                "n": self.n,
                "masses": [float(x) for x in self.masses.ravel()],
                "meta": {"tau": tau, "theta": theta},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckerboardDensity":
        obj = json.loads(text)
        n = int(obj["n"])
        m = np.array(obj["masses"], dtype=float).reshape(n, n)
        return cls(n, m)

    def to_csv(self) -> str:
        lines = [
            ",".join(repr(float(x)) for x in row) for row in self.masses
        ]
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

    def to_csv(self) -> str:
        """Node coordinates and value, one row per node."""
        out = ["u,v,value"]
        for i in range(self.n + 1):
            for j in range(self.n + 1):
                out.append(
                    f"{i / self.n!r},{j / self.n!r},{self.values[i, j]!r}"
                )
        return "\n".join(out) + "\n"


# -- closed-form family ----------------------------------------------------


def frank_cdf(p: FrankParameter, u, v):
    """C(u,v) = -(1/theta) ln(1 + (e^{-tu}-1)(e^{-tv}-1)/(e^{-t}-1)).

    Accepts scalars or broadcasting arrays in [0, 1].
    """
    _check_support(p)
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    t = p.theta
    bracket = np.exp(-t * u) * _em(t * v) + np.exp(-t * v) * _em(t * (1.0 - v))
    return -np.log(bracket / _em(t)) / t


def frank_density(p: FrankParameter, u, v):
    """Frank copula density c(u,v); strictly positive on [0,1]^2."""
    _check_support(p)
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    t = p.theta
    eu = np.exp(-t * u)
    ev = np.exp(-t * v)
    bracket = eu * _em(t * v) + ev * _em(t * (1.0 - v))
    return t * _em(t) * eu * ev / bracket**2


def frank_generator(p: FrankParameter, s):
    """psi(s) = -(1/theta) ln(1 - (1-e^{-theta}) e^{-s}) for s >= 0."""
    _check_support(p)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("generator argument must be >= 0")
    t = p.theta
    return -np.log1p(np.expm1(-t) * np.exp(-s)) / t


def frank_generator_inverse(p: FrankParameter, s):
    """psi^{-1}(s) = -ln((e^{-theta s} - 1)/(e^{-theta} - 1)) for s in (0, 1]."""
    _check_support(p)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s > 1.0):
        raise ValueError("generator inverse needs s in (0, 1]")
    t = p.theta
    return -np.log(np.expm1(-t * s) / np.expm1(-t))


def frank_sample(p: FrankParameter, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` pairs by conditional inversion; shape (count, 2).

    u is uniform; v solves dC/du = w in closed form, so the result is exact
    (no root finding) and fully determined by the seed.
    """
    _check_support(p)
    if count < 1:
        raise ValueError("count must be >= 1")
    t = p.theta
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


def debye_d1(x: float) -> float:
    """First Debye function D1(x) = (1/x) * int_0^x t/(e^t - 1) dt.

    Defined for all real x (even in the x -> 0 limit, where it equals 1);
    a short series handles |x| < 1e-3, quadrature the rest.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if abs(x) < 1e-3:
        # t/(e^t-1) = 1 - t/2 + t^2/12 - t^4/720 + ..., integrated and /x
        return 1.0 - x / 4.0 + x * x / 36.0 - x**4 / 3600.0

    def integrand(t):
        return t / math.expm1(t) if t != 0.0 else 1.0

    val, _ = quad(integrand, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val / x


def tau_from_theta(p: FrankParameter) -> float:
    """Kendall's tau of the Frank copula: 1 - (4/theta)(1 - D1(theta)).

    That form cancels for small theta, so |theta| < 1e-2 uses the series
    theta/9 - theta^3/900 + theta^5/52920 (next term below 1e-17 relative).
    """
    t = p.theta
    if abs(t) < 1e-2:
        t2 = t * t
        return t * (1.0 / 9.0 - t2 * (1.0 / 900.0 - t2 / 52920.0))
    return 1.0 - 4.0 / t * (1.0 - debye_d1(t))


#: widest |theta| the tau inversion will search; tau(600) ~ 0.9934.
_THETA_SEARCH_CAP = 600.0


def theta_from_tau(tau: float, tol: float = 1e-10) -> FrankParameter:
    """Invert the tau-theta relation by bracketed bisection + Newton polish.

    Guarantees |tau_from_theta(result) - tau| <= tol.  Raises ZeroTau for
    tau = 0 (independence has no Frank parameter) and NonInvertible when
    |tau| >= 1 or tau is beyond the searchable theta range.
    """
    if not math.isfinite(tau) or abs(tau) >= 1.0:
        raise NonInvertible(f"tau must lie in (-1, 1), got {tau}")
    if tau == 0.0:
        raise ZeroTau("tau = 0 corresponds to independence, not a Frank copula")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    sign = 1.0 if tau > 0 else -1.0

    def g(t):
        return tau_from_theta(FrankParameter(t)) - tau

    # tau(theta) <= theta / 9 for theta > 0, so 9 tau is a lower bracket
    lo, hi = 9.0 * tau, sign * 50.0
    g_lo, g_hi = g(lo), g(hi)
    while g_lo * g_hi > 0.0:
        hi *= 2.0
        if abs(hi) > _THETA_SEARCH_CAP:
            raise NonInvertible(
                f"tau = {tau} needs |theta| beyond {_THETA_SEARCH_CAP}"
            )
        g_hi = g(hi)
    # tau_from_theta is increasing, so order the bracket by function sign
    # (g(9 tau) is 0 to rounding for tiny tau, so either end may decide)
    if g_lo > 0.0 or g_hi < 0.0:
        lo, hi = hi, lo
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        gm = g(mid)
        if abs(gm) <= tol:
            break
        if gm < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    # one Newton polish with a central-difference slope
    h = 1e-6 * max(1.0, abs(mid))
    slope = (g(mid + h) - g(mid - h)) / (2.0 * h)
    if slope != 0.0:
        cand = mid - g(mid) / slope
        if cand != 0.0 and abs(g(cand)) <= abs(g(mid)):
            mid = cand
    return FrankParameter(mid)


# -- checkerboard discretization --------------------------------------------


def frank_checkerboard(p: FrankParameter, n: int) -> CheckerboardDensity:
    """Cell masses as second differences of the cdf on the n x n grid."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = np.arange(n + 1) / n
    cdf = frank_cdf(p, nodes[:, None], nodes[None, :])
    masses = np.diff(np.diff(cdf, axis=0), axis=1)
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
