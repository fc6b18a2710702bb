"""Kendall's tau on checkerboard densities, the concordance potential that
drives the entropy solver, and finite-difference residuals of the
local-dependence equation d2/dudv log c = const * c.
"""

from __future__ import annotations

import numpy as np

from .copula_core import CheckerboardDensity, FrankParameter, GridFunction, frank_cdf
from .copula_core import _check_support, _log1p_split
from .errors import NonPositiveDensity


#: from this many rows on, the running sum down the columns adds row by
#: row: numpy's axis-0 cumsum walks each column with a stride of one row,
#: which at n = 1024 takes 11 ms against 2 ms for the row adds (0.25 ms
#: either way at n = 256, and the cumsum is faster below; 2-CPU VM,
#: numpy 2.4)
_ROW_ADDS_FROM = 256


def _column_running_sum(m: np.ndarray) -> np.ndarray:
    """m.cumsum(axis=0), bit for bit: each row is the previous sum plus
    the row, in the order the cumsum adds them."""
    if m.shape[0] < _ROW_ADDS_FROM:
        return m.cumsum(axis=0)
    C = np.empty_like(m)
    C[0] = m[0]
    for i in range(1, m.shape[0]):
        np.add(C[i - 1], m[i], out=C[i])
    return C


def _potential_from_masses(m: np.ndarray) -> np.ndarray:
    """O(n^2) assembly of S as two signed prefix passes, one per axis.

    S_ij = sum_k sgn(i-k) sum_l sgn(j-l) mass_kl factors into one signed
    sum along each axis.  Along an axis with inclusive cumsum C and total
    T, C_i - x_i is the sum over k < i and T - C_i the sum over k > i
    (sgn(0) = 0 drops k = i), so

        sum_k sgn(i-k) x_k = 2 C_i - x_i - T.

    No marginal assumption is made, so the result matches the O(n^4)
    brute force on arbitrary mass matrices; it is also the half-gradient
    of the tau functional.
    """
    S = m
    for axis in (0, 1):
        C = _column_running_sum(S) if axis == 0 else S.cumsum(axis=1)
        T = C.take([-1], axis=axis)
        C *= 2.0
        C -= S
        C -= T
        S = C
    return S


def concordance_potential(c: CheckerboardDensity) -> np.ndarray:
    """Signed quadrant mass sums S_ij of a checkerboard density, in O(n^2).

    S_ij = sum_{k,l} sgn(i-k) sgn(j-l) mass_kl; the gradient of the tau
    functional with respect to mass_ij is 2 * S_ij.
    """
    return _potential_from_masses(c.masses)


def kendall_tau_checkerboard(c: CheckerboardDensity) -> float:
    """Kendall's tau of a checkerboard copula.

    Equal to sum_ij mass_ij * S_ij: pairs falling in the same row or
    column band (or the same cell) contribute zero in expectation because
    mass is uniform within each cell, so only the pure sign-sum over
    distinct cell indices remains.
    """
    S = _potential_from_masses(c.masses)
    S *= c.masses
    return float(S.sum())


def liouville_residual(density_eval, constant: float, n: int) -> GridFunction:
    """Residual of d2/dudv log c - constant * c at interior grid nodes.

    ``density_eval(u, v)`` must accept broadcasting numpy arrays and be
    strictly positive wherever the 4-point mixed stencil (step h = 1/n)
    touches.  Boundary nodes of the returned grid are set to 0.
    """
    if n < 8:
        raise ValueError("n must be >= 8")
    h = 1.0 / n
    nodes = np.arange(1, n) / n
    u = nodes[:, None]
    v = nodes[None, :]
    stencil = [
        density_eval(u + h, v + h),
        density_eval(u + h, v - h),
        density_eval(u - h, v + h),
        density_eval(u - h, v - h),
    ]
    for s in stencil:
        if np.any(np.asarray(s) <= 0.0):
            raise NonPositiveDensity("density must be positive on the stencil")
    mixed = (
        np.log(stencil[0]) - np.log(stencil[1])
        - np.log(stencil[2]) + np.log(stencil[3])
    ) / (4.0 * h * h)
    resid = np.zeros((n + 1, n + 1))
    resid[1:n, 1:n] = mixed - constant * density_eval(u, v)
    return GridFunction(n, resid)


def frank_F_identity(p: FrankParameter, n: int) -> float:
    """Sup-norm gap between the Frank cdf and -(1/theta) log F on the grid.

    F(u,v) = (e^{-t} - e^{-tv} - e^{-tu} + e^{-t(u+v)}) / (e^{-t} - 1)
    is the bilinear-in-exponentials form whose log reproduces the cdf
    exactly; this returns the largest node deviation on an (n+1)^2 grid.
    log F is log1p(F - 1), with F - 1 formed as in frank_cdf, wherever F >= 1/2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = _check_support(p)
    nodes = np.arange(n + 1) / n
    u = nodes[:, None]
    v = nodes[None, :]
    x = np.expm1(-t * u) / np.expm1(-t) * np.expm1(-t * v)  # F - 1
    F = (
        np.exp(-t) - np.exp(-t * v) - np.exp(-t * u) + np.exp(-t * (u + v))
    ) / np.expm1(-t)
    recovered = -_log1p_split(x, np.log(np.where(x < -0.5, F, 1.0))) / t
    return float(np.max(np.abs(frank_cdf(p, u, v) - recovered)))
