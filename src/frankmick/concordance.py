"""Kendall's tau on checkerboard densities, the concordance potential that
drives the entropy solver, and finite-difference residuals of the
local-dependence equation d2/dudv log c = const * c.
"""

from __future__ import annotations

import numpy as np

from .copula_core import CheckerboardDensity
from .errors import NonPositiveDensity, _require_size


#: the smallest n that liouville_residual and ``verify liouville`` accept
LIOUVILLE_MIN_N = 8

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


def liouville_residual(density_eval, constant: float, n: int) -> np.ndarray:
    """Residual of d2/dudv log c - constant * c, by the 4-point mixed stencil
    with step h = 1/n, as an (n+1) x (n+1) array over the nodes (i/n, j/n)
    that is 0 on the boundary; a non-finite residual raises ValueError.

    ``density_eval(u, v)`` is called once, on broadcasting numpy arrays of
    the nodes, and must be strictly positive at every node.
    """
    n = _require_size(n, "n", least=LIOUVILLE_MIN_N)
    h = 1.0 / n
    nodes = np.arange(n + 1) / n
    c = np.broadcast_to(density_eval(nodes[:, None], nodes[None, :]), (n + 1, n + 1))
    if np.any(c <= 0.0):
        raise NonPositiveDensity("density must be positive at every node")
    L = np.log(c)
    resid = np.zeros((n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        mixed = (L[2:, 2:] - L[2:, :-2] - L[:-2, 2:] + L[:-2, :-2]) / (4.0 * h * h)
        resid[1:n, 1:n] = mixed - constant * c[1:n, 1:n]
    if not np.all(np.isfinite(resid)):
        raise ValueError("residual values must be finite")
    return resid
