"""Minimum-information checkerboard copula under a fixed Kendall's tau.

Minimizes sum p log p over n x n cell-mass matrices with uniform marginals
and prescribed tau.  The stationarity condition

    log p_ij = const + alpha_i + beta_j + 2 * lambda_d * S_ij(p)

(S the concordance potential) is solved by an Anderson-accelerated damped
self-consistent iteration whose marginal constraints are enforced by
Sinkhorn scaling.  Its one residual, max|center(log p - 2 lambda_d S)|
with center removing row and column means, measures the departure from
the additive form above; it drives the damped step, stops the iteration
and goes in the report.  An outer safeguarded secant search, seeded by
the Frank bridge, adjusts the multiplier lambda_d until the achieved tau
matches the target.  The continuum analog of the multiplier maps to a
Frank parameter via theta = 4 * lambda_d, which the report exposes as
``implied_theta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .copula_core import (
    MARGINAL_TOL,
    THETA_SUPPORT,
    CheckerboardDensity,
    _checkerboard_at,
    _tau_slope,
    theta_from_tau,
    uniform_checkerboard,
)
from .concordance import _potential_from_masses
from .errors import (
    DivergenceDetected,
    GridMismatch,
    NoConvergence,
    NotConverged,
    TauInfeasible,
    _require_fields,
    _require_size,
)

_SINKHORN_CAP = 50_000
_ANDERSON_MEMORY = 3  # difference pairs kept by inner_fixed_point
_ANDERSON_RIDGE = 1e-12  # ridge on its normal equations, relative to their trace
_FORCING = 0.1  # off-target exit: residual within this fraction of the tau miss
_NEWTON_STEPS = 50  # Newton steps before it gives up, and halvings of one step


@dataclass(frozen=True)
class SolverConfig:
    n: int
    target_tau: float
    tol_tau: float = 1e-6
    tol_fix: float = 1e-9
    max_outer: int = 60
    max_inner: int = 5000
    damping: float = 0.5
    multiplier_init: float | str = "auto"

    def __post_init__(self):
        for name in ("n", "max_inner", "max_outer"):
            object.__setattr__(self, name, _require_size(getattr(self, name), name))
        if not -1.0 < self.target_tau < 1.0:
            raise ValueError("target_tau must lie in (-1, 1)")
        if not (0.0 < self.tol_tau < math.inf and 0.0 < self.tol_fix < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.multiplier_init != "auto":
            object.__setattr__(self, "multiplier_init", float(self.multiplier_init))
            if not math.isfinite(self.multiplier_init):
                raise ValueError("multiplier_init must be 'auto' or finite")
        # numpy floats would carry their precision into the solve and fail to_json
        for name in ("target_tau", "tol_tau", "tol_fix", "damping"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class SolverState:
    density: CheckerboardDensity
    multiplier: float
    row_potentials: np.ndarray
    col_potentials: np.ndarray


@dataclass(frozen=True)
class SolverReport:
    state: SolverState
    achieved_tau: float
    stationarity_residual: float
    outer_iterations: int
    inner_iterations_total: int
    converged: bool
    implied_theta: float

    def to_json(self, cfg: SolverConfig | None = None) -> str:
        obj = {f: getattr(self, f) for f in _SCALAR_FIELDS}
        obj["multiplier"] = self.state.multiplier
        obj["row_potentials"] = self.state.row_potentials.tolist()
        obj["col_potentials"] = self.state.col_potentials.tolist()
        obj["density"] = self.state.density._record(self.achieved_tau, self.implied_theta)
        if cfg is not None:
            obj["config"] = asdict(cfg)
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "SolverReport":
        obj = json.loads(text)
        state_keys = ("density", "multiplier", "row_potentials", "col_potentials")
        _require_fields(obj, state_keys + _SCALAR_FIELDS, "report")
        density = CheckerboardDensity._from_record(obj["density"])
        for name in ("multiplier",) + _SCALAR_FIELDS:  # bool is no number here
            what = "bool" if name == "converged" else "number"
            if type(obj[name]) not in {"bool": (bool,), "number": (int, float)}[what]:
                raise ValueError(f"report field {name!r} is not a {what}")
        for name in state_keys[2:]:
            v = obj[name]
            if type(v) is not list or len(v) != density.n or not all(
                type(x) in (int, float) for x in v
            ):
                raise ValueError(f"report field {name!r} is not {density.n} numbers")
        state = SolverState(
            density=density,
            multiplier=obj["multiplier"],
            row_potentials=np.array(obj["row_potentials"]),
            col_potentials=np.array(obj["col_potentials"]),
        )
        return cls(state, **{f: obj[f] for f in _SCALAR_FIELDS})


#: SolverReport fields stored at the top level of its JSON form.
_SCALAR_FIELDS = tuple(f.name for f in fields(SolverReport) if f.name != "state")


def sinkhorn_project(kernel) -> CheckerboardDensity:
    """Scale a positive kernel to uniform 1/n marginals.

    Returns D_r . kernel . D_c; cross-ratios of the kernel are preserved
    exactly.  The masses are those of _sinkhorn at tolerance MARGINAL_TOL;
    the solver calls _sinkhorn itself, at each evaluation's tol_p.  Raises
    ValueError for a kernel that is not square, nonempty, finite and
    positive, and NotConverged for badly scaled kernels.
    """
    K = np.asarray(kernel, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("kernel must be a square matrix")
    _require_size(K.shape[0], "side of the square kernel")
    if not np.all(np.isfinite(K)) or np.any(K <= 0.0):
        raise ValueError("kernel entries must be finite and > 0")
    return CheckerboardDensity(K.shape[0], _sinkhorn(K, MARGINAL_TOL))


def _sinkhorn(K, tol):
    """Masses D_r K D_c whose row and column sums are within tol of 1/n.

    Each sweep sets r, then c, so the columns are exact; the sweeps stop on
    the row residual max|r (K c) - 1/n|, and P and both of its marginals
    are checked (_scaled) only then.  The projection switches once to
    _newton_finish from the current r and c when the last sweep's rate,
    ratio = resid / prev_resid, predicts more than budget = max(12, n / 2)
    further sweeps (resid * ratio^budget > tol), or when ratio >= 1, which
    also keeps ratio^budget finite.  When the finish hands back its column
    scaling after _NEWTON_STEPS steps, the sweeps resume from it and never
    switch again: some kernels converge only that way.  Raises
    NotConverged after _SINKHORN_CAP sweeps.  README's notes on the solver
    give the costs behind the budget.
    """
    n = K.shape[0]
    target = 1.0 / n
    KT = K.T
    c = np.ones(n)
    Kc = K @ c
    budget = max(12.0, 0.5 * n)
    prev_resid = math.inf
    newton = True  # until the one switch to the Newton finish
    for _ in range(_SINKHORN_CAP):
        r = target / Kc
        c = target / (KT @ r)
        Kc = K @ c
        e = r * Kc  # the row residual, formed in place
        resid = np.maximum.reduce(np.abs(np.subtract(e, target, out=e), out=e))
        if resid <= tol:
            P, _, miss = _scaled(K, r, c)
            if np.maximum.reduce(miss) <= tol:
                return P
        if newton:
            ratio = resid / prev_resid
            if ratio >= 1.0 or resid * ratio**budget > tol:
                newton = False
                P, c = _newton_finish(K, r, c, tol)
                if P is not None:
                    return P
                Kc = K @ c
        prev_resid = resid
    raise NotConverged(
        f"Sinkhorn scaling did not reach {tol} in {_SINKHORN_CAP} sweeps"
    )


def _scaled(K, r, c):
    """P = D_r K D_c, its row sums then its column sums, and their misses
    |sums - 1/n|: the exit test of _sinkhorn and _newton_finish."""
    n = K.shape[0]
    P = r[:, None] * K
    P *= c
    sums = np.empty(2 * n)
    np.add.reduce(P, axis=1, out=sums[:n])
    np.add.reduce(P, axis=0, out=sums[n:])
    return P, sums, np.abs(sums - 1.0 / n)


def _newton_direction(P, sums):
    """Sinkhorn-Newton step (dx, dy) on (log r, log c) at masses P.

    sums holds P's row sums rho, then its column sums kappa.  c[0] is the
    gauge (dy[0] = 0), so the step solves [[diag(rho), B], [B^T,
    diag(kappa[1:])]] (dx, dy[1:]) = -(dev_r, dev_c[1:]), B = P[:, 1:] and
    dev the marginal deviations from 1/n, through its (n - 1)^2 Schur
    complement Sc = diag(kappa[1:]) - B^T W with W = B / rho, which is
    symmetric positive definite: Sc dy[1:] = W^T dev_r - dev_c[1:], then
    dx = -(dev_r + B dy[1:]) / rho.  Raises LinAlgError when Sc is singular.
    """
    n = P.shape[0]
    dev = sums - 1.0 / n
    rho, dev_r = sums[:n], dev[:n]
    B = P[:, 1:]
    W = B / rho[:, None]
    Sc = B.T @ W
    np.negative(Sc, out=Sc)
    Sc.reshape(-1)[::n] += sums[n + 1 :]
    rhs = W.T @ dev_r
    rhs -= dev[n + 1 :]
    dy = np.zeros(n)  # dy[0] = 0 is the gauge
    dy[1:] = np.linalg.solve(Sc, rhs)
    dx = -dev_r  # -dev_r - B dy is -(dev_r + B dy) to the bit
    dx -= B @ dy[1:]
    dx /= rho
    return dx, dy


def _newton_finish(K, r, c, tol):
    """Sinkhorn-Newton (Brauer, Clason, Lorenz & Wirth 2017) on (log r, log c).

    Returns (P, c) with P = D_r K D_c once both marginals are within tol,
    or (None, c) with the last column scaling after _NEWTON_STEPS steps.
    Each step is _newton_direction, with c[0] held fixed as the gauge,
    halved until the L1 marginal error falls; when the step's system is
    singular, or _NEWTON_STEPS halvings do not lower the error, the step is
    one Sinkhorn sweep instead.
    """
    target = 1.0 / K.shape[0]
    P, sums, miss = _scaled(K, r, c)
    for _ in range(_NEWTON_STEPS):
        if np.maximum.reduce(miss) <= tol:
            return P, c
        try:
            dx, dy = _newton_direction(P, sums)
            halvings = _NEWTON_STEPS
        except np.linalg.LinAlgError:
            halvings = 0  # no direction: the step is the sweep below
        err = np.add.reduce(miss)
        for _ in range(halvings):
            # a trial that overflows has an inf or NaN error and is halved
            with np.errstate(over="ignore", invalid="ignore"):
                r_t, c_t = r * np.exp(dx), c * np.exp(dy)
                P_t, sums_t, miss_t = _scaled(K, r_t, c_t)
            if np.add.reduce(miss_t) < err:
                break
            dx *= 0.5  # exact, so each trial is the full step times 2^-k
            dy *= 0.5
        else:
            r_t = target / (K @ c)
            c_t = target / (K.T @ r_t)
            P_t, sums_t, miss_t = _scaled(K, r_t, c_t)
        r, c, P, sums, miss = r_t, c_t, P_t, sums_t, miss_t
    return None, c


def _center(M: np.ndarray) -> np.ndarray:
    """M without its row and column means: the gauge Sinkhorn ignores.

    This is also the residual of the least-squares fit M ~ const + a_i + b_j.
    """
    M = M - np.add.reduce(M, axis=1, keepdims=True) / M.shape[1]  # as M.mean does
    M -= np.add.reduce(M, axis=0) / M.shape[0]
    return M


def _anderson_step(G, F, dG, dF):
    """Type-II Anderson update: G minus the combination of the rows of dG
    whose residual differences, the rows of dF, best cancel the residual F."""
    A = dF @ dF.T
    scale = A.trace()
    if not scale > 0.0:
        return G
    A.flat[:: len(A) + 1] += _ANDERSON_RIDGE * scale
    gamma = np.linalg.solve(A, dF @ F.ravel())
    return G - (gamma @ dG).reshape(G.shape)


def _projection_tol(lambda_d: float, cfg: SolverConfig) -> float:
    """tol_p of an inner solve at lambda_d: a marginal error delta moves its
    residual by about 2 |lambda_d| delta, kept within 0.01 tol_in."""
    tol_in = min(cfg.tol_fix, cfg.tol_tau)
    return max(1e-14, min(MARGINAL_TOL, 0.01 * tol_in / max(1.0, 2.0 * abs(lambda_d))))


def inner_fixed_point(
    start: CheckerboardDensity,
    lambda_d: float,
    cfg: SolverConfig,
    off_target_exit: bool = False,
) -> SolverReport:
    """Damped iteration p <- Sinkhorn(exp(2 lambda_d S(p))), Anderson-accelerated.

    The iterate is a log-kernel L (README's notes on the solver derive the
    step).  Iterate zero is the start's masses p with L = log p; iterate
    k > 0 is p = Sinkhorn(exp(L + beta)) to tol_p = _projection_tol(lambda_d,
    cfg), warm-started by the column scaling beta = log p[0, :] - L[0, :]
    of the last iterate.  Each iterate is evaluated once: S(p), tau = sum p
    S(p) and the residual R = center(log p - 2 lambda_d S(p)).  The step is
    G = L + F with F = -cfg.damping * R, less the least-squares combination
    of the last _ANDERSON_MEMORY differences of G and of F (iterate zero's
    pair included).

    Stops at the first iterate with max|R| within tol_in = min(cfg.tol_fix,
    cfg.tol_tau), or after cfg.max_inner projections.  A start within tol_in
    therefore comes back unprojected, so a start must be as exact as a
    projected iterate: solve_mick's starts are exact boards or projected to
    tol_p.  With off_target_exit it also stops at the first iterate whose
    tau misses the target, miss = |tau - cfg.target_tau| > cfg.tol_tau,
    while max|R| <= _FORCING * miss.  Raises ValueError for a non-finite
    lambda_d, GridMismatch for a start whose grid is not cfg.n, and
    DivergenceDetected for a start with a zero cell, or when a kernel or a
    projected cell underflows.

    Returns the SolverReport of the last iterate: its masses, validated
    once, with the row and column means of log p - 2 lambda_d S(p), less
    the grand mean, as potentials; its tau and max|R|; one outer iteration
    and the projection count; converged judged against cfg, so an
    evaluation that took the off-target exit is never converged.
    """
    if not math.isfinite(lambda_d):
        raise ValueError(f"lambda_d must be finite, not {lambda_d!r}")
    if start.n != cfg.n:
        raise GridMismatch(f"start is {start.n} x {start.n}, cfg.n is {cfg.n}")
    p = start.masses
    if np.any(p <= 0.0):
        raise DivergenceDetected("initial density must be strictly positive")
    d = cfg.damping
    tol_in = min(cfg.tol_fix, cfg.tol_tau)
    tol_p = _projection_tol(lambda_d, cfg)
    L = log_p = np.log(p)  # iterate zero
    beta = np.zeros(p.shape[0])
    dG = dF = np.empty((0, p.size))  # the last differences of G and of F, as rows
    G_prev = F_prev = None
    for iterations in range(cfg.max_inner + 1):
        if iterations:
            warm = L + beta
            kernel = np.exp(warm - np.maximum.reduce(warm, axis=None))
            if not np.minimum.reduce(kernel, axis=None) > 0.0:
                raise DivergenceDetected(f"kernel underflowed at multiplier {lambda_d}")
            p = _sinkhorn(kernel, tol_p)
            if np.minimum.reduce(p, axis=None) <= 0.0:
                raise DivergenceDetected("cell mass underflowed to zero")
            log_p = np.log(p)
            beta = log_p[0] - L[0]
        S = _potential_from_masses(p)
        M = log_p - 2.0 * lambda_d * S
        R = _center(M)
        resid = float(np.maximum.reduce(np.abs(R), axis=None))
        tau = float(np.add.reduce(p * S, axis=None))
        miss = abs(tau - cfg.target_tau)
        off_target = off_target_exit and miss > cfg.tol_tau
        if resid <= tol_in or off_target and resid <= _FORCING * miss:
            break
        F = -d * R
        G = L + F
        if G_prev is not None:
            keep = max(0, len(dG) + 1 - _ANDERSON_MEMORY)  # the newest memory - 1 stay
            dG = np.concatenate((dG[keep:], (G - G_prev).reshape(1, -1)))
            dF = np.concatenate((dF[keep:], (F - F_prev).reshape(1, -1)))
        G_prev, F_prev = G, F
        L = _anderson_step(G, F, dG, dF)
    grand = M.mean()
    state = SolverState(
        density=CheckerboardDensity(p.shape[0], p),
        multiplier=lambda_d,
        row_potentials=M.mean(axis=1) - grand,
        col_potentials=M.mean(axis=0) - grand,
    )
    return SolverReport(
        state=state,
        achieved_tau=tau,
        stationarity_residual=resid,
        outer_iterations=1,
        inner_iterations_total=iterations,
        converged=miss <= cfg.tol_tau and resid <= cfg.tol_fix,
        implied_theta=4.0 * lambda_d,
    )


def tau_max_for_grid(n: int) -> float:
    """Largest tau attainable on an n-grid: tau of the diagonal checkerboard.

    Its n cells of mass 1/n each see S_ii = (n - 1) / n, so tau = (n - 1) / n.
    """
    _require_size(n, "n")
    return (n - 1) / n


def _frank_board(lam: float, n: int) -> CheckerboardDensity:
    """F(clip(4 lam)): the Frank checkerboard at theta = 4 lam clipped to
    +-THETA_SUPPORT, and the uniform board at lam = 0."""
    return _checkerboard_at(min(max(4.0 * lam, -THETA_SUPPORT), THETA_SUPPORT), n)


def _transport(p: CheckerboardDensity, new, D, s, D_prev, tol):
    """Sinkhorn(exp(log new + D + s (D - D_prev))) to tol: the masses p of
    the last evaluation carried to the multiplier of the _frank_board new,
    with their departure from the boards extrapolated along the secant
    (README's notes on the solver).  D = log p - log F is p's departure
    from its own board F, and D_prev that of the evaluation before (0.0
    before there is one); s = 0 is the plain transport p * new / F.  The
    log-kernel's maximum is taken off before exp.  A kernel with a zero or
    non-finite cell starts from p."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        log_k = np.log(new.masses) + D + s * (D - D_prev)
        kernel = np.exp(log_k - log_k.max())
    if kernel.min() > 0.0:  # False when a cell is NaN
        return CheckerboardDensity(p.n, _sinkhorn(kernel, tol))
    return p


def _with_totals(report: SolverReport, reports) -> SolverReport:
    """report, re-stamped with the outer and inner counts of all reports."""
    return replace(
        report,
        outer_iterations=len(reports),
        inner_iterations_total=sum(r.inner_iterations_total for r in reports),
    )


def solve_mick(cfg: SolverConfig) -> SolverReport:
    """Solve the discrete minimum-information problem for cfg.target_tau.

    Deterministic given the config.  Tau = 0 is one evaluation: the
    inner_fixed_point of the uniform board at lambda_d = 0.  A |tau| at or
    beyond tau_max_for_grid(cfg.n) raises TauInfeasible before any work.
    Otherwise the search over lambda_d starts at cfg.multiplier_init, from
    the uniform board, or with "auto" at the closed-form discrete answer
    lambda_0 (README's notes on the solver), from _frank_board(lambda_0).
    Its first step follows the Frank bridge's slope dtau/dlambda = 4
    tau'(4 lambda), later steps the secant through the last two
    evaluations, each capped at max(0.25, |lambda| / 2); once the target is
    bracketed, a guess outside the bracket becomes its midpoint, and a
    non-positive slope falls back to a capped step toward the target.  Each
    evaluation is an inner_fixed_point with the off-target exit, started
    from the previous evaluation's masses p carried to the new multiplier
    along the Frank boards (_transport).  From the third evaluation on,
    their departure D = log p - log F(4 lambda) from the Frank board is
    extrapolated too, along the secant through the last two evaluations'
    departures; each evaluation's D is formed once and the last two kept.
    A kernel with a zero or non-finite cell starts from p.

    Returns the first evaluation within cfg.tol_tau of the target, which
    therefore never stopped early, with the search's total outer and inner
    counts.  Its one give-up is cfg.max_outer: after that many evaluations,
    bracketed or not, it raises NoConvergence carrying the first evaluation
    closest to the target, with the same totals; that evaluation may have
    stopped at the off-target exit.  A multiplier too large for the grid
    raises DivergenceDetected from the evaluation (inner_fixed_point).
    """
    target = cfg.target_tau
    if target == 0.0:
        return inner_fixed_point(uniform_checkerboard(cfg.n), 0.0, cfg)
    limit = tau_max_for_grid(cfg.n)
    if abs(target) >= limit:
        raise TauInfeasible(
            f"|tau| = {abs(target)} is not attainable on an "
            f"n = {cfg.n} grid (max {limit})"
        )
    if cfg.multiplier_init == "auto":
        theta = theta_from_tau(target).theta
        lam = (theta + 2.0 * theta / (9.0 * _tau_slope(theta) * cfg.n**2)) / 4.0
    else:
        lam = cfg.multiplier_init
    board = _frank_board(lam, cfg.n)  # F(4 lambda) of the last evaluation
    start = board if cfg.multiplier_init == "auto" else uniform_checkerboard(cfg.n)
    D = 0.0  # departure log p - log F(4 lambda) of the last evaluation

    reports = []  # one per evaluation
    # first slope dtau/dlambda: the Frank bridge's, tau'(theta) at theta = 4 lambda
    slope = 4.0 * _tau_slope(4.0 * lam)
    lo = hi = None  # multipliers whose tau fell below / above the target
    while True:
        report = inner_fixed_point(start, lam, cfg, True)
        reports.append(report)
        tau = report.achieved_tau
        if abs(tau - target) <= cfg.tol_tau:
            return _with_totals(report, reports)
        if tau < target:
            lo = lam
        else:
            hi = lam
        if len(reports) >= cfg.max_outer:
            misses = [abs(r.achieved_tau - target) for r in reports]
            best = reports[misses.index(min(misses))]  # the first closest
            raise NoConvergence(
                f"outer search exhausted {cfg.max_outer} evaluations "
                f"(best tau {best.achieved_tau} vs target {target})",
                report=_with_totals(best, reports),
            )
        p = report.state.density
        D_prev, D = D, np.log(p.masses / board.masses)
        lam_prev = reports[-2].state.multiplier if len(reports) > 1 else lam
        if lam_prev != lam:
            slope = (tau - reports[-2].achieved_tau) / (lam - lam_prev)
        # secant step, capped so a poor start still grows geometrically
        cap = max(0.25, 0.5 * abs(lam))
        step = (target - tau) / slope if slope > 0.0 else math.inf
        new_lam = lam + math.copysign(min(abs(step), cap), target - tau)
        if None not in (lo, hi) and not min(lo, hi) < new_lam < max(lo, hi):
            new_lam = 0.5 * (lo + hi)
        # no secant for the second evaluation, or through a repeated multiplier
        s = (new_lam - lam) / (lam - lam_prev) if lam_prev != lam else 0.0
        lam = new_lam
        board = _frank_board(lam, cfg.n)
        tol_p = _projection_tol(lam, cfg)  # that of the next evaluation
        start = _transport(p, board, D, s, D_prev, tol_p)
