"""Independent reference implementations used only by the tests.

Everything here is deliberately slow and dumb: brute-force sign sums,
tensor-product quadrature, and a generic augmented-Lagrangian projected
gradient optimizer.  None of it shares code paths with the library
routines it checks.
"""

import json
import math
from dataclasses import asdict

import mpmath
import numpy as np

from frankmick.concordance import _potential_from_masses
from frankmick.errors import NotConverged
from frankmick.mick_solver import _NEWTON_STEPS, _SINKHORN_CAP, sinkhorn_project


def brute_potential(m: np.ndarray) -> np.ndarray:
    """O(n^4) signed quadrant sums, straight from the definition."""
    n = m.shape[0]
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    S[i, j] += np.sign(i - k) * np.sign(j - l) * m[k, l]
    return S


def brute_tau(m: np.ndarray) -> float:
    return float(np.sum(m * brute_potential(m)))


def two_cumsum_potential(m: np.ndarray) -> np.ndarray:
    """The potential as one whole-matrix cumsum per axis: each signed sum
    is 2 C - x - T, C the inclusive cumsum along the axis, T its total."""
    S = m
    for axis in (0, 1):
        C = S.cumsum(axis=axis)
        S = 2.0 * C - S - C.take([-1], axis=axis)
    return S


def gauss_legendre_2d(f, order=64) -> float:
    """Tensor-product Gauss-Legendre integral of f over the unit square."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    return float(w @ f(x[:, None], x[None, :]) @ w)


def project_affine(X: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal projection onto {row sums = col sums = 1/n}."""
    r = X.sum(axis=1) - 1.0 / n
    c = X.sum(axis=0) - 1.0 / n
    s = X.sum() - 1.0
    return X - r[:, None] / n - c[None, :] / n + s / (n * n)


def projected_gradient_mick(n, target, mu=50.0, outers=100, inners=5000,
                            tol=1e-13):
    """Augmented-Lagrangian projected gradient for the discrete problem.

    Minimizes sum p log p over positive matrices with uniform 1/n marginals
    and tau(p) = target.  Steps are Barzilai-Borwein with positivity
    backtracking; the tau constraint is handled by a multiplier/penalty
    outer loop.  Returns the optimal mass matrix.
    """
    p = np.full((n, n), 1.0 / (n * n))
    nu = 0.0

    def grad_of(p):
        S = _potential_from_masses(p)
        cv = float(np.sum(p * S)) - target
        return np.log(p) + 1.0 + (mu * cv - nu) * 2.0 * S, cv

    for _ in range(outers):
        g, cv = grad_of(p)
        step = 0.02
        change = np.inf
        for _ in range(inners):
            q = project_affine(p - step * g, n)
            while q.min() <= 0.0:
                step /= 2.0
                q = project_affine(p - step * g, n)
            g_new, cv = grad_of(q)
            dp = (q - p).ravel()
            dg = (g_new - g).ravel()
            denom = dp @ dg
            if denom != 0.0:
                step = min(abs(dp @ dp / denom), 1.0)
            change = np.max(np.abs(q - p))
            p, g = q, g_new
            if change < tol:
                break
        nu -= mu * cv
        if abs(cv) < 1e-13 and change < tol:
            break
    return p


def damped_fixed_point(n, lambda_d, damping=0.5, tol=1e-13, max_steps=5000):
    """Plain damped iteration p <- Sinkhorn(exp((1-d) log p + d 2 lambda_d S(p)))
    from uniform masses, with a cold projection each step, until the
    sup-norm change is at most tol; no acceleration, gauge or warm start."""
    p = np.full((n, n), 1.0 / (n * n))
    for _ in range(max_steps):
        log_kernel = (1.0 - damping) * np.log(p) + damping * (
            2.0 * lambda_d * _potential_from_masses(p)
        )
        q = sinkhorn_project(np.exp(log_kernel - log_kernel.max())).masses
        change = np.max(np.abs(q - p))
        p = q
        if change <= tol:
            return p
    raise RuntimeError(f"damped iteration did not reach {tol}")


def sinkhorn_sweeps(kernel, tol=1e-14, max_sweeps=100_000):
    """Plain alternating Sinkhorn scaling from c = 1 that never switches to
    another method: sweeps until both marginals of D_r K D_c are within
    tol of 1/n, checking the full masses after every sweep."""
    K = np.asarray(kernel, dtype=float)
    n = K.shape[0]
    c = np.ones(n)
    for _ in range(max_sweeps):
        r = 1.0 / (n * (K @ c))
        c = 1.0 / (n * (K.T @ r))
        P = r[:, None] * K * c[None, :]
        rows = np.abs(P.sum(axis=1) - 1.0 / n).max()
        cols = np.abs(P.sum(axis=0) - 1.0 / n).max()
        if max(rows, cols) <= tol:
            return P
    raise RuntimeError(f"Sinkhorn sweeps did not reach {tol}")


def newton_block_step(P):
    """Sinkhorn-Newton direction (dx, dy) on (log r, log c) at masses P by a
    dense solve of the full (2n - 1)^2 block system [[diag(row sums), P],
    [P^T, diag(column sums)]] without the row and column of the gauge c[0];
    dy[0] = 0."""
    n = P.shape[0]
    sums = np.concatenate((P.sum(axis=1), P.sum(axis=0)))
    B = P[:, 1:]
    J = np.block([[np.diag(sums[:n]), B], [B.T, np.diag(sums[n + 1 :])]])
    d = np.linalg.solve(J, -np.delete(sums - 1.0 / n, n))
    return d[:n], np.concatenate(([0.0], d[n:]))


def additive_fit_residual(M: np.ndarray) -> float:
    """Sup-norm residual of the least-squares fit M ~ a_i + b_j, solved by
    np.linalg.lstsq on the 2n-column design of row and column indicators
    (rank 2n - 1; lstsq takes the minimum-norm solution)."""
    n = M.shape[0]
    eye = np.eye(n)
    X = np.hstack((np.repeat(eye, n, axis=0), np.tile(eye, (n, 1))))
    coef = np.linalg.lstsq(X, M.ravel(), rcond=None)[0]
    return float(np.max(np.abs(M.ravel() - X @ coef)))


def discrete_liouville_residual(p: np.ndarray, lam: float) -> float:
    """max |Delta^2 log p - 2 lam (2x2 block sums of p)| over interior nodes.

    Delta^2 f_ij = f_ij - f_i,j+1 - f_i+1,j + f_i+1,j+1.  The mixed second
    difference of the concordance potential S is the 2x2 block sum of the
    masses, and that of any const + a_i + b_j is zero, so stationarity
    log p = const + a_i + b_j + 2 lam S(p) implies this discrete form of
    the Liouville equation (log c)_uv = 2 theta c at theta = 4 lam.  It
    uses the masses alone: no potential, no row or column terms.
    """
    log_p = np.log(p)
    d2 = log_p[:-1, :-1] - log_p[:-1, 1:] - log_p[1:, :-1] + log_p[1:, 1:]
    block = p[:-1, :-1] + p[:-1, 1:] + p[1:, :-1] + p[1:, 1:]
    return float(np.max(np.abs(d2 - 2.0 * lam * block)))


def sample_checkerboard(masses: np.ndarray, count: int, seed: int):
    """Draw (u, v) pairs from a checkerboard density: pick a cell by mass,
    then uniform within the cell."""
    n = masses.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.choice(n * n, size=count, p=masses.ravel() / masses.sum())
    i, j = np.divmod(idx, n)
    u = (i + rng.random(count)) / n
    v = (j + rng.random(count)) / n
    return u, v


def frank_tau_mp(theta, dps=50):
    """Kendall's tau of the Frank copula in mpmath, through the dilogarithm.

    int_0^x t/(e^t - 1) dt = pi^2/6 + x log(1 - e^-x) - Li2(e^-x), and tau
    is odd in theta.
    """
    with mpmath.workdps(dps):
        x = abs(mpmath.mpf(theta))
        z = mpmath.exp(-x)
        integral = mpmath.pi**2 / 6 + x * mpmath.log1p(-z) - mpmath.polylog(2, z)
        tau = 1 - 4 / x * (1 - integral / x)
        return float(mpmath.sign(theta) * tau)


def frank_theta_mp(tau, dps=50):
    """Frank theta of a tau in (0, 1): root of frank_tau_mp near 9 tau."""
    with mpmath.workdps(dps):
        x0 = mpmath.mpf(9) * mpmath.mpf(tau)

        def f(t):
            z = mpmath.exp(-t)
            integral = mpmath.pi**2 / 6 + t * mpmath.log1p(-z) - mpmath.polylog(2, z)
            return 1 - 4 / t * (1 - integral / t) - mpmath.mpf(tau)

        return float(mpmath.findroot(f, x0))


def random_checkerboard(rng, n) -> np.ndarray:
    """Random valid checkerboard masses (positive kernel, Sinkhorn-scaled)."""
    return sinkhorn_project(np.exp(rng.normal(size=(n, n)))).masses


def random_feasible_with_tau(rng, n, target):
    """Random density with uniform marginals and tau = target.

    Tilts a random kernel along a concordant direction and finds the tilt
    whose tau matches by Brent's method; returns None (rejection) when the
    random kernel's reachable tau range does not bracket the target.
    """
    from scipy.optimize import brentq

    from frankmick.errors import NotConverged

    g = (2.0 * np.arange(1, n + 1) - 1.0 - n) / n
    D = np.outer(g, g)
    logR = rng.normal(size=(n, n))

    def density(w):
        return sinkhorn_project(np.exp(logR + w * D)).masses

    def tau_of(m):
        return float(np.sum(m * _potential_from_masses(m)))

    lo, hi = -20.0, 20.0
    try:
        if not tau_of(density(lo)) < target < tau_of(density(hi)):
            return None
    except NotConverged:
        return None
    return density(brentq(lambda w: tau_of(density(w)) - target, lo, hi, xtol=1e-13))


def frank_d1_mp(x, dps=40):
    """Debye D1(x) by mpmath quadrature of its definition, for either sign
    of x (no reflection formula, no dilogarithm)."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        integral = mpmath.quad(lambda t: t / mpmath.expm1(t) if t else 1, [0, x])
        return float(integral / x)


def frank_tau_slope_mp(theta, dps=50):
    """dtau/dtheta of the Frank bridge by mpmath's numerical derivative of
    the dilogarithm form of tau (odd in theta, so even slope)."""
    with mpmath.workdps(dps):

        def tau(t):
            z = mpmath.exp(-t)
            integral = mpmath.pi**2 / 6 + t * mpmath.log1p(-z) - mpmath.polylog(2, z)
            return 1 - 4 / t * (1 - integral / t)

        return float(mpmath.diff(tau, abs(mpmath.mpf(theta))))


def frank_cells_mp(theta, n, cells, dps):
    """Masses of the given (i, j) cells of the n-grid Frank checkerboard, as
    second differences of the mpmath cdf at ``dps`` digits.  A cell of mass
    m next to cdf values of order 1 needs dps well above -log10(m)."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(theta)
        k = mpmath.expm1(-t)
        memo = {}

        def cdf(a, b):
            if (a, b) not in memo:
                u, v = mpmath.mpf(a) / n, mpmath.mpf(b) / n
                memo[a, b] = -mpmath.log(
                    1 + mpmath.expm1(-t * u) * mpmath.expm1(-t * v) / k
                ) / t
            return memo[a, b]

        return [
            float(cdf(i + 1, j + 1) - cdf(i, j + 1) - cdf(i + 1, j) + cdf(i, j))
            for i, j in cells
        ]


def frank_dps(theta):
    """mpmath digits for a Frank reference at theta: the smallest cell or
    density value is about e^{-2|theta|} next to terms of order 1, so the
    reference cancels about 0.87 |theta| digits; 40 more are kept."""
    return 40 + int(0.87 * abs(theta))


def frank_cdf_mp(theta, u, v, dps):
    """Frank cdf -(1/theta) log(1 + expm1(-theta u) expm1(-theta v) /
    expm1(-theta)) in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        t, u, v = mpmath.mpf(theta), mpmath.mpf(u), mpmath.mpf(v)
        return float(
            -mpmath.log1p(mpmath.expm1(-t * u) * mpmath.expm1(-t * v) / mpmath.expm1(-t))
            / t
        )


def frank_density_mp(theta, u, v, dps):
    """Frank density theta (1 - e^-theta) e^{-theta (u + v)} / D^2, D = 1 -
    e^-theta - (1 - e^{-theta u})(1 - e^{-theta v}), straight from the
    definition; D cancels, so dps must grow with |theta|."""
    with mpmath.workdps(dps):
        t, u, v = mpmath.mpf(theta), mpmath.mpf(u), mpmath.mpf(v)
        k = -mpmath.expm1(-t)
        d = k - mpmath.expm1(-t * u) * mpmath.expm1(-t * v)
        return float(t * k * mpmath.exp(-t * (u + v)) / d**2)


def frank_generator_mp(theta, s, dps):
    """psi(s) = -(1/theta) log(1 + expm1(-theta) e^-s) in mpmath."""
    with mpmath.workdps(dps):
        t, s = mpmath.mpf(theta), mpmath.mpf(s)
        return float(-mpmath.log1p(mpmath.expm1(-t) * mpmath.exp(-s)) / t)


def frank_generator_inverse_mp(theta, s, dps):
    """psi^{-1}(s) = -log(expm1(-theta s) / expm1(-theta)) in mpmath."""
    with mpmath.workdps(dps):
        t, s = mpmath.mpf(theta), mpmath.mpf(s)
        return float(-mpmath.log(mpmath.expm1(-t * s) / mpmath.expm1(-t)))


def reference_board_json(board, tau=None, theta=None) -> str:
    """A board's JSON text, element by element as the format first shipped."""
    masses = [float(x) for x in board.masses.ravel()]
    return json.dumps(
        {"n": board.n, "masses": masses, "meta": {"tau": tau, "theta": theta}}
    )


def reference_board_csv(board) -> str:
    rows = [",".join(repr(float(x)) for x in row) for row in board.masses]
    return "\n".join(rows) + "\n"


def reference_report_json(report, cfg) -> str:
    """A report's JSON text, its board nested through a second JSON pass."""
    obj = {
        name: getattr(report, name)
        for name in (
            "achieved_tau",
            "stationarity_residual",
            "outer_iterations",
            "inner_iterations_total",
            "converged",
            "implied_theta",
        )
    }
    obj["multiplier"] = report.state.multiplier
    obj["row_potentials"] = [float(x) for x in report.state.row_potentials]
    obj["col_potentials"] = [float(x) for x in report.state.col_potentials]
    obj["density"] = json.loads(
        reference_board_json(
            report.state.density, report.achieved_tau, report.implied_theta
        )
    )
    obj["config"] = asdict(cfg)
    return json.dumps(obj)


def spearman_mi_board(n, target_tau, tol=1e-10):
    """The minimum-information checkerboard copula under a fixed Spearman's
    rho, with rho set so that the board's Kendall's tau is target_tau.

    On the grid rho = 12 sum_ij p_ij u_i v_j - 3 (u_i, v_j the cell
    midpoints) is linear in the masses, so the entropy minimiser at
    multiplier lam is the Sinkhorn projection of exp(lam u v^T), with no
    fixed point; lam is bisected until tau is within tol of the target.
    Its continuum limit a(u) b(v) exp(lam u v) is not Frank (Meeuwissen &
    Bedford, J. Stat. Comput. Simul. 57, 1997): a negative control for
    the claim that the MICK tends to the Frank copula.
    """
    mid = (np.arange(n) + 0.5) / n
    uv = np.outer(mid, mid)
    lo, hi = -20.0, 20.0
    for _ in range(100):
        lam = 0.5 * (lo + hi)
        p = sinkhorn_sweeps(np.exp(lam * uv))
        miss = float(np.sum(p * two_cumsum_potential(p))) - target_tau
        if abs(miss) <= tol:
            return p
        if miss < 0.0:
            lo = lam
        else:
            hi = lam
    raise RuntimeError(f"bisection did not reach tau within {tol}")


def reference_sinkhorn(K, tol):
    """mick_solver._sinkhorn to tol in its plain form: its sweeps, switch
    and Sinkhorn-Newton finish with one numpy expression per quantity and
    each reduction through its array method.  The floating-point operations
    and their order are the solver's, so the masses must match to the bit."""
    n = K.shape[0]
    target = 1.0 / n
    c = np.ones(n)
    Kc = K @ c
    budget = max(12.0, 0.5 * n)
    prev_resid = math.inf
    newton = True
    for _ in range(_SINKHORN_CAP):
        r = target / Kc
        c = target / (K.T @ r)
        Kc = K @ c
        resid = np.abs(r * Kc - target).max()
        if resid <= tol:
            P, _, miss = _reference_scaled(K, r, c)
            if miss.max() <= tol:
                return P
        if newton:
            ratio = resid / prev_resid
            if ratio >= 1.0 or resid * ratio**budget > tol:
                newton = False
                P, c = _reference_newton_finish(K, r, c, tol)
                if P is not None:
                    return P
                Kc = K @ c
        prev_resid = resid
    raise NotConverged(
        f"Sinkhorn scaling did not reach {tol} in {_SINKHORN_CAP} sweeps"
    )


def _reference_scaled(K, r, c):
    P = r[:, None] * K * c[None, :]
    sums = np.concatenate((P.sum(axis=1), P.sum(axis=0)))
    return P, sums, np.abs(sums - 1.0 / K.shape[0])


def _reference_newton_direction(P, sums):
    n = P.shape[0]
    dev = sums - 1.0 / n
    rho, dev_r = sums[:n], dev[:n]
    B = P[:, 1:]
    W = B / rho[:, None]
    Sc = -(B.T @ W)
    Sc.flat[::n] += sums[n + 1 :]
    dy = np.linalg.solve(Sc, W.T @ dev_r - dev[n + 1 :])
    dx = -(dev_r + B @ dy) / rho
    return dx, np.concatenate(([0.0], dy))


def _reference_newton_finish(K, r, c, tol):
    target = 1.0 / K.shape[0]
    P, sums, miss = _reference_scaled(K, r, c)
    for _ in range(_NEWTON_STEPS):
        if miss.max() <= tol:
            return P, c
        try:
            dx, dy = _reference_newton_direction(P, sums)
            halvings = _NEWTON_STEPS
        except np.linalg.LinAlgError:
            halvings = 0
        err, step = miss.sum(), 1.0
        for _ in range(halvings):
            with np.errstate(over="ignore", invalid="ignore"):
                r_t, c_t = r * np.exp(step * dx), c * np.exp(step * dy)
                P_t, sums_t, miss_t = _reference_scaled(K, r_t, c_t)
            if miss_t.sum() < err:
                break
            step *= 0.5
        else:
            r_t = target / (K @ c)
            c_t = target / (K.T @ r_t)
            P_t, sums_t, miss_t = _reference_scaled(K, r_t, c_t)
        r, c, P, sums, miss = r_t, c_t, P_t, sums_t, miss_t
    return None, c
