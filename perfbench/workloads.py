"""The workloads: their inputs, one timed pass each, and the checks.

A pass is the unit that is timed.  Each workload turns a pass's raw
outputs into a list of operations, each with the kinds of failure found
(an empty list means the operation passed every check).  Failures that
are known defects of the library at the commit the benchmark was written
against are listed in ``expected``; they count in ``failed_frac``, while
any other failure counts in the result's ``failed`` and marks the run
incorrect.
"""

from __future__ import annotations

import hashlib
import math

import mpmath
import numpy as np
from scipy.stats import kendalltau

# Solver settings, passed in full so that a change of library defaults
# cannot change the work the benchmark asks for.
SOLVER = dict(
    tol_tau=1e-6,
    tol_fix=1e-9,
    max_outer=60,
    max_inner=5000,
    damping=0.5,
    multiplier_init="auto",
)
MARGINAL_TOL = 1e-10

mpmath.mp.dps = 60


# -- mpmath references ------------------------------------------------------


def tau_mp(theta):
    """Kendall's tau of the Frank copula, from the dilogarithm form of D1.

    int_0^x t/(e^t - 1) dt = pi^2/6 + x log(1 - e^-x) - Li2(e^-x); tau is
    odd in theta.
    """
    x = mpmath.mpf(abs(theta))
    z = mpmath.exp(-x)
    integral = mpmath.pi**2 / 6 + x * mpmath.log1p(-z) - mpmath.polylog(2, z)
    tau = 1 - 4 / x * (1 - integral / x)
    return math.copysign(float(tau), theta)


def theta_mp(tau):
    """Frank theta for tau > 0: root of tau_mp between 9 tau and 4/(1 - tau)."""

    def f(t):
        x = mpmath.mpf(t)
        z = mpmath.exp(-x)
        integral = mpmath.pi**2 / 6 + x * mpmath.log1p(-z) - mpmath.polylog(2, z)
        return 1 - 4 / x * (1 - integral / x) - tau

    return float(mpmath.findroot(f, (9 * tau, 4 / (1 - tau) + 1), solver="anderson"))


def frank_cdf_mp(theta, u, v):
    t = mpmath.mpf(theta)
    u, v = mpmath.mpf(u), mpmath.mpf(v)
    return -mpmath.log(
        1 + mpmath.expm1(-t * u) * mpmath.expm1(-t * v) / mpmath.expm1(-t)
    ) / t


# -- helpers ----------------------------------------------------------------


def _stratified(rng, count, lo, hi):
    """One uniform draw in each of ``count`` equal strata of [lo, hi], shuffled,
    so that the share of draws in any range is the same for every seed."""
    u = (np.arange(count) + rng.random(count)) / count
    return rng.permutation(lo + u * (hi - lo))


def _log_uniform_signed(rng, count, lo, hi):
    mags = np.exp(_stratified(rng, count, math.log(lo), math.log(hi)))
    return mags * rng.choice([-1.0, 1.0], count)


def _marginal_error(m):
    n = m.shape[0]
    return max(
        float(np.max(np.abs(m.sum(axis=1) - 1.0 / n))),
        float(np.max(np.abs(m.sum(axis=0) - 1.0 / n))),
    )


def _digest(value):
    if isinstance(value, np.ndarray):
        return hashlib.blake2b(value.tobytes(), digest_size=16).hexdigest()
    return repr(value)


class Outcome:
    """Checked result of one pass."""

    def __init__(self):
        self.ops = []  # (label, [failure kinds])
        self.counts = {"outer_evals": 0, "inner_iters": 0}  # must repeat exactly
        self.nonconverged = 0
        self.sweep_failures = 0
        self.theta_gap = math.inf

    def add(self, label, kinds):
        self.ops.append((label, list(kinds)))


# -- solver workloads -------------------------------------------------------


class _SolverWorkload:
    def __init__(self, fm, points, expected=()):
        self.fm = fm
        self.points = list(points)
        self.expected = dict(expected)  # op label -> failure kinds known
        self.theta_ref = {tau: theta_mp(tau) for tau in {t for _, t in self.points}}

    def cfg(self, n, tau):
        return self.fm.SolverConfig(n=n, target_tau=tau, **SOLVER)

    def check_report(self, report, n, tau):
        kinds = []
        if not report.converged:
            kinds.append("nonconverged")
        achieved = self.fm.kendall_tau_checkerboard(report.state.density)
        if not abs(achieved - tau) <= SOLVER["tol_tau"]:
            kinds.append("tau")
        if not _marginal_error(report.state.density.masses) <= MARGINAL_TOL:
            kinds.append("marginals")
        if not report.stationarity_residual <= SOLVER["tol_fix"]:
            kinds.append("stationarity")
        return kinds

    def is_expected(self, op_label, kind):
        return kind in self.expected.get(op_label, ())

    def check(self, results):
        """``results`` maps (n, tau) to a SolverReport, or to the name of
        the exception that replaced it ("Missing" when there is neither)."""
        out = Outcome()
        outer = inner = nonconverged = 0
        finest = None
        for n, tau in self.points:
            res = results.get((n, tau), "Missing")
            label = f"n={n},tau={tau}"
            if isinstance(res, str):
                out.add(label, [f"raised:{res}"])
                nonconverged += res == "NoConvergence"
                continue
            out.add(label, self.check_report(res, n, tau))
            outer += res.outer_iterations
            inner += res.inner_iterations_total
            nonconverged += not res.converged
            if finest is None or n >= finest[0]:
                finest = (n, abs(res.implied_theta - self.theta_ref[tau]))
        out.counts = {"outer_evals": outer, "inner_iters": inner}
        out.nonconverged = nonconverged
        out.theta_gap = finest[1] if finest else math.inf
        return out


class SweepWorkload(_SolverWorkload):
    """One ``convergence_sweep`` over ascending grids at one tau."""

    def __init__(self, fm, tau, grids, expected=()):
        self.tau, self.grids = tau, list(grids)
        super().__init__(fm, [(n, tau) for n in self.grids], expected)

    def run(self):
        template = self.cfg(max(self.grids), self.tau)
        try:
            return self.fm.convergence_sweep(self.tau, self.grids, template)
        except Exception as exc:  # the whole sweep failed, so every grid did
            return exc.with_traceback(None)

    def check(self, result):
        if isinstance(result, Exception):
            results = {p: type(result).__name__ for p in self.points}
        else:
            results = {
                (n, self.tau): r
                for n, r in zip(result.grid_sizes, result.per_run_reports)
            }
            # failures hold "ErrorType: message" per grid size
            for n, msg in result.failures.items():
                results[(n, self.tau)] = str(msg).split(":", 1)[0]
        out = super().check(results)
        out.sweep_failures = sum(isinstance(r, str) for r in results.values())
        return out


class SolveWorkload(_SolverWorkload):
    """Independent ``solve_mick`` calls at fixed (n, tau) points."""

    def run(self):
        out = {}
        for n, tau in self.points:
            try:
                out[(n, tau)] = self.fm.solve_mick(self.cfg(n, tau))
            except Exception as exc:
                out[(n, tau)] = type(exc).__name__
        return out


# -- direct calls into the public API ---------------------------------------


class DirectApiWorkload:
    """Seeded calls straight into the closed-form functions and Sinkhorn.

    Draws are stratified, so each seed gives different inputs but the same
    share of inputs in each range (and so the same share of known
    failures).
    """

    N_TAU = 1000
    N_THETA = 1000
    BOARD_N = 1024
    BOARDS = 4
    SAMPLES = 4
    SAMPLE_COUNT = 200_000
    KERNELS = 48
    KERNEL_SIZES = (32, 64, 128)
    GAP_THETA = 3.0
    CELLS_CHECKED = 16

    def __init__(self, fm, seed):
        self.fm = fm
        rng = np.random.default_rng(seed)
        self.taus = _log_uniform_signed(rng, self.N_TAU, 1e-9, 0.99)
        self.thetas = _log_uniform_signed(rng, self.N_THETA, 1e-8, 50.0)
        self.tau_refs = np.array([tau_mp(t) for t in self.thetas])
        self.board_thetas = _stratified(rng, self.BOARDS, -50.0, 50.0)
        self.board_cells = [
            rng.integers(0, self.BOARD_N, size=(self.CELLS_CHECKED, 2))
            for _ in range(self.BOARDS)
        ]
        self.board_refs = [
            [self._cell_mp(th, i, j) for i, j in cells]
            for th, cells in zip(self.board_thetas, self.board_cells)
        ]
        self.sample_thetas = _stratified(rng, self.SAMPLES, -50.0, 50.0)
        self.sample_seeds = [int(s) for s in rng.integers(0, 2**31, self.SAMPLES)]
        self.sample_refs = [tau_mp(th) for th in self.sample_thetas]
        sigmas = _stratified(rng, self.KERNELS, 0.5, 3.0)
        sizes = [self.KERNEL_SIZES[i % len(self.KERNEL_SIZES)] for i in range(self.KERNELS)]
        self.kernels = [
            np.exp(s * rng.standard_normal((n, n))) for s, n in zip(sigmas, sizes)
        ]
        self._verdicts = {}  # (label, index, digest) -> failure kinds found

    def _cell_mp(self, theta, i, j):
        """Mass of cell (i, j): second difference of the cdf at the nodes."""
        n = self.BOARD_N

        def c(a, b):
            return frank_cdf_mp(theta, mpmath.mpf(int(a)) / n, mpmath.mpf(int(b)) / n)

        return float(c(i + 1, j + 1) - c(i, j + 1) - c(i + 1, j) + c(i, j))

    @staticmethod
    def _call(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            # Without its traceback the exception keeps no frame, and so no
            # earlier output of the pass, alive.
            return exc.with_traceback(None)

    def run(self):
        fm = self.fm
        FP = fm.FrankParameter
        out = {}
        out["theta_from_tau"] = [self._call(fm.theta_from_tau, t) for t in self.taus]
        out["tau_from_theta"] = [
            self._call(lambda t: fm.tau_from_theta(FP(t)), t) for t in self.thetas
        ]
        out["frank_checkerboard"] = [
            self._call(lambda t: fm.frank_checkerboard(FP(t), self.BOARD_N), t)
            for t in self.board_thetas
        ]
        out["frank_sample"] = [
            self._call(lambda t, s: fm.frank_sample(FP(t), self.SAMPLE_COUNT, s), t, s)
            for t, s in zip(self.sample_thetas, self.sample_seeds)
        ]
        out["sinkhorn_project"] = [self._call(fm.sinkhorn_project, k) for k in self.kernels]

        def gap():
            board = fm.frank_checkerboard(FP(self.GAP_THETA), self.BOARD_N)
            return fm.theta_from_tau(fm.kendall_tau_checkerboard(board)).theta

        out["theta_gap"] = [self._call(gap)]
        return out

    def _check_one(self, label, i, res):
        fm = self.fm
        if isinstance(res, BaseException):
            return [f"raised:{type(res).__name__}"]
        kinds = []
        if label == "theta_from_tau":
            tau, theta = self.taus[i], res.theta
            if not abs(fm.tau_from_theta(res) - tau) <= 1e-10:
                kinds.append("roundtrip")
            if not abs(tau_mp(theta) - tau) <= 1e-10:
                kinds.append("accuracy")
        elif label == "tau_from_theta":
            ref = self.tau_refs[i]
            if not abs(res - ref) <= 1e-9 * abs(ref):
                kinds.append("accuracy")
        elif label == "frank_checkerboard":
            m = res.masses
            if not _marginal_error(m) <= MARGINAL_TOL:
                kinds.append("marginals")
            got = np.array([m[a, b] for a, b in self.board_cells[i]])
            if not np.all(np.abs(got - np.array(self.board_refs[i])) <= 1e-13):
                kinds.append("cells")
        elif label == "frank_sample":
            if res.shape != (self.SAMPLE_COUNT, 2) or not (
                np.all(np.isfinite(res)) and res.min() >= 0.0 and res.max() <= 1.0
            ):
                kinds.append("range")
            else:
                # A continuous law puts no mass on the edges; a value of
                # exactly 0 or 1 is one the sampler clipped.
                if np.any((res == 0.0) | (res == 1.0)):
                    kinds.append("clipped")
                if not abs(kendalltau(res[:, 0], res[:, 1])[0] - self.sample_refs[i]) <= 0.01:
                    kinds.append("tau")
        elif label == "sinkhorn_project":
            m, k = res.masses, self.kernels[i]
            if not _marginal_error(m) <= MARGINAL_TOL:
                kinds.append("marginals")
            # Scaling keeps log P - log K additive: a_i + b_j.
            d = np.log(m) - np.log(k)
            resid = d - d.mean(axis=1)[:, None] - d.mean(axis=0)[None, :] + d.mean()
            if not np.max(np.abs(resid)) <= 1e-9:
                kinds.append("cross_ratio")
        elif label == "theta_gap":
            if not abs(res - self.GAP_THETA) <= 1e-4:
                kinds.append("gap")
        return kinds

    def check(self, outputs):
        out = Outcome()
        for label, results in outputs.items():
            for i, res in enumerate(results):
                key = (label, i, _digest(getattr(res, "masses", res)))
                if key not in self._verdicts:
                    self._verdicts[key] = self._check_one(label, i, res)
                out.add(f"{label}[{i}]", self._verdicts[key])
        gap = outputs["theta_gap"][0]
        out.theta_gap = abs(gap - self.GAP_THETA) if isinstance(gap, float) else math.inf
        return out

    def is_expected(self, op_label, kind):
        label, _, idx = op_label.partition("[")
        i = int(idx.rstrip("]"))
        if label == "theta_from_tau":
            # NonInvertible below |tau| ~ 1.1e-7 (the bracket starts at
            # theta = 1e-6).  Below |tau| ~ 1e-5 the bisection runs on
            # tau_from_theta's small-theta cancellation noise, which breaks
            # both the promised round trip and the true accuracy.
            tau = abs(self.taus[i])
            return (kind == "raised:NonInvertible" and tau < 2e-7) or (
                kind in ("roundtrip", "accuracy") and tau < 1e-5
            )
        if label == "tau_from_theta":
            # 1 - (4/theta)(1 - D1) cancels for small theta.
            return kind == "accuracy" and abs(self.thetas[i]) < 1e-2
        if label == "frank_sample":
            # For large positive theta, 1 + b in the conditional inverse
            # -log1p(b)/theta falls to rounding level (1e-13 at theta = 30)
            # and then to 0, and clip turns the -inf into v = 1: a few draws
            # in 200,000 near theta = 30, 3 % at 38, 24 % at 50, which
            # biases the sample's tau from theta ~ 46 on.
            return kind in ("clipped", "tau") and self.sample_thetas[i] > 25.0
        return False


def make(name, fm, seed):
    if name == "sweep_mid":
        return SweepWorkload(fm, 0.307, [4, 8, 16, 32, 64, 128, 256])
    if name == "solve_high_tau":
        return SolveWorkload(fm, [(16, 0.9), (32, 0.95)])
    if name == "sweep_high_fine":
        # The n = 256 solve stalls at max_inner twice and ends unconverged,
        # with its stationarity residual near 1e-8 against tol_fix = 1e-9.
        # Run by hand: one pass takes 40-55 s, more than BENCHMARK.json's
        # time budget leaves for it.
        return SweepWorkload(
            fm, 0.8, [8, 16, 32, 64, 128, 256],
            expected={"n=256,tau=0.8": ("nonconverged", "stationarity")},
        )
    if name == "direct_api":
        return DirectApiWorkload(fm, seed)
    raise KeyError(name)


NAMES = ("sweep_mid", "solve_high_tau", "sweep_high_fine", "direct_api")
