"""The closed-form theta-tau bridge, Frank checkerboard, cdf, density,
generator, generator inverse and sampler against mpmath (scipy's Kendall
tau for the sampler), over the whole range each is used on: |theta| from
1e-8 to the inversion's search cap of 600 for the bridge (both signs, and
across the |theta| = 2 switch from series to dilogarithm), and up to the
one bound THETA_SUPPORT = 300 for the rest."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frankmick
from frankmick import (
    FrankParameter,
    debye_d1,
    frank_cdf,
    frank_checkerboard,
    frank_density,
    frank_generator,
    frank_generator_inverse,
    frank_sample,
    kendall_tau_checkerboard,
    tau_from_theta,
    theta_from_tau,
)
from frankmick.copula_core import THETA_SUPPORT, _tau_slope

from _oracles import (
    brute_tau,
    frank_cdf_mp,
    frank_cells_mp,
    frank_d1_mp,
    frank_density_mp,
    frank_dps,
    frank_generator_inverse_mp,
    frank_generator_mp,
    frank_tau_mp,
    frank_tau_slope_mp,
)

# |theta| log-uniform on [1e-8, 600], plus a band around the series switch
_MAGNITUDES = st.one_of(
    st.floats(-8.0, math.log10(600.0)).map(lambda e: min(10.0**e, 600.0)),
    st.floats(1.5, 2.5),
)
THETAS = st.builds(lambda m, s: s * m, _MAGNITUDES, st.sampled_from([1.0, -1.0]))

SWITCH = (2.0, -2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0))


class TestBridgeAgainstMpmath:
    @settings(max_examples=150, deadline=None)
    @given(THETAS)
    @example(1e-8)
    @example(-600.0)
    @example(SWITCH[2])
    @example(SWITCH[3])
    def test_tau(self, theta):
        ref = frank_tau_mp(theta, dps=60)
        assert abs(tau_from_theta(FrankParameter(theta)) - ref) <= 1e-13 * abs(ref)

    @settings(max_examples=100, deadline=None)
    @given(THETAS)
    @example(-2.0)
    @example(-600.0)
    @example(SWITCH[2])
    @example(800.0)  # past e^-x's underflow
    @example(-800.0)
    def test_debye_d1(self, x):
        # the reference integrates the definition for either sign, so a
        # negative x checks the reflection D1(-x) = D1(x) + x/2 as well
        ref = frank_d1_mp(x)
        assert abs(debye_d1(x) - ref) <= 1e-13 * abs(ref)

    @settings(max_examples=100, deadline=None)
    @given(THETAS)
    @example(2.0)
    @example(SWITCH[2])
    @example(600.0)
    def test_slope(self, theta):
        ref = frank_tau_slope_mp(theta)
        assert abs(_tau_slope(theta) - ref) <= 1e-12 * ref

    def test_slope_at_independence(self):
        assert _tau_slope(0.0) == pytest.approx(1.0 / 9.0, rel=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(THETAS)
    @example(600.0)
    @example(-1e-8)
    @example(SWITCH[3])
    def test_round_trip(self, theta):
        tau = tau_from_theta(FrankParameter(theta))
        back = theta_from_tau(tau).theta
        assert abs(tau_from_theta(FrankParameter(back)) - tau) <= 1e-12
        # tau is monotone with slope tau'(theta) there, so the promise on
        # tau bounds how far theta may move
        assert math.copysign(1.0, back) == math.copysign(1.0, theta)
        assert abs(back - theta) <= 1.1e-12 / _tau_slope(theta)


class TestCheckerboardAgainstMpmath:
    @pytest.mark.parametrize("theta", [50.0, -50.0, 115.6, 300.0, -300.0])
    def test_whole_board_n16(self, theta):
        # n = 15 as well: an odd grid's middle row is half evaluated and
        # half mirrored
        for n in (15, 16):
            cells = [(i, j) for i in range(n) for j in range(n)]
            ref = np.array(frank_cells_mp(theta, n, cells, frank_dps(theta)))
            ref = ref.reshape(n, n)
            got = frank_checkerboard(FrankParameter(theta), n).masses
            assert np.all(ref > 0.0)
            assert np.max(np.abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("theta", [50.0, -50.0, 115.6, 300.0])
    def test_sampled_cells_n256(self, theta):
        n = 256
        rng = np.random.default_rng(7)
        corners = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 2)]
        drawn = rng.integers(0, n, size=(40, 2))
        cells = corners + [(int(i), int(j)) for i, j in drawn]
        ref = np.array(frank_cells_mp(theta, n, cells, frank_dps(theta)))
        masses = frank_checkerboard(FrankParameter(theta), n).masses
        got = np.array([masses[i, j] for i, j in cells])
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    def test_support_bound(self):
        frank_checkerboard(FrankParameter(THETA_SUPPORT), 8)
        frank_checkerboard(FrankParameter(-THETA_SUPPORT), 8)


# both signs from near independence to the support bound
EVAL_THETAS = [
    s * m for m in (1e-6, 3.0, 50.0, 150.0, THETA_SUPPORT) for s in (1.0, -1.0)
]
PSI_ARGS = [0.0, 1e-300, 1e-12, 1e-6, 0.01, 0.5, 1.0, 5.0, 50.0]
PSI_INV_ARGS = [1e-300, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0]
# near independence down to |theta| = 1e-300: the cdf's log1p argument and
# the density's factors are each formed without a product of two tiny terms
TINY_THETAS = [s * m for m in (1e-12, 1e-100, 1e-300) for s in (1.0, -1.0)]
# and between them: up to |theta| = 0.1, log F is log1p(F - 1) on the whole
# square; at theta = 2 it is the log of the same-sign bracket where F < 1/2
CDF_THETAS = EVAL_THETAS + TINY_THETAS + [
    s * m for m in (1e-3, 0.1, 2.0) for s in (1.0, -1.0)
]
# below |theta| = 1e-300, down to the smallest subnormal, where the closed
# forms evaluate at +-1e-300
BELOW_FLOOR = [s * m for m in (1e-305, 1e-310, 1e-320, 5e-324) for s in (1.0, -1.0)]


class TestEvaluatorsAgainstMpmath:
    """One support bound for every closed form: each evaluator holds its
    accuracy up to |theta| = THETA_SUPPORT."""

    @pytest.mark.parametrize("theta", EVAL_THETAS + [1e-300, -1e-300] + BELOW_FLOOR)
    def test_density(self, theta):
        rng = np.random.default_rng(11)
        u, v = rng.random(300), rng.random(300)
        dps = frank_dps(theta)
        ref = np.array([frank_density_mp(theta, a, b, dps) for a, b in zip(u, v)])
        got = frank_density(FrankParameter(theta), u, v)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("theta", CDF_THETAS + BELOW_FLOOR)
    def test_cdf(self, theta):
        rng = np.random.default_rng(12)
        u, v = rng.random(200), rng.random(200)
        dps = frank_dps(theta)
        ref = np.array([frank_cdf_mp(theta, a, b, dps) for a, b in zip(u, v)])
        assert np.max(np.abs(frank_cdf(FrankParameter(theta), u, v) - ref)) <= 1e-15

    # 10 and 30 as well: a plain log of the inverse's ratio loses 1e-4
    # relative at theta = 10
    @pytest.mark.parametrize("theta", EVAL_THETAS + [10.0, 30.0] + BELOW_FLOOR)
    def test_generator_and_inverse(self, theta):
        p = FrankParameter(theta)
        dps = frank_dps(theta)
        psi = np.array([frank_generator_mp(theta, s, dps) for s in PSI_ARGS])
        got = frank_generator(p, np.array(PSI_ARGS))
        assert np.max(np.abs(got - psi) / psi) <= 1e-13
        inv = np.array([frank_generator_inverse_mp(theta, s, dps) for s in PSI_INV_ARGS])
        got = frank_generator_inverse(p, np.array(PSI_INV_ARGS))
        assert got[-1] == inv[-1] == 0.0
        assert np.max(np.abs(got[:-1] - inv[:-1]) / inv[:-1]) <= 1e-13

    # theta s below the normal range: expm1(-theta s) is subnormal or 0
    # (36.841361504 for 36.8413614879 at theta = 1e-300, s = 1e-16, and inf
    # from s = 1e-24 on, when its log was taken)
    @pytest.mark.parametrize("theta", [1e-300, -1e-300, 1e-200, -1e-200] + BELOW_FLOOR)
    def test_generator_inverse_below_normal_range(self, theta):
        s = np.exp(-np.random.default_rng(13).uniform(0.0, 690.0, 200))
        dps = frank_dps(theta)
        inv = np.array([frank_generator_inverse_mp(theta, x, dps) for x in s])
        got = frank_generator_inverse(FrankParameter(theta), s)
        assert np.max(np.abs(got - inv) / inv) <= 1e-13

    @pytest.mark.parametrize("theta", EVAL_THETAS)
    def test_sample_tau(self, theta):
        from scipy.stats import kendalltau

        p = FrankParameter(theta)
        pairs = frank_sample(p, 100_000, seed=3)
        assert not np.any((pairs == 0.0) | (pairs == 1.0))
        tau = kendalltau(pairs[:, 0], pairs[:, 1]).statistic
        assert abs(tau - tau_from_theta(p)) <= 0.01


def deficit_remainder(theta, n):
    """tau(theta) - tau_cb(F_theta, n) - 2 theta / (9 n^2): what the
    checkerboard lemma leaves of the Frank checkerboard's tau deficit."""
    board = frank_checkerboard(FrankParameter(theta), n)
    tau = tau_from_theta(FrankParameter(theta))
    return tau - kendall_tau_checkerboard(board) - 2.0 * theta / (9.0 * n**2)


class TestCheckerboardTauDeficit:
    # the within-cell ties cost the checkerboard (1 / 3n^2) times the
    # integral of the local dependence d2 log c / du dv against G(1 - G)
    # and H(1 - H), G and H the conditional cdfs; Frank's local dependence
    # is 2 theta c, which makes the deficit 2 theta / (9 n^2) + O(n^-4).
    # The remainder shrinks 13.3-16.0x per doubling from n = 16
    THETAS = [3.0, -7.93, 38.28]  # tau = 0.307, -0.6, 0.9

    @pytest.mark.parametrize("theta", THETAS)
    def test_remainder_is_fourth_order(self, theta):
        rests = [deficit_remainder(theta, n) for n in (32, 64, 128, 256, 512)]
        assert all(abs(a) >= 12.0 * abs(b) for a, b in zip(rests, rests[1:]))

    @pytest.mark.parametrize("theta", THETAS)
    def test_remainder_from_mpmath_cells(self, theta):
        n = 16
        cells = [(i, j) for i in range(n) for j in range(n)]
        dps = 40 + int(0.87 * abs(theta))
        masses = np.array(frank_cells_mp(theta, n, cells, dps)).reshape(n, n)
        rest = frank_tau_mp(theta) - brute_tau(masses) - 2.0 * theta / (9.0 * n**2)
        assert abs(rest - deficit_remainder(theta, n)) <= 1e-13
        assert abs(rest) >= 12.0 * abs(deficit_remainder(theta, 2 * n))


def test_import_leaves_scipy_unloaded():
    # numpy is the library's only runtime dependency
    src = Path(frankmick.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, frankmick, frankmick.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
