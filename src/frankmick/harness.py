"""Experiment runner: compares solver output against the Frank checkerboard
at matched parameters and sweeps grid sizes to track the sup-norm gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .copula_core import FrankParameter, frank_checkerboard, theta_from_tau
from .copula_core import _checkerboard_at
from .errors import FrankMickError, GridMismatch
from .mick_solver import SolverConfig, SolverReport, solve_mick


@dataclass(frozen=True)
class SweepResult:
    grid_sizes: list[int]
    sup_errors: list[float]
    tau: float
    theta: float
    per_run_reports: list[SolverReport]
    failures: dict[int, str]  # grid size -> error message, for skipped runs


def sup_mass_difference(a, b) -> float:
    """Elementwise sup-norm difference of two checkerboard densities."""
    if a.n != b.n:
        raise GridMismatch(f"grid sizes differ: {a.n} vs {b.n}")
    return float(np.max(np.abs(a.masses - b.masses)))


def compare_to_frank(report: SolverReport, p: FrankParameter) -> float:
    """Sup-norm difference of cell masses vs the Frank checkerboard."""
    return sup_mass_difference(
        report.state.density, frank_checkerboard(p, report.state.density.n)
    )


def convergence_sweep(
    tau: float, grid_sizes, cfg_template: SolverConfig
) -> SweepResult:
    """Solve at each grid size and measure the gap to the Frank checkerboard.

    grid_sizes must be strictly ascending (ValueError otherwise), and are
    solved in that order; per-grid failures are collected in
    ``failures`` instead of aborting.  Each grid's reference board is built
    before its solve, so a theta beyond the Frank checkerboard's support
    fails the grid without solving it.
    """
    grid_sizes = list(grid_sizes)
    if grid_sizes != sorted(set(grid_sizes)):
        raise ValueError("grid_sizes must be strictly ascending")
    theta = theta_from_tau(tau).theta if tau != 0.0 else 0.0

    sizes, errors, reports, failures = [], [], [], {}
    for n in grid_sizes:
        try:
            ref = _checkerboard_at(theta, n)
            report = solve_mick(replace(cfg_template, n=n, target_tau=tau))
            err = sup_mass_difference(report.state.density, ref)
        except FrankMickError as exc:
            failures[n] = f"{type(exc).__name__}: {exc}"
            continue
        sizes.append(n)
        errors.append(err)
        reports.append(report)
    return SweepResult(sizes, errors, tau, theta, reports, failures)


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["n,sup_error,achieved_tau,implied_theta,converged"]
    for n, err, rep in zip(
        result.grid_sizes, result.sup_errors, result.per_run_reports
    ):
        lines.append(
            f"{n},{err!r},{rep.achieved_tau!r},{rep.implied_theta!r},"
            f"{str(rep.converged).lower()}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_svg(result: SweepResult) -> str:
    """Minimal line chart of log10 sup_error vs grid size (no plotting deps);
    an empty frame when no grid was solved."""
    w, h, pad = 480, 320, 50
    xs = [float(n) for n in result.grid_sizes]
    ys = [math.log10(max(y, 1e-300)) for y in result.sup_errors]
    x0, x1 = min(xs, default=0.0), max(xs, default=0.0)
    y0, y1 = min(ys, default=0.0), max(ys, default=0.0)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def px(x):
        return pad + (x - x0) / xspan * (w - 2 * pad)

    def py(y):
        return h - pad - (y - y0) / yspan * (h - 2 * pad)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    labels = []
    for x, y, n, e in zip(xs, ys, result.grid_sizes, result.sup_errors):
        labels.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="black"/>'
            f'<text x="{px(x):.2f}" y="{py(y) - 8:.2f}" font-size="10" '
            f'text-anchor="middle">n={n}: {e:.2e}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>'
        + "".join(labels)
        + f'<text x="{w / 2}" y="{h - 12}" font-size="12" '
        f'text-anchor="middle">grid size</text>'
        f'<text x="14" y="{h / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {h / 2})">log10 sup error</text>'
        "</svg>\n"
    )
