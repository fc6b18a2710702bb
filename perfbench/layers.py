"""Per-layer metrics, derived from the spans of a traced run.

Values are per pass (totals divided by the number of traced passes), so
they do not grow when a faster commit fits more passes into a run.
Times are summed span durations in wall seconds; spans on the sweep's
pool threads overlap, so a layer's ``.s`` can exceed the pass time.
"""

from __future__ import annotations

import statistics

from tracer import SpanStats

SINKHORN = "mick_solver.sinkhorn_project"
INNER = "mick_solver.inner_fixed_point"
POTENTIAL = "concordance._potential_from_masses"
SOLVE = "mick_solver.solve_mick"
SWEEP = "harness.convergence_sweep"


def _capped(spans, max_inner):
    """Inner solves whose Sinkhorn child count reached max_inner: the fixed
    point stopped at its iteration cap, not at its tolerance."""
    children = {}
    for s in spans:
        if s[2] == SINKHORN and s[1] is not None:
            children[s[1]] = children.get(s[1], 0) + 1
    return sum(1 for s in spans if s[2] == INNER and children.get(s[0], 0) >= max_inner)


def pass_counts(outcome, spans=None, max_inner=0):
    """Work counters of one pass that must repeat exactly for a commit and
    seed; the span-based ones only when the pass was traced."""
    counts = dict(outcome.counts)
    if spans is not None:
        counts[f"{SINKHORN}.calls"] = sum(1 for s in spans if s[2] == SINKHORN)
        counts[f"{INNER}.capped"] = _capped(spans, max_inner)
        counts[f"{POTENTIAL}.cells"] = sum(s[4] ** 2 for s in spans if s[2] == POTENTIAL)
    return counts


def layer_metrics(spans, outcomes, times, max_inner):
    passes = len(times)
    st = SpanStats(spans)

    def per(v):
        return v / passes

    def calls(name):
        return per(st.calls[name])

    def secs(name):
        return per(st.total[name])

    m = {}
    m[f"{SINKHORN}.calls"] = calls(SINKHORN)
    m[f"{SINKHORN}.s"] = secs(SINKHORN)
    m[f"{SINKHORN}.us_per_call"] = (
        1e6 * st.total[SINKHORN] / st.calls[SINKHORN] if st.calls[SINKHORN] else 0.0
    )
    m[f"{SINKHORN}.pass_share"] = secs(SINKHORN) / statistics.median(times)

    capped = _capped(spans, max_inner)
    m[f"{INNER}.calls"] = calls(INNER)
    m[f"{INNER}.s"] = secs(INNER)
    m[f"{INNER}.self_s"] = per(st.self_time[INNER])
    m[f"{INNER}.capped"] = per(capped)
    m[f"{INNER}.useful_ratio"] = (
        (st.calls[INNER] - capped) / st.calls[INNER] if st.calls[INNER] else 0.0
    )
    # Where the inner solves at the largest grid spend their time: self
    # time of every span nested in them, summed by function.
    finest = max((s[4] for s in spans if s[2] == INNER), default=0)
    under = st.self_time_under(INNER, lambda s: s[4] == finest)
    under_total = sum(under.values())
    for short, name in (("potential", POTENTIAL), ("sinkhorn", SINKHORN)):
        m[f"{INNER}.finest.{short}_share"] = (
            under.get(name, 0.0) / under_total if under_total else 0.0
        )

    m["mick_solver.outer_evals"] = per(sum(o.counts["outer_evals"] for o in outcomes))
    m["mick_solver.inner_iters"] = per(sum(o.counts["inner_iters"] for o in outcomes))
    m[f"{SOLVE}.calls"] = calls(SOLVE)
    m[f"{SOLVE}.s"] = secs(SOLVE)
    m["mick_solver.nonconverged"] = per(sum(o.nonconverged for o in outcomes))

    m[f"{POTENTIAL}.calls"] = calls(POTENTIAL)
    m[f"{POTENTIAL}.s"] = secs(POTENTIAL)
    m[f"{POTENTIAL}.cells"] = per(sum(s[4] ** 2 for s in spans if s[2] == POTENTIAL))
    kt = "concordance.kendall_tau_checkerboard"
    m[f"{kt}.calls"] = calls(kt)
    m[f"{kt}.s"] = secs(kt)

    for fn in ("theta_from_tau", "tau_from_theta", "frank_checkerboard",
               "CheckerboardDensity.validate"):
        m[f"copula_core.{fn}.calls"] = calls(f"copula_core.{fn}")
        m[f"copula_core.{fn}.s"] = secs(f"copula_core.{fn}")
    m["copula_core.debye_d1.calls"] = calls("copula_core.debye_d1")
    m["copula_core.frank_sample.s"] = secs("copula_core.frank_sample")

    sweeps = [s for s in spans if s[2] == SWEEP]
    sweep_s = sum(s[6] - s[5] for s in sweeps)
    busy = sum(
        s[6] - s[5] for s in spans
        if s[2] == SOLVE and any(w[5] <= s[5] and s[6] <= w[6] for w in sweeps)
    )
    m[f"{SWEEP}.s"] = per(sweep_s)
    m["harness.solve_busy_s"] = per(busy)
    m["harness.overlap"] = busy / sweep_s if sweep_s else 0.0
    m["harness.compare_to_frank.s"] = secs("harness.compare_to_frank")
    m["harness.failures"] = per(sum(o.sweep_failures for o in outcomes))
    return m, finest, under


def unit_of(name):
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_ratio", ".overlap")):
        return "1"
    return "count"
