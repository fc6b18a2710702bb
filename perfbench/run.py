"""Benchmark of the frankmick library in ``src/`` of the checkout it runs in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Imports the package from that
checkout's ``src/`` (it need not be installed), runs passes of the named
workload until ``--seconds`` have gone (always at least one), checks
every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones in BENCHMARK.json; with ``--trace 1``
the library's functions are wrapped in spans and the metrics are the
per-layer ones.  The workloads, metrics and the reasons for them are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before numpy loads, and
# the sweep pool takes its default size, so the run uses no more threads
# than cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MICK_THREADS", None)

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
LAYERS = ("mick_solver", "concordance", "copula_core", "harness", "cli")


def log(msg):
    print(msg, flush=True)


def _probe_kernel():
    """A fixed piece of pure-Python work of under 1 ms.  It holds the GIL
    throughout, so while the sweep's pool threads run, its time gauges the
    core's speed, not the wait for the lock."""
    s = 0.0
    d = {}
    for i in range(3000):
        s += math.sqrt(i + 0.5) * 0.5
        d[i & 63] = s
    return s


class SpeedProbe:
    """Gauges the machine's speed while the workload runs.

    A shared 2-CPU VM, like the one the benchmark was written on, changes
    speed by 20-50 % within a minute, in process CPU time as much as in
    wall time, and each core on its own within a tenth of a second, so
    neither medians over long runs nor CPU time make a run's times steady.
    While a probe is running, a timer signal every INTERVAL seconds runs a
    fixed kernel on the main thread, so mostly on the core the work runs
    on, and records how long it took.  A pass's time is summed
    window by window (WINDOW kernel runs each), every window weighted by
    REF_S / (median kernel time in the window), and without the kernel's
    own time: it reads as seconds on a machine where the kernel takes
    REF_S.  The raw wall times are logged beside the scaled ones.
    """

    INTERVAL = 0.05
    WINDOW = 10
    # Median kernel time on the reference machine (a 2-CPU x86-64 VM,
    # Python 3.11), so that scaled times there read close to wall times.
    REF_S = 0.0006

    def __init__(self):
        self.samples = []  # (start, duration), in time order

    def measure(self):
        t0 = time.perf_counter()
        _probe_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _on_alarm(self, signum, frame):
        self.measure()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self):
        """Reference seconds per wall second over the whole run."""
        return self.REF_S / statistics.median(d for _, d in self.samples)

    def scaled(self, t0, t1):
        """Scaled time of the work done in [t0, t1], the kernel's own time
        left out.  A span with fewer kernel runs than a window takes the
        factor of the whole run."""
        lo = bisect.bisect_left(self.samples, (t0,))
        hi = bisect.bisect_left(self.samples, (t1,))
        inside = self.samples[lo:hi]
        if len(inside) < self.WINDOW:
            return (t1 - t0 - sum(d for _, d in inside)) * self.factor()
        total, begin = 0.0, t0
        windows = len(inside) // self.WINDOW
        for w in range(windows):
            last = w == windows - 1
            chunk = inside[w * self.WINDOW:None if last else (w + 1) * self.WINDOW]
            end = t1 if last else chunk[-1][0] + chunk[-1][1]
            work = end - begin - sum(d for _, d in chunk)
            total += work * self.REF_S / statistics.median(d for _, d in chunk)
            begin = end
        return total


def fresh_interpreter(args):
    """Median wall time of a fresh interpreter running ``args`` against
    src/, over SETUP_REPEATS runs, and its output.  Start-up times are not
    scaled: they did not follow the probe kernel, timed on the same core
    during the start-up, any closer than they follow nothing."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(walls), proc.stdout.strip()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "frankmick").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(key, counts):
    """Compare this run's per-pass counts with earlier runs of the same source
    and seed, kept in .perfbench/counts.json; return the keys that differ."""
    STATE.mkdir(exist_ok=True)
    path = STATE / "counts.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    before = seen.get(key, {})
    differ = sorted(k for k in counts if k in before and before[k] != counts[k])
    seen[key] = {**before, **counts}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return differ


def run_passes(workload, seconds, probe, tracer=None):
    """Run and check passes until ``seconds`` have gone, at least one, with
    the probe running during each.  Returns (wall times, scaled times,
    outcomes)."""
    walls, scaled, outcomes = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_index = len(walls)
        probe.measure()  # at least one sample per pass, however short
        probe.start()
        try:
            t0 = time.perf_counter()
            raw = workload.run()
            t1 = time.perf_counter()
        finally:
            probe.stop()
        walls.append(t1 - t0)
        scaled.append(probe.scaled(t0, t1))
        if tracer is not None:
            tracer.paused = True  # the checks call the library too
        outcomes.append(workload.check(raw))
        if tracer is not None:
            tracer.paused = False
        del raw
    return walls, scaled, outcomes


def main(argv=None):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from layers import pass_counts

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "frankmick" / "__init__.py").is_file():
        print(f"no frankmick package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    cli_s, cli_out = fresh_interpreter(
        ["-m", "frankmick.cli", "frank", "tau", "--theta", "3"])
    if cli_out != "0.307":
        print(f"frankmick frank tau --theta 3 printed {cli_out!r}", file=sys.stderr)
        return 1
    if args.trace:
        import_s, _ = fresh_interpreter(["-c", "import frankmick"])

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import frankmick as fm
    from frankmick import harness

    if not Path(fm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"frankmick imported from {fm.__file__}, not {SRC}", file=sys.stderr)
        return 1
    log("env " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "MICK_THREADS": os.environ.get("MICK_THREADS"),
        "sweep_pool": getattr(harness, "_sweep_workers", lambda: None)(),
        "frankmick": str(Path(fm.__file__).parent), "source": source_digest(),
    }))

    probe = SpeedProbe()
    t0 = time.perf_counter()
    wl = workloads.make(args.workload, fm, args.seed)
    log(f"inputs built in {time.perf_counter() - t0:.2f} s")

    max_inner = workloads.SOLVER["max_inner"]
    if args.trace:
        from layers import layer_metrics, unit_of
        from tracer import Tracer

        # Half the time untraced, half traced: the difference of the two
        # median pass times is the tracing overhead.
        _, plain_scaled, plain = run_passes(wl, args.seconds / 2, probe)
        tracer = Tracer("frankmick", [importlib.import_module(f"frankmick.{m}")
                                      for m in LAYERS])
        tracer.install()
        try:
            walls, scaled, outcomes = run_passes(wl, args.seconds / 2, probe, tracer)
        finally:
            tracer.uninstall()
        per_pass = [
            pass_counts(o, [s for s in tracer.spans if s[3] == i], max_inner)
            for i, o in enumerate(outcomes)
        ] + [pass_counts(o) for o in plain]
        everything = outcomes + plain
    else:
        walls, scaled, outcomes = run_passes(wl, args.seconds, probe)
        per_pass = [pass_counts(o) for o in outcomes]
        everything = outcomes

    # An operation that fails a check in a way listed as a known defect of
    # the library counts in failed_frac (and ok_frac), not in "failed"; any
    # other failure counts in "failed" and makes the run incorrect.
    attempted = failed = known = 0
    kinds, unexpected = {}, set()
    for o in everything:
        for label, ks in o.ops:
            attempted += 1
            new = {f"{label}:{k}" for k in ks if not wl.is_expected(label, k)}
            failed += bool(new)
            known += bool(ks) and not new
            unexpected |= new
            for k in ks:
                kinds[k] = kinds.get(k, 0) + 1
    correct = not unexpected
    if unexpected:
        log(f"unexpected failures: {sorted(unexpected)[:20]}")
    failed_frac = (failed + known) / attempted

    first = per_pass[0]
    if any(c[k] != first[k] for c in per_pass for k in c):
        log(f"counts differ between passes: {per_pass}")
        correct = False
    differ = check_repeat(f"{source_digest()}/{args.workload}/{args.seed}", first)
    if differ:
        log(f"counts differ from an earlier run of this source and seed: {differ}")
        correct = False

    pass_s = statistics.median(scaled)
    factor = probe.factor()
    log(f"passes {len(walls)}  wall s {[round(t, 4) for t in walls]}  "
        f"scaled s {[round(t, 4) for t in scaled]}  probe runs {len(probe.samples)}  "
        f"run factor {factor:.4f}")
    log(f"ops/pass {len(everything[0].ops)}  failed {failed}  known defects {known}  "
        f"of {attempted}  kinds {kinds}")
    log(f"counts per pass {first}")

    if args.trace:
        m, finest, under = layer_metrics(tracer.spans, outcomes, walls, max_inner)
        m["trace.spans"] = len(tracer.spans) / len(walls)
        STATE.mkdir(exist_ok=True)
        tracer.write(STATE / f"spans-{args.workload}-{args.seed}.tsv")
        if finest:
            top = sorted(under.items(), key=lambda kv: -kv[1])[:6]
            log(f"self time under inner_fixed_point at n = {finest}: "
                + ", ".join(f"{k} {v:.3f} s" for k, v in top))
        log(f"setup s: cli {cli_s:.4f}  import {import_s:.4f}")
        # Span times are wall times, scaled by the probe's factor over the
        # whole run; a span holds the probe runs made while it was open.
        metrics = {
            k: {"value": v * factor if unit_of(k) in ("s", "us") else v, "unit": unit_of(k)}
            for k, v in m.items()
        }
        metrics["trace.pass_s"] = {"value": pass_s, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": pass_s - statistics.median(plain_scaled), "unit": "s"}
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.cli_s"] = {"value": cli_s, "unit": "s"}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log(f"pass_s {pass_s:.4f} s, wall {statistics.median(walls):.4f} s "
            f"(median of {len(walls)})  failed_frac {failed_frac:.4f}  "
            f"theta_gap_finest {outcomes[0].theta_gap:.6g}  "
            f"setup_s {cli_s:.4f} s  peak_rss_mb {rss_mb:.1f} MB")
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "ok_frac": {"value": 1.0 - failed_frac, "unit": "1"},
            "theta_gap_finest": {"value": outcomes[0].theta_gap, "unit": "1"},
            "setup_s": {"value": cli_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
