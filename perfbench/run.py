"""lscat benchmark: one workload, checked, with end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload engine-sweep --seed 0 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` repeats the workload's cycle (see workloads.py) until
``--seconds`` have passed and prints the end-to-end metrics.
``--trace 1`` runs one cycle untraced and the same cycle again under the
tracer (tracer.py) and prints the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it name each metric with its
unit.  Exit code 2 when the program cannot be imported.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
WORKLOAD_NAMES = ("engine-sweep", "relative-cover", "numeric-flow",
                  "corpus-cli")


def load_program():
    """Import lscat from this checkout's src/ and the workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    import lscat
    if Path(lscat.__file__).resolve().parent != ROOT / "src" / "lscat":
        raise ImportError(f"lscat imported from {lscat.__file__}, "
                          f"not from {ROOT / 'src'}")
    import workloads
    return workloads


def timed_setup(name, seed):
    t0 = time.perf_counter()
    workloads = load_program()
    groups = workloads.WORKLOADS[name](seed)
    return time.perf_counter() - t0, groups


def probe_setup(name, seed):
    """Median set-up time over fresh interpreters (import + inputs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


class Cycle:
    """Per-op wall times, verdicts and output summaries of one cycle;
    with a tracer, only the ops themselves are traced."""

    def __init__(self, groups, violations, tracer=None):
        self.times, self.oks, self.summaries = [], [], []
        if tracer:  # trace the ops only, not prepare or check
            tracer.active = False
        seen = len(os.listdir(violations))
        for group in groups:
            state = group.prepare()
            outs, persisted = [], []
            for op in group.ops:
                if tracer:
                    tracer.active = True
                start = time.perf_counter()
                try:
                    out = op(state)
                except Exception as err:  # raised or hit a size cap: failed
                    out = err
                self.times.append(time.perf_counter() - start)
                if tracer:
                    tracer.active = False
                outs.append(out)
                now = len(os.listdir(violations))
                persisted.append(now > seen)
                seen = now
            for (ok, summary), wrote in zip(group.check(outs), persisted):
                if wrote:
                    ok, summary = False, summary + " (violation persisted)"
                if not ok:
                    print(f"FAILED op {len(self.oks)}: {summary}",
                          file=sys.stderr)
                self.oks.append(ok)
                self.summaries.append(summary)

    @property
    def failed(self):
        return self.oks.count(False)


def tail_rank(per_cycle):
    """Highest ladder percentile with ten of a cycle's ops beyond it, or
    the maximum when a cycle has too few ops for any."""
    ok = [p for p in LADDER if per_cycle - math.ceil(p * per_cycle) >= 10]
    return ok[-1] if ok else 1.0


def end_to_end(name, seed, seconds, groups, violations):
    setup_s = probe_setup(name, seed)
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(Cycle(groups, violations))
    times = sorted(t for c in cycles for t in c.times)
    n = len(times)
    failed = sum(c.failed for c in cycles)
    p = tail_rank(len(cycles[0].times))
    rank = max(math.ceil(p * n), 1)
    metrics = {
        "ops_per_s": ((n - failed) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (times[rank - 1] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "op_tail_ms": f"p{p * 100:g} of {n} ops, {n - rank} beyond it",
        "ops_per_s": f"{len(cycles)} cycle(s) of {len(cycles[0].times)} ops",
    }
    print(f"failed_ratio = {failed / n:.6g} ratio ({failed} of {n} ops)")
    return n, failed, metrics, notes


def per_layer(groups, violations):
    from tracer import Tracer

    plain = Cycle(groups, violations)
    tracer = Tracer()
    with tracer:
        traced = Cycle(groups, violations, tracer)
    diverged = sum(a != b for a, b in zip(plain.summaries, traced.summaries))
    if diverged:
        print(f"{diverged} op outputs differ between the untraced and the "
              "traced pass", file=sys.stderr)
    totals = tracer.totals()

    def calls(key):
        return totals.get(key, (0, 0.0, 0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for key in ("engine.verify_index_bound", "category.cover_category",
                "category.catquery", "category.min_cover",
                "category.is_categorical", "poset.core",
                "poset.is_contractible_in", "poset.fence_search",
                "action.is_G_deformable", "numeric.flow_map",
                "numeric.field_V", "numeric.truncation_g", "dynamics.verify",
                "cli.run_scenario", "formats.parse_scenario",
                "formats.emit_report"):
        c, self_s, found = totals.get(key, (0, 0.0, 0))
        if not key.startswith("formats."):
            metrics[f"{key}.calls"] = (c, "count")
        metrics[f"{key}.self_s"] = (self_s, "s")
        if key in ("poset.fence_search", "action.is_G_deformable"):
            metrics[f"{key}.found_ratio"] = (ratio(found, c), "ratio")
    traced_s = sum(traced.times)
    index_calls = calls("engine.index")
    index_evals = calls("engine.index_evals")
    grad_evals = calls("numeric.grad_evals")
    metrics.update({
        "engine.index_calls": (index_calls, "count"),
        "engine.index_evals": (index_evals, "count"),
        "engine.index_hit_ratio": (
            ratio(index_calls - index_evals, index_calls), "ratio"),
        "category.catalogue_requests": (calls("category.catalogue"), "count"),
        "category.catalogue_builds": (
            calls("category.catalogue_build"), "count"),
        "numeric.grad_evals": (grad_evals, "count"),
        "numeric.grad_evals_per_s": (grad_evals / traced_s, "1/s"),
        "trace_overhead_ratio": (traced_s / sum(plain.times), "ratio"),
    })
    n = len(plain.oks) + len(traced.oks)
    return n, plain.failed + traced.failed + diverged, metrics, {}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        setup, groups = timed_setup(args.workload, args.seed)
    except (ImportError, OSError, KeyError) as err:
        print(f"cannot set up {args.workload}: {err!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup)
        return 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as vdir:
        # persisted counterexamples land here, and each one fails its op
        os.environ["LSCAT_VIOLATIONS_DIR"] = vdir
        if args.trace:
            n, failed, metrics, notes = per_layer(groups, vdir)
        else:
            n, failed, metrics, notes = end_to_end(
                args.workload, args.seed, args.seconds, groups, vdir)
    for key, (value, unit) in metrics.items():
        note = f" ({notes[key]})" if key in notes else ""
        print(f"{key} = {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
