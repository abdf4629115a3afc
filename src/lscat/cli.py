"""Command line entry points and the corpus runner.

Exit codes: 0 success (and, for the corpus, every expectation matched),
1 unexpected theorem violation or expectation mismatch, 2 input error.

An input error is any exception in ``INPUT_ERRORS`` raised while a file
is read, parsed or run: ``ValueError`` is the library's bad-argument
signal (``ValidationError``, ``NotAPartialOrder``, ``EmptySpace`` and
JSON decoding errors among them), ``SizeCapExceeded`` a size cap and
``FixtureUnconstructible`` a numeric fixture without start points.  Every
command catches this one tuple: a single command prints the error and
exits with 2, the corpus runner records one input-error row for the file.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .category import cover_category
from .dynamics import THEOREMS
from .engine import verify_index_bound
from .formats import (
    ValidationError,
    emit_report,
    expectation_mismatches,
    load_json,
    parse_scenario,
    parse_space,
)
from .numeric import (
    FIELD_REGISTRY,
    FixtureUnconstructible,
    FlowConfig,
    check_discrete_palais_smale_sampled,
    half_interval_field,
    halffixed_circle_map_samples,
    n_schedule,
    verify_prop_app,
)
from .poset import SizeCapExceeded

INPUT_ERRORS = (ValueError, SizeCapExceeded, FixtureUnconstructible)


def cmd_space_validate(args):
    try:
        doc = load_json(args.file)
        if isinstance(doc, dict):
            doc = doc.get("space", doc)
        space = parse_space(doc, args.file)
        report = {
            "points": list(space.points),
            "relation": space.relation_pairs(),
            "open_sets": len(space.up_sets()),
            "discrete": space.is_discrete(),
        }
    except INPUT_ERRORS as err:
        print(f"invalid: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, args.format))
    return 0


def run_scenario(sc, seed=0):
    """The outcome of one parsed scenario: the query ``results`` of a
    category scenario, the theorem ``reports`` of a theorem scenario, or
    the ``report`` of an engine or numeric scenario."""
    outcome = {"name": sc.name, "kind": sc.kind}
    if sc.kind == "category":
        outcome["results"] = [
            {"query": raw, "value": cover_category(query).value}
            for raw, query in sc.queries
        ]
    elif sc.kind == "theorem":
        outcome["reports"] = {
            t: THEOREMS[t](sc.pair, sc.band, sc.action, sc.klass,
                           sc.reference_spaces).to_dict()
            for t in sc.theorems
        }
    elif sc.kind == "engine":
        nu, axiom_mode = sc.index
        outcome["report"] = verify_index_bound(
            nu, sc.pair, *sc.band, axiom_mode=axiom_mode, seed=seed)
    elif sc.numeric[0] == "palais-smale-chain":
        _, fixture, tau, n_max, family = sc.numeric
        if family == "reciprocal":
            family = [np.array([1.0 / max(n, 2)]) for n in n_schedule(n_max)]
        outcome["report"] = verify_prop_app(
            FIELD_REGISTRY[fixture](), FlowConfig(tau, tau / 1000.0),
            n_max=n_max, family=family)
    elif sc.numeric[0] == "descent-map":
        outcome["report"] = check_discrete_palais_smale_sampled(
            lambda x: x / 2.0,
            lambda x: float(np.asarray(x).reshape(-1)[0]),
            [np.array([2.0 ** -j]) for j in range(1, 20)],
            domain=half_interval_field().domain,
        )
    else:  # halffixed-circle
        phi, height, samples = halffixed_circle_map_samples()
        rep = outcome["report"] = check_discrete_palais_smale_sampled(
            phi, height, samples)
        fixed = [s for s in samples
                 if float(np.linalg.norm(s - phi(s))) <= 1e-9]
        values = sorted(float(s[1]) for s in fixed)
        rep["fixed_sample_count"] = len(fixed)
        rep["fixed_value_range"] = [values[0], values[-1]] if values else None
        rep["fixed_values_nondiscrete"] = bool(
            values and values[-1] - values[0] > 0.5
        )
    return outcome


def _mismatches(sc, outcome):
    """Where the outcome disagrees with the scenario's expectations: each
    category query's ``expect`` against its value, or the scenario's
    ``expect`` against its reports."""
    if sc.kind == "category":
        found = []
        for k, result in enumerate(outcome["results"]):
            if result["query"].get("expect") is not None:
                found += expectation_mismatches(
                    result["query"]["expect"], result["value"],
                    f"queries[{k}].value.")
    elif sc.expect is None:
        found = []
    else:
        key = "reports" if sc.kind == "theorem" else "report"
        found = expectation_mismatches(sc.expect, outcome[key])
    return [{"path": p, "expected": e, "actual": a} for p, e, a in found]


def builtin_corpus_dir():
    return os.path.join(os.path.dirname(__file__), "corpus")


def run_corpus(directory=None, seed=0, fmt="text", out=None):
    out = out or sys.stdout
    directory = directory or builtin_corpus_dir()
    try:
        names = sorted(
            f for f in os.listdir(directory) if f.endswith(".json")
        )
    except OSError as err:
        print(f"cannot list corpus: {err}", file=sys.stderr)
        return 2, None
    scenarios = []
    errors = []
    for name in names:
        try:
            scenarios.append(parse_scenario(os.path.join(directory, name)))
        except INPUT_ERRORS as err:
            errors.append({"file": name, "error": str(err)})
    rows = []
    for sc in sorted(scenarios, key=lambda sc: sc.name):
        try:
            mismatches = _mismatches(sc, run_scenario(sc, seed=seed))
        except INPUT_ERRORS as err:
            errors.append({"file": os.path.basename(sc.path),
                           "error": str(err)})
            continue
        rows.append({
            "name": sc.name,
            "models": sc.models,
            "status": "MISMATCH" if mismatches else "ok",
            "mismatches": mismatches,
        })
    mismatched = sum(row["status"] == "MISMATCH" for row in rows)
    summary = {
        "fixtures": len(scenarios),
        "matched": len(rows) - mismatched,
        "mismatched": mismatched,
        "input_errors": errors,
        "rows": rows,
    }
    out.write(emit_report(summary, fmt))
    return (2 if errors else 1 if mismatched else 0), summary


def _scenario_command(kind):
    """The command that runs one scenario file of the given kind."""

    def command(args):
        try:
            sc = parse_scenario(args.file)
            if sc.kind != kind:
                raise ValidationError(
                    args.file, f"expected a {kind} scenario, got {sc.kind}")
            outcome = run_scenario(sc, seed=getattr(args, "seed", 0))
            mismatches = _mismatches(sc, outcome)
        except INPUT_ERRORS as err:
            print(f"input error: {err}", file=sys.stderr)
            return 2
        outcome["expectation_mismatches"] = mismatches
        sys.stdout.write(emit_report(outcome, args.format))
        reports = [*outcome.get("reports", {}).values(),
                   outcome.get("report", {})]
        return int(bool(mismatches) or any(
            r.get("verdict", "").startswith("VIOLATION") for r in reports))

    return command


def cmd_numeric_ps_check(args):
    doc = {
        "name": f"ps-check-{args.fixture}",
        "kind": "numeric",
        "check": "palais-smale-chain",
        "fixture": args.fixture,
        "tau": args.tau,
        "n_max": args.n_max,
    }
    if args.fixture == "half-interval":
        doc["family"] = "reciprocal"
    try:
        outcome = run_scenario(parse_scenario(doc))
    except INPUT_ERRORS as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(outcome, args.format))
    return 0


def cmd_corpus_run(args):
    code, _ = run_corpus(args.dir, seed=args.seed, fmt=args.format)
    return code


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("structured", "text"),
                        default="text")
    parser = argparse.ArgumentParser(
        prog="lscat",
        description="Exact Lusternik-Schnirelmann category and min-max "
                    "critical point bounds on finite spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="space utilities")
    space_sub = p_space.add_subparsers(dest="subcommand", required=True)
    p_validate = space_sub.add_parser("validate", parents=[common],
                                      help="validate a space file")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=cmd_space_validate)

    p_cat = sub.add_parser("cat", parents=[common],
                           help="run a category scenario")
    p_cat.add_argument("file")
    p_cat.set_defaults(func=_scenario_command("category"))

    p_engine = sub.add_parser("engine", help="index-function engine")
    engine_sub = p_engine.add_subparsers(dest="subcommand", required=True)
    p_ev = engine_sub.add_parser("verify", parents=[common],
                                 help="verify the counting bound")
    p_ev.add_argument("file")
    p_ev.add_argument("--seed", type=int, default=0)
    p_ev.set_defaults(func=_scenario_command("engine"))

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a theorem scenario")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=_scenario_command("theorem"))

    p_numeric = sub.add_parser("numeric", help="numeric backend")
    numeric_sub = p_numeric.add_subparsers(dest="subcommand", required=True)
    p_ps = numeric_sub.add_parser("ps-check", parents=[common],
                                  help="descent-flow chain check")
    p_ps.add_argument("--fixture", default="quadratic")
    p_ps.add_argument("--tau", type=float, default=1.0)
    p_ps.add_argument("--n-max", type=int, default=1000)
    p_ps.set_defaults(func=cmd_numeric_ps_check)

    p_corpus = sub.add_parser("corpus", help="pinned fixture corpus")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p_run = corpus_sub.add_parser("run", parents=[common],
                                  help="run fixtures against their "
                                       "expected verdicts")
    p_run.add_argument("dir", nargs="?", default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=cmd_corpus_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
