"""Command line entry points and the corpus runner.

Exit codes: 0 success (and, for the corpus, every expectation matched),
1 unexpected theorem violation or expectation mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import formats
from .category import cover_category
from .dynamics import (
    FenceNotFound,
    verify_band_bound,
    verify_global_bound,
    verify_homeo_band_bound,
    verify_identity_band_bound,
    verify_semiflow,
)
from .engine import make_truncated_index, verify_index_bound
from .formats import (
    ParseError,
    ValidationError,
    emit_report,
    expectation_mismatches,
    parse_scenario,
    parse_space,
)
from .numeric import (
    FixtureUnconstructible,
    FlowConfig,
    check_discrete_palais_smale_sampled,
    get_field,
    half_interval_field,
    halffixed_circle_map_samples,
    n_schedule,
    verify_prop_app,
)
from .poset import NotAPartialOrder, EmptySpace, SizeCapExceeded


def _print_report(report, fmt):
    sys.stdout.write(emit_report(report, fmt))


def cmd_space_validate(args):
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
        space = parse_space(doc.get("space", doc), args.file)
        report = {
            "points": list(space.points),
            "relation": space.relation_pairs(),
            "open_sets": len(space.up_sets()),
            "discrete": space.is_discrete(),
        }
    except (ParseError, ValidationError, NotAPartialOrder, EmptySpace,
            SizeCapExceeded, OSError, json.JSONDecodeError) as err:
        print(f"invalid: {err}", file=sys.stderr)
        return 2
    _print_report(report, args.format)
    return 0


def run_category_scenario(sc):
    results = [{"query": raw, "value": cover_category(query).value}
               for raw, query in sc.queries]
    return {"name": sc.name, "kind": sc.kind, "results": results}


def run_theorem_scenario(sc):
    a, b = sc.band
    reports = {}
    for theorem in sc.raw["theorems"]:
        if theorem == "band_bound":
            rep = verify_band_bound(sc.pair, a, b, sc.action, sc.klass)
        elif theorem == "identity_band_bound":
            rep = verify_identity_band_bound(sc.pair, a, b, sc.action,
                                             sc.klass)
        elif theorem == "global_bound":
            rep = verify_global_bound(sc.pair, b, sc.action, sc.klass)
        elif theorem == "semiflow":
            rep = verify_semiflow(sc.pair, sc.action, sc.klass)
        elif theorem == "homeo_band_bound":
            rep = verify_homeo_band_bound(sc.pair, sc.reference_spaces, a, b,
                                          sc.action)
        else:  # pragma: no cover - guarded by the parser
            raise ValidationError(sc.name, f"unknown theorem {theorem}")
        reports[theorem] = rep.to_dict()
    return {"name": sc.name, "kind": sc.kind, "reports": reports}


def run_engine_scenario(sc, seed=0):
    a, b = sc.band
    kind, cap, axiom_mode = sc.index
    nu = make_truncated_index(kind, cap, sc.action, sc.klass)
    rep = verify_index_bound(nu, sc.pair, a, b, axiom_mode=axiom_mode,
                             seed=seed)
    return {"name": sc.name, "kind": sc.kind, "report": rep}


def run_numeric_scenario(sc):
    check, fixture, tau, n_max, family = sc.numeric
    if check == "palais-smale-chain":
        field = get_field(fixture)
        if family == "reciprocal":
            family = [np.array([1.0 / max(n, 2)]) for n in n_schedule(n_max)]
        rep = verify_prop_app(
            field, FlowConfig(tau, tau / 1000.0), n_max=n_max, family=family
        )
    elif check == "descent-map":
        samples = [np.array([2.0 ** -j]) for j in range(1, 20)]
        field = half_interval_field()
        rep = check_discrete_palais_smale_sampled(
            lambda x: x / 2.0,
            lambda x: float(np.asarray(x).reshape(-1)[0]),
            samples,
            domain=field.domain,
        )
    elif check == "halffixed-circle":
        phi, height, samples = halffixed_circle_map_samples()
        rep = check_discrete_palais_smale_sampled(phi, height, samples)
        fixed = [
            s for s in samples
            if float(np.linalg.norm(s - phi(s))) <= 1e-9
        ]
        values = sorted(float(s[1]) for s in fixed)
        rep["fixed_sample_count"] = len(fixed)
        rep["fixed_value_range"] = [values[0], values[-1]] if values else None
        rep["fixed_values_nondiscrete"] = bool(
            values and values[-1] - values[0] > 0.5
        )
    else:  # pragma: no cover - guarded by the parser
        raise ValidationError(sc.name, f"unknown numeric check {check!r}")
    return {"name": sc.name, "kind": sc.kind, "report": rep}


def run_scenario(sc, seed=0):
    if sc.kind == "category":
        return run_category_scenario(sc)
    if sc.kind == "theorem":
        return run_theorem_scenario(sc)
    if sc.kind == "engine":
        return run_engine_scenario(sc, seed)
    return run_numeric_scenario(sc)


def _scenario_expect_actual(sc, outcome):
    if sc.kind != "category" and sc.expect is None:
        return []
    if sc.kind == "category":
        expected_values = [raw.get("expect") for raw, _ in sc.queries]
        actual = [r["value"] for r in outcome["results"]]
        mismatches = []
        for k, (e, got) in enumerate(zip(expected_values, actual)):
            if e is None:
                continue
            mismatches.extend(
                expectation_mismatches(e, got, f"queries[{k}].value.")
            )
        return mismatches
    key = {"theorem": "reports", "engine": "report",
           "numeric": "report"}[sc.kind]
    return expectation_mismatches(sc.expect, outcome[key])


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
        path = os.path.join(directory, name)
        try:
            scenarios.append(parse_scenario(path))
        except (ParseError, ValidationError) as err:
            errors.append({"file": name, "error": str(err)})

    matched = mismatched = 0
    summary_rows = []
    for sc in sorted(scenarios, key=lambda sc: sc.name):
        try:
            outcome = run_scenario(sc, seed=seed)
            mismatches = _scenario_expect_actual(sc, outcome)
        except (SizeCapExceeded, FenceNotFound, FixtureUnconstructible,
                ValidationError, ValueError) as err:
            errors.append({"file": sc.path, "error": str(err)})
            continue
        status = "ok" if not mismatches else "MISMATCH"
        if mismatches:
            mismatched += 1
        else:
            matched += 1
        summary_rows.append({
            "name": sc.name,
            "models": sc.models,
            "status": status,
            "mismatches": [
                {"path": p, "expected": e, "actual": a}
                for p, e, a in mismatches
            ],
        })
    summary = {
        "fixtures": len(scenarios),
        "matched": matched,
        "mismatched": mismatched,
        "input_errors": errors,
        "rows": summary_rows,
    }
    out.write(emit_report(summary, fmt))
    if errors:
        return 2, summary
    if mismatched:
        return 1, summary
    return 0, summary


def _scenario_command(args, expected_kind, seed=0):
    try:
        sc = parse_scenario(args.file)
        if sc.kind != expected_kind:
            raise ValidationError(
                args.file, f"expected a {expected_kind} scenario, "
                           f"got {sc.kind}"
            )
        outcome = run_scenario(sc, seed=seed)
        mismatches = _scenario_expect_actual(sc, outcome)
    except (ParseError, ValidationError, NotAPartialOrder, EmptySpace,
            SizeCapExceeded, FenceNotFound) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    outcome["expectation_mismatches"] = [
        {"path": p, "expected": e, "actual": a} for p, e, a in mismatches
    ]
    _print_report(outcome, args.format)
    if mismatches:
        return 1
    if expected_kind == "theorem":
        for rep in outcome["reports"].values():
            if rep["verdict"].startswith("VIOLATION"):
                return 1
    if expected_kind == "engine" and outcome["report"]["verdict"] == (
        "VIOLATION"
    ):
        return 1
    return 0


def cmd_cat(args):
    return _scenario_command(args, "category")


def cmd_engine_verify(args):
    return _scenario_command(args, "engine", args.seed)


def cmd_verify(args):
    return _scenario_command(args, "theorem")


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
        sc = parse_scenario(doc)
        outcome = run_numeric_scenario(sc)
    except (ValidationError, FixtureUnconstructible) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    _print_report(outcome, args.format)
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
    p_cat.set_defaults(func=cmd_cat)

    p_engine = sub.add_parser("engine", help="index-function engine")
    engine_sub = p_engine.add_subparsers(dest="subcommand", required=True)
    p_ev = engine_sub.add_parser("verify", parents=[common],
                                 help="verify the counting bound")
    p_ev.add_argument("file")
    p_ev.add_argument("--seed", type=int, default=0)
    p_ev.set_defaults(func=cmd_engine_verify)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a theorem scenario")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=cmd_verify)

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
