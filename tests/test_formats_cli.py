import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from lscat import action, cli, dynamics, engine, poset
from lscat.category import INFINITE
from lscat.cli import (
    builtin_corpus_dir,
    main,
    run_corpus,
)
from lscat.formats import (
    ValidationError,
    emit_report,
    expectation_mismatches,
    parse_scenario,
)

from certify import count_calls, verify_results

CORPUS = builtin_corpus_dir()

# sha256 of `lscat corpus run --format structured` on the shipped corpus;
# perfbench/pins.json pins the same digest
CORPUS_DIGEST = (
    "647fd5a70907c107b2bfb06f01418ccf9a7a0cea0100aa8f36b452ee51d3335b"
)

# fence searches of one corpus run and their domain points, counted at
# every call of poset.fence_search: (47, 229) with every deformation
# question decided on the relative G-core of its domain, (57, 251) when
# categorical questions searched from core(A) into core(X)
CORPUS_FENCE_SEARCHES = (47, 229)


def corpus_file(name):
    return os.path.join(CORPUS, name)


def test_parse_corpus_scenario():
    sc = parse_scenario(corpus_file("v_descent_bounds.json"))
    assert sc.kind == "theorem"
    assert sc.pair is not None
    assert sc.band == (-1.0, 3.0)


def test_parse_band_errors(tmp_path):
    doc = {
        "kind": "theorem",
        "space": {"points": ["a"], "relation": []},
        "map": {"a": "a"},
        "function": {"a": 0.0},
        "band": [2.0, 1.0],
        "theorems": ["band_bound"],
    }
    with pytest.raises(ValidationError):
        parse_scenario(doc)


def test_parse_unknown_theorem():
    doc = {
        "kind": "theorem",
        "space": {"points": ["a"], "relation": []},
        "map": {"a": "a"},
        "function": {"a": 0.0},
        "band": [0.0, 1.0],
        "theorems": ["nope"],
    }
    with pytest.raises(ValidationError):
        parse_scenario(doc)


def test_parse_infinite_band():
    doc = {
        "kind": "theorem",
        "space": {"points": ["a"], "relation": []},
        "map": {"a": "a"},
        "function": {"a": 0.0},
        "band": [0.0, "inf"],
        "theorems": ["identity_band_bound"],
    }
    sc = parse_scenario(doc)
    assert sc.band[1] == INFINITE


def test_parse_error_carries_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValidationError) as err:
        parse_scenario(str(bad))
    assert "bad.json" in str(err.value)


def test_emit_report_deterministic():
    report = {"b": [1.0, INFINITE], "a": {"x": 0.5}}
    one = emit_report(report, "structured")
    two = emit_report(report, "structured")
    assert one == two
    assert '"inf"' in one
    parsed = json.loads(one)
    assert parsed["b"] == [1.0, "inf"]


def test_emit_report_text_renders_ledger():
    report = {
        "hypotheses": {
            "lyapunov": {"status": "checked", "ok": True, "witness": None,
                         "note": None},
        },
        "verdict": "HOLDS",
    }
    text = emit_report(report, "text")
    assert "lyapunov" in text
    assert "HOLDS" in text


def test_expectation_mismatches_subset_semantics():
    actual = {"verdict": "HOLDS", "values": {"x": 1, "y": 2}}
    assert expectation_mismatches({"values": {"x": 1}}, actual) == []
    bad = expectation_mismatches({"values": {"x": 3}}, actual)
    assert bad == [("values.x", 3, 1)]
    missing = expectation_mismatches({"nope": 1}, actual)
    assert missing[0][2] == "<missing>"


def test_corpus_runs_clean(tmp_path, monkeypatch):
    searched = []  # domain points of each fence search
    search = poset.fence_search
    for module in (poset, action):  # the two modules that call it
        monkeypatch.setattr(module, "fence_search", lambda start, *a, **k: (
            searched.append(len(start.domain)) or search(start, *a, **k)))
    results = []  # every CatResult behind a theorem, engine or query row
    for module in (cli, dynamics, engine):
        count_calls(monkeypatch, {"cover_category": 0}, "cover_category",
                    module, "cover_category", results)
    buf = io.StringIO()
    code, summary = run_corpus(fmt="structured", out=buf)
    # each question is searched on the relative G-core of its domain
    assert (len(searched), sum(searched)) == CORPUS_FENCE_SEARCHES
    first = list(results)
    assert first and verify_results(first) > 0
    assert code == 0
    assert summary["mismatched"] == 0
    assert summary["fixtures"] == 14
    # determinism of the emitted bytes
    buf2 = io.StringIO()
    run_corpus(fmt="structured", out=buf2)
    assert buf.getvalue() == buf2.getvalue()
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        CORPUS_DIGEST
    )


def test_corpus_empty_dir(tmp_path):
    buf = io.StringIO()
    code, summary = run_corpus(str(tmp_path), fmt="structured", out=buf)
    assert code == 0
    assert summary["fixtures"] == 0


def test_corpus_corrupted_fixture(tmp_path):
    (tmp_path / "broken.json").write_text("{")
    buf = io.StringIO()
    code, summary = run_corpus(str(tmp_path), fmt="structured", out=buf)
    assert code == 2
    assert summary["input_errors"]


def test_corpus_manifest_covers_counterexamples():
    required = {
        "strict-equivariant-vs-quotient",
        "strict-mod-vs-pair-arc",
        "strict-pair-vs-difference-wedge",
        "nonequivalence-constant-map",
        "noncompact-halfline-descent",
        "halffixed-circle-nondiscrete",
        "band-pair-strict-wedge-cone",
        "band-mod-strict-halfcircle",
    }
    tags = []
    for name in os.listdir(CORPUS):
        if not name.endswith(".json"):
            continue
        with open(corpus_file(name)) as fh:
            doc = json.load(fh)
        if doc.get("models"):
            tags.append(doc["models"])
    assert sorted(tags) == sorted(required), "each counterexample has "
    "exactly one fixture"


def test_cli_space_validate(tmp_path, capsys):
    f = tmp_path / "space.json"
    f.write_text(json.dumps({
        "space": {"points": ["c", "a", "b"],
                  "relation": [["c", "a"], ["c", "b"]]},
    }))
    assert main(["space", "validate", str(f)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "space": {"points": ["a", "b"],
                  "relation": [["a", "b"], ["b", "a"]]},
    }))
    assert main(["space", "validate", str(bad)]) == 2


def test_cli_space_validate_past_subset_cap(tmp_path, capsys):
    f = tmp_path / "antichain.json"
    f.write_text(json.dumps({"points": [f"d{i}" for i in range(17)]}))
    assert main(["space", "validate", str(f)]) == 2
    assert "lscat.poset.SUBSET_SPACE_CAP = 16" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[1, 2], "points"])
def test_cli_space_validate_rejects_a_non_object(tmp_path, capsys, doc):
    f = tmp_path / "space.json"
    f.write_text(json.dumps(doc))
    assert main(["space", "validate", str(f)]) == 2
    assert capsys.readouterr().err.startswith("invalid:")


def test_oversized_group_is_an_input_error(tmp_path, capsys):
    # a 5-cycle and a transposition generate S5: 120 elements
    points = [f"d{i}" for i in range(5)]
    cycle = {p: points[(i + 1) % 5] for i, p in enumerate(points)}
    swap = dict(zip(points, ["d1", "d0", "d2", "d3", "d4"]))
    doc = {"name": "s5", "kind": "category",
           "space": {"points": points},
           "action": {"generators": [cycle, swap]},
           "queries": [{"mode": "plain"}]}
    f = tmp_path / "s5.json"
    f.write_text(json.dumps(doc))
    assert main(["cat", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "lscat.action.GROUP_CAP = 48" in err
    code, summary = run_corpus(str(tmp_path), fmt="structured",
                               out=io.StringIO())
    assert code == 2
    assert [e["file"] for e in summary["input_errors"]] == ["s5.json"]
    assert "GROUP_CAP" in summary["input_errors"][0]["error"]


def test_quotient_labels_escape_the_separator(tmp_path, capsys):
    # orbits {a, b} and {a|b}: joined plainly, both would be labelled a|b
    doc = {"name": "bar-labels", "kind": "category",
           "space": {"points": ["a", "b", "a|b"],
                     "relation": [["a", "a|b"], ["b", "a|b"]]},
           "action": {"generators": [{"a": "b", "b": "a", "a|b": "a|b"}]},
           "queries": [{"quotient": True}]}
    f = tmp_path / "bar_labels.json"
    f.write_text(json.dumps(doc))
    assert main(["cat", str(f), "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["value"] == 1
    quotient, _ = parse_scenario(str(f)).action.orbit_space()
    assert quotient.points == ("a|b", "a\\|b")


def test_classb_with_an_action_is_rejected_when_parsed(tmp_path, capsys):
    doc = _load_fixture("conjugation_circle.json")
    reference = {"points": ["c", "a", "b"],
                 "relation": [["c", "a"], ["c", "b"]]}
    doc["queries"] = [{"mode": "classB", "class_b": [reference]}]
    f = tmp_path / "classb_action.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="classB mode takes no group"):
        parse_scenario(str(f))
    assert main(["cat", str(f)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


SWAP_MINIMA = {"p": "q", "q": "p", "U": "U", "L": "L"}


@pytest.mark.parametrize("fixture, edit, command, message", [
    ("homeo_two_level.json",
     lambda doc, mp: doc.update(action={"generators": [SWAP_MINIMA]}),
     ["verify"], "homeo_band_bound takes no group action"),
    ("conjugation_circle.json",
     lambda doc, mp: doc["action"]["generators"][0].update(typo="p"),
     ["cat"], "generator uses unknown points ['typo']"),
    ("v_descent_engine.json",
     lambda doc, mp: doc["index"].update(cap=0), ["engine", "verify"],
     "truncation cap must be an integer >= 1"),
    ("v_descent_engine.json",
     lambda doc, mp: mp.setattr(engine, "AXIOM_EXHAUSTIVE_CAP", 2),
     ["engine", "verify"], "lscat.engine.AXIOM_EXHAUSTIVE_CAP = 2"),
    ("v_descent_bounds.json",
     lambda doc, mp: doc.update(theorems=[["band_bound"]]), ["verify"],
     "unknown theorem ids [['band_bound']]"),
    ("v_descent_bounds.json",
     lambda doc, mp: doc.update(theorems=[
         "band_bound", "identity_band_bound", "semiflow", "band_bound"]),
     ["verify"], "repeated theorem ids ['band_bound']"),
    ("v_descent_bounds.json",
     lambda doc, mp: doc.update(thoerems=["band_bound"]), ["verify"],
     "a theorem scenario has unknown keys ['thoerems']"),
], ids=["homeo-with-action", "generator-unknown-key", "index-cap-zero",
        "exhaustive-past-its-cap", "theorem-id-not-a-string",
        "theorem-id-repeated", "scenario-unknown-key"])
def test_bad_document_is_one_input_error_everywhere(
        tmp_path, capsys, monkeypatch, fixture, edit, command, message):
    doc = _load_fixture(fixture)
    edit(doc, monkeypatch)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert main(command + [str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err
    code, summary = run_corpus(str(tmp_path), fmt="structured",
                               out=io.StringIO())
    assert code == 2
    assert [e["file"] for e in summary["input_errors"]] == ["bad.json"]
    assert message in summary["input_errors"][0]["error"]
    assert summary["rows"] == []


def test_repeated_key_is_an_input_error(tmp_path, capsys):
    doc = _load_fixture("conjugation_circle.json")
    doc["action"]["generators"][0]["REPEATED"] = "q"
    f = tmp_path / "repeated.json"
    f.write_text(json.dumps(doc).replace('"REPEATED"', '"p"'))
    assert main(["cat", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "repeated key 'p'" in err
    code, summary = run_corpus(str(tmp_path), fmt="structured",
                               out=io.StringIO())
    assert code == 2
    assert [e["file"] for e in summary["input_errors"]] == ["repeated.json"]
    assert "repeated key 'p'" in summary["input_errors"][0]["error"]
    assert summary["rows"] == []


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b'{"kind": "category", "name": "caf\xe9"}')
    assert main(["cat", str(f)]) == 2
    assert main(["space", "validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "\ninvalid:" in err
    code, summary = run_corpus(str(tmp_path), fmt="structured",
                               out=io.StringIO())
    assert code == 2
    assert [e["file"] for e in summary["input_errors"]] == ["latin1.json"]


def test_cli_cat_and_verify(capsys):
    assert main(["cat", corpus_file("boundary_pair_arc.json"),
                 "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"][0]["value"] == 1
    assert main(["verify", corpus_file("halfcircle_boundary_band.json")]) == 0
    capsys.readouterr()


def test_cli_engine_verify(capsys):
    assert main(["engine", "verify", corpus_file("v_descent_engine.json"),
                 "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["verdict"] == "INEQUALITY_HOLDS"


def test_cli_engine_verify_past_the_exhaustive_axiom_cap(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(engine, "AXIOM_EXHAUSTIVE_CAP", 2)
    path = corpus_file("v_descent_engine.json")
    assert main(["engine", "verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "lscat.engine.AXIOM_EXHAUSTIVE_CAP = 2" in err
    (tmp_path / "v.json").write_text(open(path).read())
    code, summary = run_corpus(str(tmp_path), fmt="structured",
                               out=io.StringIO())
    assert code == 2
    assert "AXIOM_EXHAUSTIVE_CAP" in summary["input_errors"][0]["error"]


def test_cli_engine_expectation_mismatch(tmp_path, capsys):
    with open(corpus_file("v_descent_engine.json")) as fh:
        doc = json.load(fh)
    doc["expect"]["rhs"] = 99
    f = tmp_path / "broken_expect.json"
    f.write_text(json.dumps(doc))
    assert main(["engine", "verify", str(f)]) == 1
    capsys.readouterr()


def test_cli_numeric_ps_check(capsys):
    assert main(["numeric", "ps-check", "--fixture", "quadratic",
                 "--tau", "1.0", "--n-max", "100",
                 "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["chain_ok"] is True


# sha256 of `lscat numeric ps-check --format structured`: the default start
# family begins at gradient norm 2, so these runs take the truncation
# profile's cubic bridge, which the corpus digest leaves unpinned
NUMERIC_DIGESTS = {
    ("quadratic", "0.5"):
        "10198a31a4b53822985b4e0de8a4c862ad7f4dae0089d64cda709036a50c13fd",
    ("quadratic", "1.0"):
        "265ddd44338fac0b9b49299318dc0676b671c19171cbb09ca0cab4a720a8bd21",
    ("quadratic", "2.0"):
        "a72e9d11f8c44bc755e845f553641110d27425099ffe5b2251d2552c5c663fc6",
    ("half-interval", "1.0"):
        "1cf7a6aaa55f52cb079340d72cfd99e60ab90bb31bc3ad5383d6f026a30270f1",
}


@pytest.mark.parametrize("fixture, tau", sorted(NUMERIC_DIGESTS))
def test_numeric_report_bytes_pinned(fixture, tau, capsys):
    assert main(["numeric", "ps-check", "--fixture", fixture, "--tau", tau,
                 "--n-max", "1000", "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == NUMERIC_DIGESTS[fixture, tau]


# sha256 of the whole stdout of `lscat verify` on each shipped theorem
# fixture and of `lscat engine verify` on each shipped engine fixture; the
# corpus digest covers only the summary rows, not these report bytes
REPORT_DIGESTS = {
    ("verify", "constant_map_circle", "structured"):
        "7bbadc0c6e4f976d1d7bd471454f71745a27a4f3ef6f18e4d3f0181ef492de7d",
    ("verify", "constant_map_circle", "text"):
        "87b7f6f549e0bc4df7a0c969cfb0ab1e1bf04caa579f02424858e8f8732f3ef1",
    ("verify", "halfcircle_boundary_band", "structured"):
        "d97a754b8f595ee33d3eec80113e4957ba15a0006c0a2ff232251ee6e1c95ba3",
    ("verify", "halfcircle_boundary_band", "text"):
        "facd0ce2e3c6a75b90d9b214f298bcc4cf3fe918aac1567cd2fe09903ad5f86c",
    ("verify", "homeo_two_level", "structured"):
        "d9fbfadf220fd89c01810af6c6119b622d0748ece05e5d3d7bf53f1f5a1cf9e4",
    ("verify", "homeo_two_level", "text"):
        "1c70476d6ca0732bdcc5dcc5e9e629295cf6aba38b8f0c39a7c694c76dfbfcb0",
    ("verify", "two_level_divergence", "structured"):
        "4efa704019bb6298e99d9cc13f22eb2347f1637a374a59121a785bdf967c42a9",
    ("verify", "two_level_divergence", "text"):
        "80dce1149ebeb313c965c6e34ed3c029fd59fd1d379bdf5d41e14adfeacfa989",
    ("verify", "v_descent_bounds", "structured"):
        "f8d2b2b5d25065acc44b8dc41e1a40d933f6b89c767c069e0c2835393957c1a9",
    ("verify", "v_descent_bounds", "text"):
        "d4f2fe33610e89500485bea2191f35f55c267459a19d80bccb590358c3764fa0",
    ("verify", "wedge_cone_band", "structured"):
        "52c6bc7075be359f7fa88abe1ee976b631262a2d91ebe3625f9c8c594acae804",
    ("verify", "wedge_cone_band", "text"):
        "31868a178aa7dfee2decae525ee5004ef02f2232b44d85c092adf64552693392",
    ("engine verify", "engine_negative_constant", "structured"):
        "40b47c7e05820eab28d29d85d653295bab1091961434d92b39aa0eb00f7e678f",
    ("engine verify", "engine_negative_constant", "text"):
        "0c082fddb022424d33899c0a13316ec32b03cf78787069debb5fb5894cd9c32d",
    ("engine verify", "v_descent_engine", "structured"):
        "e74b0cf006a746617b0844bcc4c3f82abf7d182837ab9215354f0248df703036",
    ("engine verify", "v_descent_engine", "text"):
        "d10ef2c38de0bad4372924823a61300218ce94c26cfaa3f4b539f8651de9ec42",
}


@pytest.mark.parametrize("command, fixture, fmt", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(command, fixture, fmt, capsys):
    assert main([*command.split(), corpus_file(fixture + ".json"),
                 "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_DIGESTS[command, fixture, fmt]


def test_numeric_false_rest_point_is_not_a_conclusion(capsys):
    # at tau 1e6 the step tau/1000 leaves RK4's stable range and the
    # iterated flow stalls at [1, 0], where the gradient is (2, 0)
    assert main(["numeric", "ps-check", "--fixture", "quadratic",
                 "--tau", "1e6", "--n-max", "10",
                 "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["rest_point_estimate"] == [1.0, 0.0]
    assert report["rest_point_moved"] == 0.0
    assert report["conclusion_ok"] is False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow
def test_numeric_overflowed_rest_test_is_not_a_conclusion(capsys):
    # the flow stalls at [-5e196, 0], where the gradient is (-1e197, 0);
    # the norms of the limit and of the gradient overflow to inf, and an
    # infinite tolerance must not pass the rest test
    assert main(["numeric", "ps-check", "--tau", "1e200", "--n-max", "10",
                 "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["rest_point_estimate"] == [-5e196, 0.0]
    assert report["rest_point_moved"] == 0.0
    assert report["rest_point_in_domain"] is True
    assert report["conclusion_ok"] is False


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_emit_report_writes_non_finite_floats_as_strings():
    report = {"values": [float("inf"), float("-inf"), float("nan"), 1.5]}
    out = emit_report(report, "structured")
    assert json.loads(out, parse_constant=_reject_constant) == {
        "values": ["inf", "-inf", "nan", 1.5]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow
def test_numeric_overflow_report_is_strict_json(capsys):
    # the flow overflows at this horizon, so the energy drops are -inf
    assert main(["numeric", "ps-check", "--tau", "1e300", "--n-max", "10",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert [r["drop"] for r in doc["report"]["results"]] == ["-inf", "-inf"]


@pytest.mark.parametrize("flags", [
    ["--tau", "nan"], ["--tau", "inf"], ["--tau", "-1"], ["--tau", "0"],
    ["--n-max", "0"], ["--n-max", "-5"], ["--fixture", "bogus"],
    ["--tau", "5e-324"], ["--tau", "2.4e-321"],
], ids=["tau-nan", "tau-inf", "tau-negative", "tau-zero", "n-max-zero",
        "n-max-negative", "unknown-fixture", "tau-step-zero",
        "tau-step-zero-largest"])
def test_cli_rejects_bad_numeric_inputs(flags, capsys):
    assert main(["numeric", "ps-check", "--n-max", "10"] + flags) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_cli_tau_rule_is_that_the_step_is_positive(capsys):
    # the flow step is tau/1000: 2.4e-321 / 1000 rounds to 0 (rejected
    # above), 2.5e-321 / 1000 to the smallest subnormal, which runs
    assert 2.4e-321 / 1000.0 == 0.0 < 2.5e-321 / 1000.0
    assert main(["numeric", "ps-check", "--tau", "2.5e-321", "--n-max", "10",
                 "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["tau"] == 2.5e-321


@pytest.mark.parametrize("edit", [
    {"tau": "1.0"}, {"tau": True}, {"tau": 10 ** 400}, {"n_max": 10.0},
    {"n_max": True}, {"fixture": ["quadratic"]}, {"family": "bogus"},
    {"family": None}, {"check": "bogus"}, {"tau": 2.4e-321},
], ids=["tau-string", "tau-bool", "tau-huge-int", "n-max-float",
        "n-max-bool", "fixture-list", "family-unknown", "family-null",
        "check-unknown", "tau-step-zero"])
def test_parse_rejects_bad_numeric_fields(edit):
    doc = {"kind": "numeric", "check": "palais-smale-chain"}
    assert parse_scenario(dict(doc)).numeric == (
        "palais-smale-chain", "quadratic", 1.0, 1000, None)
    with pytest.raises(ValidationError):
        parse_scenario({**doc, **edit})


def test_cli_corpus_run(capsys):
    assert main(["corpus", "run", "--format", "structured"]) == 0
    capsys.readouterr()


def test_cli_rejects_wrong_kind(tmp_path, capsys):
    assert main(["verify", corpus_file("v_descent_engine.json")]) == 2
    capsys.readouterr()


def _load_fixture(name):
    with open(corpus_file(name)) as fh:
        return json.load(fh)


def _run_doc(doc, command):
    """Exit code of ``lscat <command> FILE`` on a scenario document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)  # NaN and Infinity are written as such
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(command + [path])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("edit", [
    lambda d: d["function"].update(c=NAN),
    lambda d: d["function"].update(c=INF),
    lambda d: d.update(band=[-INF, 3.0]),
    lambda d: d.update(band=[-1.0, INF]),
    lambda d: d["function"].update(c="0.0"),
    lambda d: d["function"].update(c=True),
    lambda d: d["function"].update(c=10 ** 400),
    lambda d: d.update(band=["-1.0", 3.0]),
    lambda d: d.update(band=[False, 3.0]),
    lambda d: d.update(band=[-1.0, True]),
], ids=["function-nan", "function-inf", "lower-cut-minus-inf",
        "upper-cut-inf-number", "function-string", "function-boolean",
        "function-huge-integer", "lower-cut-string", "lower-cut-boolean",
        "upper-cut-boolean"])
def test_cli_rejects_non_finite_numbers(edit):
    doc = _load_fixture("v_descent_engine.json")
    edit(doc)
    assert _run_doc(doc, ["engine", "verify"]) == 2


@pytest.mark.parametrize("field, value", [
    ("cap", "abc"), ("cap", 0), ("kind", "bogus"), ("axiom_mode", "bogus"),
])
def test_cli_rejects_bad_index_block(field, value):
    doc = _load_fixture("v_descent_engine.json")
    doc["index"][field] = value
    assert _run_doc(doc, ["engine", "verify"]) == 2


@pytest.mark.parametrize("name", ["v_descent_bounds.json",
                                  "homeo_two_level.json"])
def test_cli_rejects_unbounded_band_for_finite_band_theorems(name):
    doc = _load_fixture(name)
    doc["band"][1] = "inf"
    assert _run_doc(doc, ["verify"]) == 2


# -- fuzzing malformed scenario documents -------------------------------------

COMMANDS = {"theorem": ["verify"], "engine": ["engine", "verify"],
            "category": ["cat"]}
FUZZ_FIXTURES = sorted(
    name for name in os.listdir(CORPUS)
    if name.endswith(".json") and _load_fixture(name)["kind"] in COMMANDS
)
REQUIRED = {
    "theorem": ("kind", "space", "map", "function", "band", "theorems"),
    "engine": ("kind", "space", "map", "function", "band"),
    "category": ("kind", "space"),
}
# the JSON type of every field the parser reads, by path
TYPED = {
    ("name",): str, ("space",): dict, ("space", "points"): list,
    ("space", "relation"): list, ("action",): dict,
    ("action", "generators"): list, ("class",): dict,
}
PAIR_TYPED = {("map",): dict, ("function",): dict, ("band",): list}
# queries[0] is a mode query (not a quotient one) in every category fixture
QUERY_TYPED = {("queries",): list, ("queries", 0): dict,
               ("queries", 0, "mode"): str, ("queries", 0, "A"): list,
               ("queries", 0, "Y"): list, ("queries", 0, "class_b"): list,
               ("queries", 0, "quotient"): bool}
TYPED_BY_KIND = {
    "theorem": {**TYPED, **PAIR_TYPED, ("theorems",): list,
                ("reference_spaces",): list},
    "engine": {**TYPED, **PAIR_TYPED, ("index",): dict},
    "category": {**TYPED, **QUERY_TYPED},
}
WRONG_VALUES = (0, 1.5, True, "x", [], ["x"], {}, {"x": 1})
BAD_INDEX = {"kind": ("bogus", 3), "cap": ("abc", 0, -1, 2.5, True),
             "axiom_mode": ("bogus", 1)}


def _drop(draw, doc, kind):
    required = REQUIRED[kind]
    if "homeo_band_bound" in doc.get("theorems", ()):
        required += ("reference_spaces",)
    where = draw(st.sampled_from(
        [(k,) for k in required]
        + [("space", "points")]
        + [(block, p) for block in ("map", "function") if block in doc
           for p in doc["space"]["points"]]
    ))
    parent = doc
    for k in where[:-1]:
        parent = parent[k]
    del parent[where[-1]]


def _wrong_type(draw, doc, kind):
    path, typ = draw(st.sampled_from(sorted(TYPED_BY_KIND[kind].items())))
    value = draw(st.sampled_from(
        [v for v in WRONG_VALUES if not isinstance(v, typ)]
    ))
    parent = doc
    for k in path[:-1]:
        parent = parent[k] if isinstance(k, int) else parent.setdefault(k, {})
    parent[path[-1]] = value


def _non_finite(draw, doc, kind):
    value = draw(st.sampled_from((NAN, INF, -INF)))
    where = draw(st.sampled_from(["function", 0, 1]))
    if where == "function":
        doc["function"][draw(st.sampled_from(doc["space"]["points"]))] = value
    else:
        doc["band"][where] = value


def _unknown_label(draw, doc, kind):
    p = draw(st.sampled_from(doc["space"]["points"]))
    where = draw(st.sampled_from(
        ["relation", "query-A"] if kind == "category" else
        ["map-image", "map-point", "function-point", "relation"]
    ))
    if where == "map-image":
        doc["map"][p] = "no-such-point"
    elif where == "relation":
        doc["space"]["relation"].append([p, "no-such-point"])
    elif where == "query-A":
        doc["queries"][0]["A"] = [p, "no-such-point"]
    else:
        block = doc[where.split("-")[0]]
        block["no-such-point"] = block.pop(p)


def _not_order_preserving(draw, doc, kind):
    # a map swapping the ends of a strict pair x < y breaks x <= y
    x, y = draw(st.sampled_from(doc["space"]["relation"]))
    doc["map"][x], doc["map"][y] = y, x


def _bad_index(draw, doc, kind):
    field = draw(st.sampled_from(sorted(BAD_INDEX)))
    doc.setdefault("index", {})[field] = draw(
        st.sampled_from(BAD_INDEX[field])
    )


def _bad_query(draw, doc, kind):
    query = doc["queries"][0]
    edit = draw(st.sampled_from(["mode", "Y-without-pair", "classB-alone",
                                 "class_b-without-classB"]))
    if edit == "mode":
        query["mode"] = draw(st.sampled_from(("bogus", "Plain", "")))
    elif edit == "Y-without-pair":  # these modes take no reference subset
        query.update(mode=draw(st.sampled_from(("plain", "closed"))), Y="all")
    elif edit == "classB-alone":  # classB needs a class_b reference list
        query.pop("Y", None)
        query["mode"] = "classB"
    else:  # and only classB takes one
        query.pop("Y", None)
        query.update(mode="plain", class_b=[doc["space"]])


def _unknown_key(draw, doc, kind):
    # keys allowed nowhere, and top-level blocks the kind does not read
    blocks = [b for b in ("space", "action", "class", "index") if b in doc]
    if kind == "category":
        blocks.append("query")
    where = draw(st.sampled_from([None] + blocks))
    if where is None:
        block = doc
    elif where == "query":
        block = doc["queries"][0]
    else:
        block = doc[where]
    stray = ["relaiton", "mdoe", "thoerems"]
    if where is None:
        stray += {"theorem": ["index", "queries"], "engine": ["theorems"],
                  "category": ["map", "band", "index"]}[kind]
    block[draw(st.sampled_from(stray))] = {}


PAIR_MALFORMATIONS = (_drop, _wrong_type, _non_finite, _unknown_label,
                      _not_order_preserving, _unknown_key)
MALFORMATIONS = {
    "theorem": PAIR_MALFORMATIONS,
    "engine": PAIR_MALFORMATIONS + (_bad_index,),
    "category": (_drop, _wrong_type, _unknown_label, _bad_query,
                 _unknown_key),
}


def _edited(name, edit):
    doc = _load_fixture(name)
    edit(doc)
    return doc


@st.composite
def malformed_scenarios(draw):
    doc = _load_fixture(draw(st.sampled_from(FUZZ_FIXTURES)))
    kind = doc["kind"]
    draw(st.sampled_from(MALFORMATIONS[kind]))(draw, doc, kind)
    return doc, COMMANDS[kind]


# stray keys that were once read past without a word
@example(({"points": ["a", "b"], "relaiton": [["a", "b"]]},
          ["space", "validate"]))
@example((_edited("boundary_pair_arc.json", lambda d: d.update(
    queries=[{"mdoe": "mod", "A": "all"}])), ["cat"]))
@example((_edited("boundary_pair_arc.json", lambda d: d.update(
    queries=[{"A": "all", "class_b": [d["space"]]}])), ["cat"]))
@example((_edited("conjugation_circle.json", lambda d: d.update(
    queries=[{"quotient": True, "mode": "bogus", "A": ["nope"],
              "expect": 1}])), ["cat"]))
@example((_edited("v_descent_bounds.json",
                  lambda d: d.update(thoerems=["band_bound"])), ["verify"]))
@example((_edited("v_descent_bounds.json",
                  lambda d: d.update(index={"cap": 2})), ["verify"]))
@settings(max_examples=300, deadline=None)
@given(malformed_scenarios())
def test_cli_rejects_malformed_scenarios(case):
    doc, command = case
    assert _run_doc(doc, command) == 2
