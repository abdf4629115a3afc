"""Checks of the benchmark's tracer; kept out of the default test run.

    python3 -m pytest -q perfbench/check_tracer.py
"""

import tempfile

import pytest

from run import ROOT, Cycle, load_program

workloads = load_program()

import lscat  # noqa: E402
from lscat import action, category, cli, dynamics, engine  # noqa: E402
from tracer import COUNTED, SPANS, Tracer, lscat_modules  # noqa: E402


def _originals():
    """(owner, attribute) -> object, for every span and counted class."""
    by_name = {m.__name__: m for m in lscat_modules()}
    out = {}
    for _, module, attr in SPANS:
        owner = by_name["lscat." + module]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            out[(cls, method)] = cls.__dict__[method]
        else:
            out[(owner, attr)] = getattr(owner, attr)
    for _, module, cls_name, _ in COUNTED:
        cls = getattr(by_name["lscat." + module], cls_name)
        out[(cls, "__init__")] = cls.__dict__["__init__"]
    return out


def _bindings(obj):
    return [(m.__name__, name) for m in lscat_modules()
            for name, value in vars(m).items() if value is obj]


def test_install_wraps_every_import_site_and_uninstall_restores():
    originals = _originals()
    functions = [v for (owner, _), v in originals.items()
                 if owner in lscat_modules()]
    sites = {id(f): _bindings(f) for f in functions}
    # the import sites that a wrapper on the defining module alone misses
    assert engine.cover_category is category.cover_category
    assert dynamics.cover_category is category.cover_category
    assert cli.cover_category is category.cover_category
    assert action.fence_search is lscat.poset.fence_search
    assert category.fence_search is lscat.poset.fence_search
    assert category.is_contractible_in is lscat.poset.is_contractible_in
    assert category.is_G_deformable is action.is_G_deformable

    tracer = Tracer()
    tracer.install()
    try:
        for f in functions:
            assert _bindings(f) == [], f"{f.__name__} left unwrapped"
        for (owner, name), original in originals.items():
            assert getattr(owner, name).__wrapped__ is original
        for module, name in (("engine", "cover_category"),
                             ("dynamics", "cover_category"),
                             ("cli", "cover_category"),
                             ("action", "fence_search"),
                             ("category", "is_contractible_in"),
                             ("category", "is_G_deformable")):
            assert hasattr(getattr(getattr(lscat, module), name),
                           "__wrapped__"), (module, name)
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original
    for f in functions:
        assert _bindings(f) == sites[id(f)]
    wrapped = {id(v) for v in originals.values()}
    for m in lscat_modules():
        for name, value in vars(m).items():
            assert id(getattr(value, "__wrapped__", None)) not in wrapped, (
                m.__name__, name)


def test_lazy_import_in_simplicial_is_traced():
    from lscat.simplicial import SimplicialComplex, star_cover_upper_bound

    K = SimplicialComplex.from_maximal([("a", "b"), ("b", "c"), ("a", "c")])
    with Tracer() as tracer:
        star_cover_upper_bound(K)
    assert tracer.totals()["category.min_cover"][0] > 0


# Small slices of each cycle; corpus-cli has a single op, the full pass.
SLICES = {"engine-sweep": slice(0, 25), "relative-cover": slice(0, 8),
          "numeric-flow": slice(98, 102), "corpus-cli": slice(0, 1)}
EXACT = ("engine.index", "engine.index_evals", "numeric.grad_evals",
         "category.catalogue_build")


@pytest.mark.parametrize("name", sorted(SLICES))
def test_traced_runs_repeat_counts_and_match_untraced_outputs(name):
    groups = workloads.WORKLOADS[name](3)[SLICES[name]]
    if name == "numeric-flow":  # two energy checks and the descent check
        groups = groups[:2] + groups[3:]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as vdir:
        plain = Cycle(groups, vdir)
        counts, outputs = [], []
        for _ in range(2):
            with Tracer() as tracer:
                traced = Cycle(groups, vdir, tracer)
            counts.append({k: calls for k, (calls, _, _)
                           in tracer.totals().items()})
            outputs.append(traced.summaries)
    assert all(plain.oks)
    assert counts[0] == counts[1]
    assert outputs[0] == outputs[1] == plain.summaries
    assert any(counts[0].get(k) for k in EXACT + ("cli.run_scenario",))
