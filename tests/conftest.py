import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import fixtures as fx  # noqa: E402
from lscat.action import GroupAction, validate_action  # noqa: E402
from lscat.dynamics import DynamicalPair  # noqa: E402


@pytest.fixture(autouse=True)
def _violations_dir(tmp_path, monkeypatch):
    """Persisted counterexamples land in the test's own directory; any
    file appearing there fails the test that produced it."""
    target = tmp_path / "violations"
    monkeypatch.setenv("LSCAT_VIOLATIONS_DIR", str(target))
    yield target
    leftovers = list(target.glob("*.json")) if target.exists() else []
    assert not leftovers, f"persisted violations: {leftovers}"


@pytest.fixture
def v_space():
    return fx.fix_v()


@pytest.fixture
def c4():
    return fx.fix_c4()


@pytest.fixture
def arc3():
    return fx.fix_arc3()


@pytest.fixture
def wedge2():
    return fx.fix_2circ()


@pytest.fixture
def v_pair(v_space):
    return DynamicalPair(v_space, fx.v_descent_map(v_space), fx.V_HEIGHTS)


@pytest.fixture
def c4_const_pair(c4):
    return DynamicalPair(c4, fx.c4_constant_map(c4), fx.C4_CONST_HEIGHTS)


@pytest.fixture
def conjugation(c4):
    return validate_action(c4, [fx.conjugation_generator()])


@pytest.fixture
def trivial_c4(c4):
    return GroupAction.trivial(c4)
