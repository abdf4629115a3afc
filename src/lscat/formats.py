"""The shared text format for spaces, actions, maps, scenarios, reports.

One self-describing JSON dialect covers every input; docs/FORMAT.md in
the repository root is the normative schema reference.  Structured
report emission is byte-deterministic: keys sorted, shortest
round-trip floats, and non-finite floats (the infinite category value
``math.inf`` among them) as "inf", "-inf" or "nan", so the output is
strict JSON.
"""

from __future__ import annotations

import json
import math

from .action import GroupAction, HomogeneousClass, validate_action
from .category import INFINITE, MODES, CatQuery, strict_json
from .dynamics import THEOREMS, DynamicalPair
from .engine import AXIOM_MODES, make_truncated_index
from .numeric import FIELD_REGISTRY
from .poset import SizeCapExceeded, SpaceMap, validate_space


class ValidationError(ValueError):
    def __init__(self, location, message):
        ValueError.__init__(self, f"{location}: {message}")


SCENARIO_KINDS = ("category", "theorem", "engine", "numeric")
FINITE_BAND_THEOREMS = ("band_bound", "homeo_band_bound")
NUMERIC_CHECKS = ("palais-smale-chain", "descent-map", "halffixed-circle")


class Scenario:
    """A parsed scenario file; fields depend on the kind."""

    def __init__(self, name, kind, raw, path=None):
        self.name = name
        self.kind = kind
        self.path = path
        self.space = None
        self.action = None
        self.klass = None
        self.pair = None
        self.band = None
        self.index = None
        self.theorems = None
        self.reference_spaces = None
        self.queries = None
        self.numeric = None
        self.expect = raw.get("expect")
        self.models = raw.get("models")

    def __repr__(self):
        return f"Scenario({self.name!r}, kind={self.kind!r})"


def _require(value, kind, location, what):
    """Reject a value that is not of the JSON type ``kind``."""
    types = {"object": dict, "list": (list, tuple), "string": str,
             "boolean": bool}[kind]
    if not isinstance(value, types):
        raise ValidationError(location,
                              f"{what} must be a JSON {kind}, got {value!r}")
    return value


def _only_keys(doc, allowed, location, what):
    """Reject an object ``doc`` with a key outside ``allowed``."""
    unknown = [k for k in doc if k not in allowed]
    if unknown:
        raise ValidationError(location, f"{what} has unknown keys {unknown}; "
                                        f"allowed: {list(allowed)}")
    return doc


def _per_point(space, doc, location, what, valid, values):
    """Reject ``doc`` unless it is an object whose keys are exactly the
    points of ``space`` and whose every value passes ``valid``."""
    _require(doc, "object", location, what)
    missing = [p for p in space.points if p not in doc]
    if missing:
        raise ValidationError(location, f"{what} misses points {missing}")
    unknown = [p for p in doc if p not in space.index]
    if unknown:
        raise ValidationError(location, f"{what} uses unknown points "
                                        f"{unknown}")
    bad = [p for p, v in doc.items() if not valid(v)]
    if bad:
        raise ValidationError(location, f"{what} values must be {values}, "
                                        f"bad at {bad}")
    return doc


def _label_map(space, doc, location, what):
    """A point-to-label object checked by ``_per_point``."""
    return _per_point(space, doc, location, what,
                      lambda v: isinstance(v, str) and v in space.index,
                      "point labels")


def load_json(path):
    """The JSON document in the file at ``path``; an object that repeats
    a key is an input error."""
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(path, f"repeated key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(path, f"cannot read: {err}")
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}:{err.lineno}", err.msg)


def parse_space(doc, location="space"):
    _only_keys(_require(doc, "object", location, "a space"),
               ("points", "relation"), location, "a space")
    try:
        points = doc["points"]
        relation = doc.get("relation", [])
    except KeyError as err:
        raise ValidationError(location, f"missing field: {err}")
    _require(points, "list", location, "points")
    if not all(isinstance(p, str) for p in points):
        raise ValidationError(location,
                              f"point labels are strings: {points!r}")
    for pair in _require(relation, "list", location, "relation"):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(p, str) for p in pair)):
            raise ValidationError(location, f"relation entries are label "
                                            f"pairs: {pair!r}")
    try:
        return validate_space(points, relation)
    except ValueError as err:
        raise ValidationError(location, str(err))


def parse_action(space, doc, location="action"):
    if doc is None:
        return GroupAction.trivial(space)
    _only_keys(_require(doc, "object", location, "an action"),
               ("generators",), location, "an action")
    gens = _require(doc.get("generators", []), "list", location, "generators")
    for g in gens:
        _label_map(space, g, location, "generator")
    try:
        return validate_action(space, gens)
    except (ValueError, SizeCapExceeded) as err:
        raise ValidationError(location, str(err))


def parse_class(action, doc, location="class"):
    if doc is None:
        return HomogeneousClass.default(action)
    _only_keys(_require(doc, "object", location, "an orbit class"),
               ("kind",), location, "an orbit class")
    kind = doc.get("kind", "point")
    if kind == "all":
        return HomogeneousClass.all_types(action)
    if kind == "free":
        return HomogeneousClass.free_only(action)
    if kind == "point":
        return HomogeneousClass.point_only(action)
    raise ValidationError(location, f"unknown orbit class kind {kind!r}")


def parse_map(space, doc, location="map"):
    _label_map(space, doc, location, "map")
    try:
        return SpaceMap.from_dict(space, space, doc)
    except ValueError as err:
        raise ValidationError(location, str(err))


def parse_function(space, doc, location="function"):
    doc = _per_point(space, doc, location, "function", _finite,
                     "finite numbers")
    return {p: float(v) for p, v in doc.items()}


def parse_band(doc, location="band"):
    if not (isinstance(doc, (list, tuple)) and len(doc) == 2):
        raise ValidationError(location, "band must be a pair [a, b]")
    a, b = doc
    if not _finite(a) or b != "inf" and not _finite(b):
        raise ValidationError(location, f'cuts are finite numbers (the upper '
                                        f'cut may be "inf"), got {doc!r}')
    a, b = float(a), float(b)
    if not a < b:
        raise ValidationError(location, f"need a < b, got [{a}, {b}]")
    return a, b


def parse_index(sc, doc, location):
    """The engine's index block as (truncated index, axiom_mode)."""
    _only_keys(_require(doc, "object", location, "an index block"),
               ("kind", "cap", "axiom_mode"), location, "an index block")
    axiom_mode = doc.get("axiom_mode", "exhaustive")
    if axiom_mode not in AXIOM_MODES:
        raise ValidationError(location, f"unknown axiom_mode {axiom_mode!r}; "
                                        f"known: {AXIOM_MODES}")
    try:
        nu = make_truncated_index(doc.get("kind", "category"),
                                  doc.get("cap", 5), sc.action, sc.klass)
    except ValueError as err:
        raise ValidationError(location, str(err))
    return nu, axiom_mode


def _finite(value):
    """Whether ``value`` is a JSON number that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def parse_numeric(doc, location):
    """A numeric scenario's (check, fixture, tau, n_max, family)."""
    check = doc.get("check")
    if check not in NUMERIC_CHECKS:
        raise ValidationError(location, f"numeric scenarios need a check in "
                                        f"{NUMERIC_CHECKS}, got {check!r}")
    unread = [k for k in ("fixture", "tau", "n_max", "family") if k in doc]
    if unread and check != "palais-smale-chain":
        raise ValidationError(location, f"{check} takes none of {unread}")
    fixture = doc.get("fixture", "quadratic")
    tau = doc.get("tau", 1.0)
    n_max = doc.get("n_max", 1000)
    family = doc.get("family")
    if not (isinstance(fixture, str) and fixture in FIELD_REGISTRY):
        raise ValidationError(location, f"unknown field fixture {fixture!r}; "
                                        f"known: {sorted(FIELD_REGISTRY)}")
    if not (_finite(tau) and tau > 0):
        raise ValidationError(location, f"tau must be a finite number > 0, "
                                        f"got {tau!r}")
    if check == "palais-smale-chain" and not tau / 1000.0 > 0:
        raise ValidationError(location, f"tau {tau!r} is too small for the "
                                        f"flow step tau/1000, which is 0")
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise ValidationError(location, f"n_max must be an integer >= 1, "
                                        f"got {n_max!r}")
    if "family" in doc and family != "reciprocal":
        raise ValidationError(location, f'family must be "reciprocal" when '
                                        f'given, got {family!r}')
    return check, fixture, float(tau), n_max, family


def parse_queries(sc, doc, location):
    """A category scenario's queries as (raw query, CatQuery) pairs."""
    out = []
    for k, q in enumerate(_require(doc, "list", location, "queries")):
        loc = f"{location}[{k}]"
        _only_keys(_require(q, "object", loc, "a query"),
                   ("mode", "A", "Y", "class_b", "quotient", "expect"),
                   loc, "a query")
        if _require(q.get("quotient", False), "boolean", loc, "quotient"):
            _only_keys(q, ("quotient", "expect"), loc, "a quotient query")
            quotient, _ = sc.action.orbit_space()
            out.append((q, CatQuery(quotient)))
            continue
        mode = q.get("mode", "plain")
        if mode not in MODES:
            raise ValidationError(loc, f"unknown mode {mode!r}; "
                                       f"known: {MODES}")
        A = parse_subset(sc.space, q.get("A"), loc)
        Y = q.get("Y")
        Y = 0 if Y is None else parse_subset(sc.space, Y, loc)
        class_b = [
            parse_space(b, f"{loc}.class_b")
            for b in _require(q.get("class_b", []), "list", loc, "class_b")
        ]
        try:
            query = CatQuery(sc.space, A=A, Y=Y, mode=mode, action=sc.action,
                             klass=sc.klass, class_b=class_b or None)
        except ValueError as err:
            raise ValidationError(loc, str(err))
        out.append((q, query))
    return out


def parse_subset(space, doc, location="subset"):
    if doc == "all" or doc is None:
        return space.full_mask()
    for lab in _require(doc, "list", location, "a subset"):
        if not (isinstance(lab, str) and lab in space.index):
            raise ValidationError(location, f"unknown point {lab!r}")
    return space.subset(doc)


def parse_theorems(sc, doc, location):
    """A theorem scenario's theorem ids and reference spaces."""
    refs = _require(doc.get("reference_spaces", []), "list", location,
                    "reference_spaces")
    theorems = _require(doc.get("theorems", []), "list", location,
                        "theorems")
    bad = [t for t in theorems if not (isinstance(t, str) and t in THEOREMS)]
    if bad:
        raise ValidationError(location, f"unknown theorem ids {bad}; "
                                        f"known: {tuple(THEOREMS)}")
    if not theorems:
        raise ValidationError(location, "theorem scenarios select "
                                        "at least one theorem")
    repeated = sorted({t for t in theorems if theorems.count(t) > 1})
    if repeated:
        raise ValidationError(location, f"repeated theorem ids {repeated}")
    finite_only = [t for t in FINITE_BAND_THEOREMS if t in theorems]
    if finite_only and sc.band[1] == INFINITE:
        raise ValidationError(location, f"{finite_only} need a finite band")
    if "homeo_band_bound" in theorems:
        if not refs:
            raise ValidationError(location, "homeo_band_bound needs "
                                            "reference_spaces")
        if not sc.action.is_trivial():
            raise ValidationError(location, "homeo_band_bound takes no "
                                            "group action")
    elif "reference_spaces" in doc:
        raise ValidationError(location, "only homeo_band_bound reads "
                                        "reference_spaces")
    return theorems, [parse_space(d, f"{location}.reference_spaces")
                      for d in refs]


def parse_scenario(path_or_doc, path=None):
    """Parse and validate a scenario from a path or a parsed document."""
    if isinstance(path_or_doc, dict):
        doc = path_or_doc
        location = path or "<doc>"
    else:
        path = location = str(path_or_doc)
        doc = load_json(path)
    kind = _require(doc, "object", location, "a scenario").get("kind")
    if kind not in SCENARIO_KINDS:
        raise ValidationError(location, f"unknown scenario kind {kind!r}")
    pair = ("space", "action", "class", "map", "function", "band")
    _only_keys(doc, ("kind", "name", "notes", "models", "expect") + {
        "category": ("space", "action", "class", "queries"),
        "theorem": pair + ("theorems", "reference_spaces"),
        "engine": pair + ("index",),
        "numeric": ("check", "fixture", "tau", "n_max", "family"),
    }[kind], location, f"a {kind} scenario")
    name = _require(doc.get("name", ""), "string", location, "name")
    sc = Scenario(name or path or "scenario", kind, doc, path=path)
    if kind == "numeric":
        sc.numeric = parse_numeric(doc, location)
        return sc
    sc.space = parse_space(doc.get("space"), f"{location}.space")
    sc.action = parse_action(sc.space, doc.get("action"), f"{location}.action")
    sc.klass = parse_class(sc.action, doc.get("class"), f"{location}.class")
    if kind == "category":
        sc.queries = parse_queries(sc, doc.get("queries", []),
                                   f"{location}.queries")
        return sc
    phi = parse_map(sc.space, doc.get("map", {}), f"{location}.map")
    f = parse_function(sc.space, doc.get("function", {}),
                       f"{location}.function")
    sc.pair = DynamicalPair(sc.space, phi, f)
    sc.band = parse_band(doc.get("band"), f"{location}.band")
    if kind == "engine":
        sc.index = parse_index(sc, doc.get("index", {}), f"{location}.index")
    else:
        sc.theorems, sc.reference_spaces = parse_theorems(sc, doc, location)
    return sc


# -- report emission ---------------------------------------------------------


def emit_report(report, fmt="structured"):
    """Render a report dict; structured output is byte-deterministic."""
    doc = strict_json(report)
    if fmt == "structured":
        return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True, allow_nan=False) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    _render_text(doc, lines)
    return "\n".join(lines) + "\n"


def _render_text(doc, lines, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        if set(doc) == {"ok", "witness", "note"}:  # theorem ledger row
            flag = "ok" if doc["ok"] else "FAILED"
            wit = f" witness={doc['witness']}" if doc["witness"] else ""
            note = f" - {doc['note']}" if doc["note"] else ""
            lines.append(f"{pad}{flag}{wit}{note}")
            return
        for key in doc:
            value = doc[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _render_text(value, lines, indent + 1)
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, dict):
                _render_text(item, lines, indent)
            elif isinstance(item, list):  # a tuple such as (level, value)
                lines.append(f"{pad}- [{', '.join(map(str, item))}]")
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{doc}")


def expectation_mismatches(expect, actual, prefix=""):
    """Leaves of ``expect`` that disagree with ``actual`` (subset match)."""
    out = []
    expect = strict_json(expect)
    actual = strict_json(actual)
    if isinstance(expect, dict) and isinstance(actual, dict):
        for k, v in expect.items():
            if k not in actual:
                out.append((f"{prefix}{k}", v, "<missing>"))
            else:
                out.extend(
                    expectation_mismatches(v, actual[k], f"{prefix}{k}.")
                )
        return out
    if expect != actual:
        out.append((prefix.rstrip("."), expect, actual))
    return out
