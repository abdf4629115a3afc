"""The shared text format for spaces, actions, maps, scenarios, reports.

One self-describing JSON dialect covers every input; docs/FORMAT.md in
the repository root is the normative schema reference.  Structured
report emission is byte-deterministic: keys sorted, shortest
round-trip floats, the infinity token rendered as "inf" and non-finite
floats as "inf", "-inf" or "nan", so the output is strict JSON.
"""

from __future__ import annotations

import json
import math

from .action import GroupAction, HomogeneousClass
from .category import INFINITE, MODES, CatQuery
from .dynamics import DynamicalPair
from .engine import AXIOM_MODES, INDEX_KINDS
from .numeric import FIELD_REGISTRY
from .poset import SizeCapExceeded, SpaceMap, validate_space


class ValidationError(ValueError):
    def __init__(self, location, message):
        self.location = location
        super().__init__(f"{location}: {message}")


SCENARIO_KINDS = ("category", "theorem", "engine", "numeric")

THEOREM_IDS = (
    "band_bound",
    "identity_band_bound",
    "global_bound",
    "semiflow",
    "homeo_band_bound",
)
FINITE_BAND_THEOREMS = ("band_bound", "homeo_band_bound")
NUMERIC_CHECKS = ("palais-smale-chain", "descent-map", "halffixed-circle")


class Scenario:
    """A parsed scenario file; fields depend on the kind."""

    def __init__(self, name, kind, raw, path=None):
        self.name = name
        self.kind = kind
        self.raw = raw
        self.path = path
        self.space = None
        self.action = None
        self.klass = None
        self.pair = None
        self.band = None
        self.index = None
        self.reference_spaces = None
        self.queries = None
        self.numeric = None
        self.expect = raw.get("expect")
        self.models = raw.get("models")
        self.notes = raw.get("notes")

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


def _is_labels(space, labels):
    return all(isinstance(p, str) and p in space.index for p in labels)


def parse_space(doc, location="space"):
    _require(doc, "object", location, "a space")
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
    _require(doc, "object", location, "an action")
    gens = _require(doc.get("generators", []), "list", location, "generators")
    for g in gens:
        _require(g, "object", location, "a generator")
        missing = [p for p in space.points if p not in g]
        if missing:
            raise ValidationError(location,
                                  f"generator misses points {missing}")
        if not _is_labels(space, g.values()):
            raise ValidationError(location,
                                  f"generator uses unknown points: {g!r}")
    try:
        return GroupAction.from_label_maps(space, gens)
    except (ValueError, SizeCapExceeded) as err:
        raise ValidationError(location, str(err))


def parse_class(action, doc, location="class"):
    if doc is None:
        return HomogeneousClass.default(action)
    _require(doc, "object", location, "an orbit class")
    kind = doc.get("kind", "point")
    if kind == "all":
        return HomogeneousClass.all_types(action)
    if kind == "free":
        return HomogeneousClass.free_only(action)
    if kind == "point":
        return HomogeneousClass.point_only(action)
    raise ValidationError(location, f"unknown orbit class kind {kind!r}")


def parse_map(space, doc, location="map"):
    _require(doc, "object", location, "a map")
    missing = [p for p in space.points if p not in doc]
    if missing:
        raise ValidationError(location, f"map misses points {missing}")
    unknown = [p for p in doc if p not in space.index]
    if unknown or not _is_labels(space, doc.values()):
        raise ValidationError(location, f"map uses unknown points: {doc!r}")
    try:
        return SpaceMap.from_dict(space, space, doc)
    except ValueError as err:
        raise ValidationError(location, str(err))


def parse_function(space, doc, location="function"):
    _require(doc, "object", location, "a function")
    missing = [p for p in space.points if p not in doc]
    if missing:
        raise ValidationError(location, f"function misses points {missing}")
    unknown = [p for p in doc if p not in space.index]
    if unknown:
        raise ValidationError(location,
                              f"function uses unknown points {unknown}")
    bad = [p for p, v in doc.items() if not _finite(v)]
    if bad:
        raise ValidationError(location, f"values must be finite numbers, "
                                        f"bad at {bad}")
    return {p: float(v) for p, v in doc.items()}


def parse_band(doc, location="band"):
    if not (isinstance(doc, (list, tuple)) and len(doc) == 2):
        raise ValidationError(location, "band must be a pair [a, b]")
    a, b = doc
    if not _finite(a) or b != "inf" and not _finite(b):
        raise ValidationError(location, f'cuts are finite numbers (the upper '
                                        f'cut may be "inf"), got {doc!r}')
    a, b = float(a), INFINITE if b == "inf" else float(b)
    if b is not INFINITE and not a < b:
        raise ValidationError(location, f"need a < b, got [{a}, {b}]")
    return a, b


def parse_index(doc, location="index"):
    """The engine's index block as (kind, cap, axiom_mode)."""
    _require(doc, "object", location, "an index block")
    kind = doc.get("kind", "category")
    cap = doc.get("cap", 5)
    axiom_mode = doc.get("axiom_mode", "exhaustive")
    if kind not in INDEX_KINDS:
        raise ValidationError(location, f"unknown index kind {kind!r}; "
                                        f"known: {INDEX_KINDS}")
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValidationError(location, f"cap must be an integer >= 1, "
                                        f"got {cap!r}")
    if axiom_mode not in AXIOM_MODES:
        raise ValidationError(location, f"unknown axiom_mode {axiom_mode!r}; "
                                        f"known: {AXIOM_MODES}")
    return kind, cap, axiom_mode


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
        _require(q, "object", loc, "a query")
        if _require(q.get("quotient", False), "boolean", loc, "quotient"):
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
    mask = 0
    for lab in _require(doc, "list", location, "a subset"):
        if not (isinstance(lab, str) and lab in space.index):
            raise ValidationError(location, f"unknown point {lab!r}")
        mask |= 1 << space.index[lab]
    return mask


def parse_scenario(path_or_doc, path=None):
    """Parse and validate a scenario from a path or a parsed document."""
    if isinstance(path_or_doc, dict):
        doc = path_or_doc
        location = path or "<doc>"
    else:
        path = location = str(path_or_doc)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ValidationError(location, f"cannot read: {err}")
        except json.JSONDecodeError as err:
            raise ValidationError(f"{location}:{err.lineno}", err.msg)
    kind = _require(doc, "object", location, "a scenario").get("kind")
    if kind not in SCENARIO_KINDS:
        raise ValidationError(location, f"unknown scenario kind {kind!r}")
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
    if kind in ("theorem", "engine"):
        phi = parse_map(sc.space, doc.get("map", {}), f"{location}.map")
        f = parse_function(sc.space, doc.get("function", {}),
                           f"{location}.function")
        sc.pair = DynamicalPair(sc.space, phi, f)
        sc.band = parse_band(doc.get("band"), f"{location}.band")
    if kind == "engine":
        sc.index = parse_index(doc.get("index", {}), f"{location}.index")
    if kind == "theorem":
        refs = _require(doc.get("reference_spaces", []), "list", location,
                        "reference_spaces")
        sc.reference_spaces = [
            parse_space(d, f"{location}.reference_spaces") for d in refs
        ]
        theorems = _require(doc.get("theorems", []), "list", location,
                            "theorems")
        bad = [t for t in theorems if t not in THEOREM_IDS]
        if bad:
            raise ValidationError(
                location, f"unknown theorem ids {bad}; known: {THEOREM_IDS}"
            )
        if not theorems:
            raise ValidationError(location, "theorem scenarios select "
                                            "at least one theorem")
        finite_only = [t for t in FINITE_BAND_THEOREMS if t in theorems]
        if finite_only and sc.band[1] is INFINITE:
            raise ValidationError(location, f"{finite_only} need a finite "
                                            "band")
        if "homeo_band_bound" in theorems and not sc.reference_spaces:
            raise ValidationError(location, "homeo_band_bound needs "
                                            "reference_spaces")
    return sc


# -- report emission ---------------------------------------------------------


def _encode(value):
    if value is INFINITE:
        return "inf"
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_encode(v) for v in value)
    return value


def emit_report(report, fmt="structured"):
    """Render a report dict; structured output is byte-deterministic."""
    doc = _encode(report)
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
        if set(doc) >= {"status", "ok"}:  # hypothesis ledger row
            flag = "ok" if doc["ok"] else "FAILED"
            extra = f" [{doc['status']}]"
            wit = f" witness={doc['witness']}" if doc.get("witness") else ""
            lines.append(f"{pad}{flag}{extra}{wit}")
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
            if isinstance(item, (dict, list)):
                _render_text(item, lines, indent)
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{doc}")


def expectation_mismatches(expect, actual, prefix=""):
    """Leaves of ``expect`` that disagree with ``actual`` (subset match)."""
    out = []
    expect = _encode(expect)
    actual = _encode(actual)
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
