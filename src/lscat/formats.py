"""The shared text format for spaces, actions, maps, scenarios, reports.

One self-describing JSON dialect covers every input; docs/FORMAT.md in
the repository root is the normative schema reference.  Structured
report emission is byte-deterministic: keys sorted, shortest
round-trip floats, the infinity token rendered as "inf".
"""

from __future__ import annotations

import json
import math

from .action import GroupAction, HomogeneousClass
from .category import INFINITE
from .dynamics import DynamicalPair
from .engine import AXIOM_MODES, INDEX_KINDS
from .poset import SpaceMap, validate_space


class ParseError(ValueError):
    def __init__(self, location, message):
        self.location = location
        super().__init__(f"{location}: {message}")


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
        self.expect = raw.get("expect")
        self.models = raw.get("models")
        self.notes = raw.get("notes")

    def __repr__(self):
        return f"Scenario({self.name!r}, kind={self.kind!r})"


def _require(value, kind, location, what):
    """Reject a value that is not of the JSON type ``kind``."""
    types = {"object": dict, "list": (list, tuple), "string": str}[kind]
    if not isinstance(value, types):
        raise ParseError(location,
                         f"{what} must be a JSON {kind}, got {value!r}")
    return value


def _is_labels(space, labels):
    return all(isinstance(p, str) and p in space.index for p in labels)


def parse_space(doc, location="space"):
    try:
        points = doc["points"]
        relation = doc.get("relation", [])
    except (KeyError, TypeError) as err:
        raise ParseError(location, f"missing field: {err}")
    _require(points, "list", location, "points")
    if not all(isinstance(p, str) for p in points):
        raise ParseError(location, f"point labels are strings: {points!r}")
    for pair in _require(relation, "list", location, "relation"):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(p, str) for p in pair)):
            raise ParseError(location, f"relation entries are label pairs: "
                                       f"{pair!r}")
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
            raise ParseError(location, f"generator misses points {missing}")
        if not _is_labels(space, g.values()):
            raise ParseError(location, f"generator uses unknown points: {g!r}")
    try:
        return GroupAction.from_label_maps(space, gens)
    except ValueError as err:
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
        raise ParseError(location, f"map misses points {missing}")
    unknown = [p for p in doc if p not in space.index]
    if unknown or not _is_labels(space, doc.values()):
        raise ParseError(location, f"map uses unknown points: {doc!r}")
    try:
        return SpaceMap.from_dict(space, space, doc)
    except ValueError as err:
        raise ValidationError(location, str(err))


def parse_function(space, doc, location="function"):
    _require(doc, "object", location, "a function")
    missing = [p for p in space.points if p not in doc]
    if missing:
        raise ParseError(location, f"function misses points {missing}")
    unknown = [p for p in doc if p not in space.index]
    if unknown:
        raise ParseError(location, f"function uses unknown points {unknown}")
    try:
        values = {p: float(v) for p, v in doc.items()}
    except (TypeError, ValueError) as err:
        raise ValidationError(location, f"non-numeric value: {err}")
    bad = [p for p, v in values.items() if not math.isfinite(v)]
    if bad:
        raise ValidationError(location, f"non-finite values at {bad}")
    return values


def parse_band(doc, location="band"):
    if not (isinstance(doc, (list, tuple)) and len(doc) == 2):
        raise ParseError(location, "band must be a pair [a, b]")
    a, b = doc
    try:
        a = float(a)
    except (TypeError, ValueError):
        raise ParseError(location, f"lower cut must be a number, got {a!r}")
    if b == "inf":
        b = INFINITE
    else:
        try:
            b = float(b)
        except (TypeError, ValueError):
            raise ParseError(location, f'upper cut must be a number or "inf"')
    if not math.isfinite(a) or b is not INFINITE and not math.isfinite(b):
        raise ValidationError(location, f'cuts are finite numbers (the upper '
                                        f'cut may be "inf"), got {doc!r}')
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


def parse_complex(doc, location="complex"):
    """Vertex strings plus maximal simplices; faces close automatically."""
    from .simplicial import SimplicialComplex

    try:
        vertices = doc["vertices"]
        maximal = doc["maximal"]
    except (KeyError, TypeError) as err:
        raise ParseError(location, f"missing field: {err}")
    for s in maximal:
        if not isinstance(s, (list, tuple)) or not s:
            raise ParseError(location, f"simplices are nonempty lists: {s!r}")
    try:
        return SimplicialComplex(vertices, [tuple(s) for s in maximal])
    except ValueError as err:
        raise ValidationError(location, str(err))


def parse_subset(space, doc, location="subset"):
    if doc == "all" or doc is None:
        return space.full_mask()
    mask = 0
    for lab in _require(doc, "list", location, "a subset"):
        if not (isinstance(lab, str) and lab in space.index):
            raise ParseError(location, f"unknown point {lab!r}")
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
            raise ParseError(location, f"cannot read: {err}")
        except json.JSONDecodeError as err:
            raise ParseError(f"{location}:{err.lineno}", err.msg)
    kind = _require(doc, "object", location, "a scenario").get("kind")
    if kind not in SCENARIO_KINDS:
        raise ValidationError(location, f"unknown scenario kind {kind!r}")
    name = _require(doc.get("name", ""), "string", location, "name")
    sc = Scenario(name or path or "scenario", kind, doc, path=path)
    if kind == "numeric":
        if "check" not in doc:
            raise ValidationError(location, "numeric scenarios need a check")
        return sc
    sc.space = parse_space(doc.get("space"), f"{location}.space")
    sc.action = parse_action(sc.space, doc.get("action"), f"{location}.action")
    sc.klass = parse_class(sc.action, doc.get("class"), f"{location}.class")
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
    if isinstance(value, float) and value == float("inf"):
        return "inf"
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
                          ensure_ascii=True) + "\n"
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
