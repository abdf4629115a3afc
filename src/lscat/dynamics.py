"""Lyapunov pairs, the discrete Palais-Smale condition, and the
band-counting theorem verifiers.

Every verifier computes both sides of its inequality unconditionally
and reports a hypothesis ledger; hypothesis failures never abort, since
the negative fixtures are first-class test content.  Parts whose proofs
need normality or an ANR hypothesis (unavailable on finite non-discrete
models) are report-only: their failures are recorded, not persisted.

The theorems share one band core.  A ``DynamicalPair`` holds its fixed
mask and gives the band mask a < f <= b; the critical levels, the orbit
classes and the fixed band slice are read from the two.  One
``check_discrete_palais_smale`` call fills both Lyapunov ledger rows.
``_band_values`` writes the sublevel categories and the slice sum
(``_slice_sum``, which the engine shares), and ``_difference_parts`` the
orbit-type hypothesis and the three counts against their difference.
Each ledger row is a check that ran, and each part holds exactly when
its lhs is at least its bound.  ``global_bound`` and
``semiflow`` return the band report over a band whose low cut lies
under every value of f, under their own theorem id; each public
verifier persists at most one bundle, for the report it returns.
"""

from __future__ import annotations

import hashlib
import json
import os

from .action import (
    GroupAction,
    HomogeneousClass,
    is_G_map,
    mod_stage_ok,
    orbit_equivalent,
)
from .category import (
    CatQuery,
    INFINITE,
    cover_category,
    strict_json,
    value_diff,
    _induced,
)
from .poset import (
    FenceCertificate,
    _collapse_stages,
    _deform,
    _reach,
    bits,
    is_homotopy_equivalence,
)


class DynamicalPair:
    """A self-map ``phi`` of a space with a real value ``f`` per point."""

    __slots__ = ("space", "phi", "f", "_fixed")

    def __init__(self, space, phi, f):
        if phi.domain != space or phi.codomain != space:
            raise ValueError("phi must be a self-map of the space")
        if isinstance(f, dict):
            f = tuple(float(f[p]) for p in space.points)
        else:
            f = tuple(float(v) for v in f)
        if len(f) != len(space):
            raise ValueError("f must assign a value to every point")
        self.space = space
        self.phi = phi
        self.f = f
        self._fixed = sum(
            1 << i for i, v in enumerate(phi.images) if v == i
        )

    def fixed_mask(self):
        return self._fixed

    def sublevel(self, a):
        return sum(1 << i for i, v in enumerate(self.f) if v <= a)

    def _band(self, a, b):
        """The band a < f <= b."""
        return sum(1 << i for i, v in enumerate(self.f) if a < v <= b)

    def level_slice(self, d):
        return self._fixed & sum(
            1 << i for i, v in enumerate(self.f) if v == d
        )

    def critical_levels(self, a, b):
        """Sorted values of f on the fixed set within ]a, b]."""
        return sorted({
            self.f[i] for i in bits(self._fixed & self._band(a, b))
        })

    def values_sorted(self):
        return sorted(set(self.f))


def check_discrete_palais_smale(pair):
    """Discrete Palais-Smale condition for a finite-space pair, as the
    ledger row {"ok", "witness"}: the Lyapunov property f(phi(x)) <
    f(x) off the fixed set, with the first point where it fails.

    On a finite space the infimum of the decrement f - f o phi over any
    subset is attained, so the condition reduces to the Lyapunov
    property: an attained zero decrement is a fixed point inside the
    subset, hence inside its closure.
    """
    for i, v in enumerate(pair.phi.images):
        if v != i and not pair.f[v] < pair.f[i]:
            return {"ok": False, "witness": pair.space.points[i]}
    return {"ok": True, "witness": None}


def minimal_escape_power(pair, source_mask, target_mask):
    """Least n with phi^n(source) inside target; None past the power cap
    2|X| + #f(X) + 2."""
    cap = 2 * len(pair.space) + len(set(pair.f)) + 2
    current = source_mask
    for n in range(cap + 1):
        if current & ~target_mask == 0:
            return n
        current = pair.phi.image_mask(current)
    return None


# -- reports ----------------------------------------------------------------


class TheoremReport:
    """Hypothesis ledger, both sides of each inequality, verdicts."""

    def __init__(self, theorem):
        self.theorem = theorem
        self.hypotheses = {}
        self.values = {}
        self.parts = {}

    def hypothesis(self, name, ok, witness=None, note=None):
        self.hypotheses[name] = {"ok": bool(ok), "witness": witness,
                                 "note": note}

    def part(self, name, lhs, bound, rhs, assertable, note=None):
        """The inequality lhs >= bound, whose bound reads as ``rhs``."""
        self.parts[name] = {
            "lhs": lhs,
            "bound": bound,
            "rhs": rhs,
            "holds": lhs >= bound,
            "assertable": bool(assertable),
            "note": note,
        }

    def failures(self):
        return [k for k, h in self.hypotheses.items() if not h["ok"]]

    def verdict(self):
        failed = self.failures()
        if failed:
            return "HYPOTHESIS_FAILED:" + ",".join(sorted(failed))
        bad = [
            k for k, p in self.parts.items()
            if p["assertable"] and not p["holds"]
        ]
        if bad:
            return "VIOLATION:" + ",".join(sorted(bad))
        return "HOLDS"

    def to_dict(self):
        return {
            "theorem": self.theorem,
            "hypotheses": strict_json(self.hypotheses),
            "values": strict_json(self.values),
            "parts": strict_json(self.parts),
            "verdict": self.verdict(),
        }


def persist_violation(kind, pair, report):
    """Write the counterexample bundle {space, phi, f, report} to the
    violations directory: the pair by labels, which ``validate_space``,
    ``SpaceMap.from_dict`` and ``DynamicalPair`` rebuild, and the
    report's dict."""
    space = pair.space
    bundle = {
        "space": {"points": list(space.points),
                  "relation": space.relation_pairs()},
        "phi": {p: pair.phi(p) for p in space.points},
        "f": dict(zip(space.points, pair.f)),
        "report": report,
    }
    directory = os.environ.get("LSCAT_VIOLATIONS_DIR", "lscat-violations")
    os.makedirs(directory, exist_ok=True)
    blob = json.dumps(strict_json(bundle), sort_keys=True, allow_nan=False)
    digest = hashlib.sha1(blob.encode()).hexdigest()[:12]
    path = os.path.join(directory, f"{kind}-{digest}.json")
    with open(path, "w") as fh:
        fh.write(blob)
    return path


def _maybe_persist(pair, report):
    """Persist a violated report's bundle; returns the report."""
    if report.verdict().startswith("VIOLATION"):
        persist_violation(report.theorem, pair, report.to_dict())
    return report


# -- shared pieces -----------------------------------------------------------


def _context(pair, action, klass):
    action = action or GroupAction.trivial(pair.space)
    return action, klass or HomogeneousClass.default(action)


def _gcat(space, mask, action, klass, mode="plain", Y=0):
    # saturation is the identity for invariant masks; for a broken
    # (non-invariant) function the report still carries usable numbers
    mask = action.saturate(mask)
    Y = action.saturate(Y)
    return cover_category(
        CatQuery(space, A=mask, Y=Y, mode=mode, action=action, klass=klass)
    ).value


def _slice_sum(pair, a, b, cat):
    """Sum of ``cat(slice)`` over the fixed slices of the critical levels
    in the band, with the per-level values."""
    total = 0
    per_level = []
    for d in pair.critical_levels(a, b):
        val = cat(pair.level_slice(d))
        per_level.append((d, val))
        total += val
    return total, per_level


def _fixed_slice_cat(pair, a, b, action, klass):
    """Category of the fixed band slice as its own space (0 if empty)."""
    slice_mask = action.saturate(pair.fixed_mask() & pair._band(a, b))
    if not slice_mask:
        return 0
    sub, idx = pair.space.subspace(slice_mask)
    sub_action, sub_klass = _induced(action, klass, sub, idx)
    return cover_category(
        CatQuery(sub, action=sub_action, klass=sub_klass)
    ).value


def _base_hypotheses(report, pair, action):
    dps = check_discrete_palais_smale(pair)
    report.hypothesis("lyapunov", dps["ok"], witness=dps["witness"])
    report.hypothesis(
        "discrete_palais_smale", dps["ok"],
        witness=dps["witness"],
        note="reduces to the Lyapunov property on finite spaces",
    )
    if not action.is_trivial():
        report.hypothesis("equivariant_map", is_G_map(pair.phi, action))
        inv = all(
            len({pair.f[i] for i in bits(orb)}) == 1
            for orb in action.orbits()
        )
        report.hypothesis("invariant_function", inv)


def _count_orbit_classes(pair, a, b, action):
    """Equivalence classes of orbits in the fixed band slice."""
    reps = []
    for i in bits(pair.fixed_mask() & pair._band(a, b)):
        if not any(action.orbit_mask(j) >> i & 1 for j in reps):
            reps.append(i)
    classes = []
    for i in reps:
        for cls in classes:
            if orbit_equivalent(action, i, cls[0], pair.f):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def _band_values(report, pair, a, b, action, klass, note):
    """Write the band's sublevel categories and slice sum to the report's
    values, with the hypothesis that the low category is finite, noted
    by ``note``.  Returns the low and high categories and the slice
    sum."""
    space = pair.space
    cat = lambda m: _gcat(space, m, action, klass)  # noqa: E731
    cat_fa, cat_fb = cat(pair.sublevel(a)), cat(pair.sublevel(b))
    report.hypothesis("sublevel_category_finite", cat_fa < INFINITE,
                      note=note)
    lhs, per_level = _slice_sum(pair, a, b, cat)
    report.values.update({
        "sublevel_cat_low": cat_fa,
        "sublevel_cat_high": cat_fb,
        "slice_sum": lhs,
        "per_level": per_level,
    })
    return cat_fa, cat_fb, lhs


def _difference_parts(report, pair, a, b, action, klass, names, rhs, notes):
    """Write the hypothesis that the class admits the orbit type of each
    orbit class in the fixed band slice, then the band's three
    fixed-point counts, each against the sublevel category difference
    ``value_diff(high, low)`` of the report's values: the slice sum, the
    orbit-class count and the fixed slice's own category.  The first is
    assertable when the ledger passes; the other two also need a
    discrete space, the only finite T1 space (their proofs need normal
    sublevels that form a binormal ANR pair)."""
    classes = _count_orbit_classes(pair, a, b, action)
    report.hypothesis("orbit_types_admissible", all(
        klass.admits_stabilizer(action.stabilizer(cls[0])) for cls in classes
    ))
    bound = value_diff(report.values["sublevel_cat_high"],
                       report.values["sublevel_cat_low"])
    report.values["orbit_class_count"] = len(classes)
    report.values["fixed_slice_cat"] = _fixed_slice_cat(
        pair, a, b, action, klass)
    ledger_ok = not report.failures()
    normal = pair.space.is_discrete()
    counts = (report.values["slice_sum"], len(classes),
              report.values["fixed_slice_cat"])
    for k, (name, count, note) in enumerate(zip(names, counts, notes)):
        report.part(name, count, bound, rhs,
                    assertable=ledger_ok and (k == 0 or normal), note=note)


def verify_band_bound(pair, a, b, action=None, klass=None):
    """Fixed-point lower bounds for a homotopy equivalence over a finite
    band: slice-category sum, orbit-class count, and slice-space
    category against the sublevel category difference."""
    return _maybe_persist(
        pair, _band_report("band_bound", pair, a, b, action, klass))


def _band_report(theorem, pair, a, b, action, klass):
    """The report of ``verify_band_bound`` under ``theorem``, unpersisted."""
    if b == INFINITE:
        raise ValueError(
            "unbounded bands need a map homotopic to the identity; "
            "use verify_identity_band_bound"
        )
    if not a < b:
        raise ValueError("need a < b")
    action, klass = _context(pair, action, klass)
    report = TheoremReport(theorem)
    _base_hypotheses(report, pair, action)
    report.hypothesis("homotopy_equivalence",
                      is_homotopy_equivalence(pair.phi))
    cat_fa, cat_fb, _ = _band_values(report, pair, a, b, action, klass,
                                     "category of the lower sublevel set")
    report.values["band"] = [a, b]
    _difference_parts(
        report, pair, a, b, action, klass, ("a", "b", "c"),
        f"{cat_fb} - {cat_fa}",
        (None, "orbit-class count against the category difference",
         "category of the fixed band slice as its own space"),
    )
    return report


def find_identity_fence(pair, action, preserve_mask=None):
    """A fence of G-maps from the identity to phi whose stages keep F =
    ``preserve_mask`` inside F, or None: one ``_deform`` question on the
    space keeping GF, accepted unsearched when s o phi is the identity on
    the relative G-core c (s the retraction).  Else, with F empty, c is
    minimal and phi is not G-homotopic to the identity (Barmak, LNM 2032,
    Cor. 1.3.7); with F, one search runs on c to s o phi.  The fence
    goes on from s o phi o s by h o phi o h for the collapse stages h
    from s back to the identity, and drops the loop of a repeated map."""
    space, phi, F = pair.space, pair.phi.images, preserve_mask or 0
    if pair.phi.image_mask(F) & ~F or not is_G_map(pair.phi, action):
        return None
    hold = action.saturate(F)
    _, removals, s = _reach(space, hold, action.elements)

    def question(core):
        parents = tuple(bits(core))
        target = tuple(s[phi[p]] for p in parents)
        if target == parents:
            return True
        if F:
            return {target}.__contains__, mod_stage_ok(parents, F)
        return None

    def maps():
        chain = []
        back = _collapse_stages(space, space, range(len(space)), removals)
        for m in fence.maps + tuple(h.compose(pair.phi).compose(h)
                                    for h in back.maps[::-1]):
            if m in chain:
                del chain[chain.index(m):]
            chain.append(m)
        return chain

    fence = _deform(space, space.full_mask(), question, hold,
                    action.elements, hold)
    return None if fence is None else FenceCertificate(maps)


def verify_identity_band_bound(pair, a, b, action=None, klass=None):
    """Band bounds for maps homotopic to the identity.

    Strengthens the difference bound to the pair, semi and mod variants
    and allows an unbounded band; also emits the deformation exponents
    realising the sublevel absorption.
    """
    return _maybe_persist(pair, _identity_band_report(
        "identity_band_bound", pair, a, b, action, klass))


def _identity_band_report(theorem, pair, a, b, action, klass):
    """The report of ``verify_identity_band_bound`` under ``theorem``,
    unpersisted."""
    action, klass = _context(pair, action, klass)
    space = pair.space
    report = TheoremReport(theorem)
    _base_hypotheses(report, pair, action)
    fence = find_identity_fence(pair, action)
    report.hypothesis("homotopic_to_identity", fence is not None,
                      note=None if fence is None else
                      f"fence of length {len(fence)}")

    fa_mask = pair.sublevel(a)
    fb_mask = pair.sublevel(b)
    cat_fa, cat_fb, lhs = _band_values(report, pair, a, b, action, klass,
                                       None)
    pair_bound = _gcat(space, fb_mask, action, klass, mode="pair", Y=fa_mask)
    semi_bound = (
        _gcat(space, fb_mask, action, klass, mode="semi", Y=fa_mask)
        if b < INFINITE else None
    )
    mod_bound = _gcat(space, fb_mask, action, klass, mode="mod", Y=fa_mask)

    # pair/semi soundness needs the open hull of the sublevel set to
    # deform into it (makes the relative category of (f^a, f^a) vanish)
    hull_ok = (
        _gcat(space, pair.space.up_closure(fa_mask), action, klass,
              mode="pair", Y=fa_mask) == 0
    )
    fixed_levels = {pair.f[i] for i in bits(pair.fixed_mask())}
    report.hypothesis(
        "sublevel_hull_deformable", hull_ok,
        note="open hull of the low sublevel deforms into it"
        + ("" if a in fixed_levels else
           " (low cut misses the critical values)"),
    )
    preserving = fence  # a preserving fence is a fence; F = {} asks the same
    if fence is not None and fa_mask:
        preserving = find_identity_fence(pair, action, preserve_mask=fa_mask)
    report.hypothesis(
        "sublevel_preserving_homotopy", preserving is not None,
        note="a fence to the identity whose stages keep the low sublevel "
             "inside itself",
    )

    report.values.update({
        "difference_bound": value_diff(cat_fb, cat_fa),
        "pair_bound": pair_bound,
        "semi_bound": semi_bound,
        "mod_bound": mod_bound,
        "band": [a, b],
    })

    _difference_parts(
        report, pair, a, b, action, klass, ("I", "I_orbits", "I_slice"),
        "difference", ("holds for unbounded bands as well", None, None),
    )
    report.part("II", lhs, pair_bound, "pair category",
                assertable=not report.failures())
    if semi_bound is not None:
        report.part(
            "semi", lhs, semi_bound, "semi category", assertable=False,
            note="report-only: the semi variant is not subadditive on "
                 "finite models",
        )
    report.part(
        "III", lhs, mod_bound, "mod category", assertable=False,
        note="report-only: the mod variant is not subadditive on finite "
             "models",
    )
    chain = {
        "mod_ge_semi": mod_bound >= semi_bound
        if semi_bound is not None else None,
        "semi_ge_pair": semi_bound >= pair_bound
        if semi_bound is not None else None,
        "mod_ge_pair": mod_bound >= pair_bound,
        "pair_ge_difference": pair_bound >= report.values["difference_bound"],
    }
    report.values["bound_chain"] = chain
    report.values["deformation_exponents"] = _deformation_exponents(pair, a, b)
    return report


def _deformation_exponents(pair, a, b):
    """Minimal iterate powers absorbing each sublevel set below the top
    critical level: the discrete content of the sublevel deformation."""
    levels = pair.critical_levels(a, b)
    values = pair.values_sorted()
    if levels:
        above = [v for v in values if v > levels[-1]]
        if not above:
            return {"target_level": None, "exponents": []}
        c = above[0]
    else:
        c = values[0]
    target = pair.sublevel(c)
    table = []
    for k in values:
        if k <= c:
            continue
        n = minimal_escape_power(pair, pair.sublevel(k), target)
        table.append({"level": k, "power": n})
    return {"target_level": c, "exponents": table}


def verify_global_bound(pair, b, action=None, klass=None):
    """Bounded-below version: the band report over a band that starts
    under the whole space."""
    return _maybe_persist(
        pair, _global_report("global_bound", pair, b, action, klass))


def _global_report(theorem, pair, b, action, klass):
    """The band report over ]min f - 1, b] under ``theorem``, with its
    ``global_low_cut``: of ``verify_band_bound`` for a finite b, of
    ``verify_identity_band_bound`` for b = INFINITE."""
    a = min(pair.f) - 1.0
    build = _identity_band_report if b == INFINITE else _band_report
    report = build(theorem, pair, a, b, action, klass)
    report.values["global_low_cut"] = a
    return report


def verify_semiflow(pair, action=None, klass=None):
    """Discrete semiflow (iterates of one map): the global bound over the
    unbounded band, whose low sublevel is empty, so each part bounds a
    fixed-point count by the whole space's category; ``fixed_set`` lists
    the rest points."""
    report = _global_report("semiflow", pair, INFINITE, action, klass)
    # the points at rest under every iterate phi^k are those of phi^1
    report.values["fixed_set"] = sorted(
        pair.space.labels(pair.fixed_mask()))
    return _maybe_persist(pair, report)


def verify_homeo_band_bound(pair, class_b, a, b, action=None):
    """Band bound for homeomorphisms with reference-class covers.

    The cover count by opens isomorphic to members of the reference list
    replaces the categorical count; preimages under a homeomorphism stay
    in the class, so the bound is assertable on finite models.
    """
    if b == INFINITE:
        raise ValueError("the reference-class bound needs a finite band")
    action = action or GroupAction.trivial(pair.space)
    space = pair.space
    report = TheoremReport("homeo_band_bound")
    _base_hypotheses(report, pair, action)
    # a bijective self-map of a finite poset is an automorphism, as in
    # is_homotopy_equivalence
    homeo = len(set(pair.phi.images)) == len(space)
    report.hypothesis("homeomorphism", homeo)

    def bcat(mask):
        return cover_category(
            CatQuery(space, A=mask, mode="classB", action=action,
                     class_b=class_b)
        ).value

    cat_fa = bcat(pair.sublevel(a))
    cat_fb = bcat(pair.sublevel(b))
    report.hypothesis("sublevel_class_count_finite", cat_fa < INFINITE)
    total, per_level = _slice_sum(pair, a, b, bcat)
    report.values.update({
        "sublevel_count_low": cat_fa,
        "sublevel_count_high": cat_fb,
        "slice_sum": total,
        "per_level": per_level,
        "band": [a, b],
    })
    # flow variant: the iterates of a homeomorphism form a discrete flow
    # whose rest points are the fixed points
    report.values["flow_rest_set"] = sorted(space.labels(pair.fixed_mask()))
    report.part("count", total, value_diff(cat_fb, cat_fa),
                "difference of reference-class counts",
                assertable=not report.failures())
    return _maybe_persist(pair, report)


# theorem id -> verifier of (pair, band, action, klass, reference spaces);
# each entry looks its verifier up when called, so a wrapper installed on
# this module sees every call made through the table
THEOREMS = {
    "band_bound": lambda pair, band, action, klass, refs:
        verify_band_bound(pair, *band, action, klass),
    "identity_band_bound": lambda pair, band, action, klass, refs:
        verify_identity_band_bound(pair, *band, action, klass),
    "global_bound": lambda pair, band, action, klass, refs:
        verify_global_bound(pair, band[1], action, klass),
    "semiflow": lambda pair, band, action, klass, refs:
        verify_semiflow(pair, action, klass),
    "homeo_band_bound": lambda pair, band, action, klass, refs:
        verify_homeo_band_bound(pair, refs, *band, action),
}
