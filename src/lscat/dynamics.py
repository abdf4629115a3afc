"""Lyapunov pairs, the discrete Palais-Smale condition, and the
band-counting theorem verifiers.

Every verifier computes both sides of its inequality unconditionally
and reports a hypothesis ledger; hypothesis failures never abort, since
the negative fixtures are first-class test content.  Parts whose proofs
need normality or an ANR hypothesis (unavailable on finite non-discrete
models) are report-only: their failures are recorded, not persisted.
"""

from __future__ import annotations

import hashlib
import json
import os

from .action import (
    G_fence_search,
    GroupAction,
    HomogeneousClass,
    is_G_deformable,
    is_G_map,
    orbit_equivalent,
)
from .category import (
    CatQuery,
    HypothesisUnmet,
    INFINITE,
    cover_category,
    value_add,
    value_ge,
    value_ge_diff,
    value_str,
    _induced,
)
from .poset import (
    SpaceMap,
    automorphism_inverse,
    bits,
    is_homotopy_equivalence,
)


PS_CROSSCHECK_CAP = 12  # |Y| up to which the Palais-Smale check enumerates


class FenceNotFound(RuntimeError):
    pass


class DynamicalPair:
    """A self-map with a real value per point; caches the fixed set."""

    __slots__ = ("space", "phi", "f")

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

    def fixed_mask(self):
        return sum(
            1 << i for i, v in enumerate(self.phi.images) if v == i
        )

    def sublevel(self, a):
        if a is INFINITE:
            return self.space.full_mask()
        return sum(1 << i for i, v in enumerate(self.f) if v <= a)

    def level_slice(self, d):
        return self.fixed_mask() & sum(
            1 << i for i, v in enumerate(self.f) if v == d
        )

    def critical_levels(self, a, b):
        """Sorted values of f on the fixed set within ]a, b]."""
        fixed = self.fixed_mask()
        vals = {
            self.f[i]
            for i in bits(fixed)
            if self.f[i] > a and (b is INFINITE or self.f[i] <= b)
        }
        return sorted(vals)

    def values_sorted(self):
        return sorted(set(self.f))


def is_lyapunov(pair):
    """f(phi(x)) < f(x) off the fixed set; returns (ok, witness label)."""
    for i, v in enumerate(pair.phi.images):
        if v != i and not pair.f[v] < pair.f[i]:
            return False, pair.space.points[i]
    return True, None


def check_discrete_palais_smale(pair, Y=None):
    """Discrete Palais-Smale condition on Y for a finite-space pair.

    On a finite space the infimum of the decrement f - f o phi over any
    subset is attained, so the condition reduces to the Lyapunov
    property: an attained zero decrement is a fixed point inside the
    subset, hence inside its closure.  The exhaustive cross-check
    enumerates the subsets of Y when |Y| is at most PS_CROSSCHECK_CAP.
    """
    Y_mask = pair.space.full_mask() if Y is None else Y
    ok, witness = is_lyapunov(pair)
    report = {
        "holds": ok,
        "witness": witness,
        "analysis": (
            "finite spaces attain the decrement minimum on every subset, "
            "so the condition follows from the Lyapunov property exactly "
            "as it does for compact carriers"
        ),
        "exhaustive_crosscheck": None,
    }
    if not ok:
        report["analysis"] = "not a Lyapunov pair"
        return report
    n_y = Y_mask.bit_count()
    if n_y <= PS_CROSSCHECK_CAP:
        checked = 0
        for sub in _submasks(Y_mask):
            if not sub:
                continue
            gap = min(
                pair.f[i] - pair.f[pair.phi.images[i]] for i in bits(sub)
            )
            if gap == 0 and not pair.space.down_closure(sub) & pair.fixed_mask():
                report["holds"] = False
                report["witness"] = sorted(pair.space.labels(sub))
                return report
            checked += 1
        report["exhaustive_crosscheck"] = checked
    return report


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def minimal_escape_power(pair, source_mask, target_mask):
    """Least n with phi^n(source) inside target; None past the power cap
    2|X| + #f(X) + 2."""
    cap = 2 * len(pair.space) + len(set(pair.f)) + 2
    current = source_mask
    for n in range(cap + 1):
        if current & ~target_mask == 0:
            return n
        nxt = 0
        for i in bits(current):
            nxt |= 1 << pair.phi.images[i]
        current = nxt
    return None


# -- reports ----------------------------------------------------------------


class TheoremReport:
    """Hypothesis ledger, both sides of each inequality, verdicts."""

    def __init__(self, theorem, space):
        self.theorem = theorem
        self.space = space
        self.hypotheses = {}
        self.values = {}
        self.parts = {}

    def hypothesis(self, name, status, ok, witness=None, note=None):
        self.hypotheses[name] = {
            "status": status,  # checked | assumed | derived
            "ok": bool(ok),
            "witness": witness,
            "note": note,
        }

    def part(self, name, lhs, rhs_kind, holds, assertable, note=None,
             hypothesis_ok=True, bound=None):
        self.parts[name] = {
            "lhs": lhs,
            "bound": bound,
            "rhs": rhs_kind,
            "holds": bool(holds),
            "assertable": bool(assertable),
            "hypothesis_ok": bool(hypothesis_ok),
            "note": note,
        }

    def checked_failures(self):
        return [
            k for k, h in self.hypotheses.items()
            if h["status"] == "checked" and not h["ok"]
        ]

    def verdict(self):
        failed = self.checked_failures()
        if failed:
            return "HYPOTHESIS_FAILED:" + ",".join(sorted(failed))
        bad = [
            k for k, p in self.parts.items()
            if p["assertable"] and p["hypothesis_ok"] and not p["holds"]
        ]
        if bad:
            return "VIOLATION:" + ",".join(sorted(bad))
        return "HOLDS"

    def to_dict(self):
        def enc(v):
            if v is INFINITE:
                return "inf"
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            return v

        return {
            "theorem": self.theorem,
            "hypotheses": enc(self.hypotheses),
            "values": enc(self.values),
            "parts": enc(self.parts),
            "verdict": self.verdict(),
        }


def persist_violation(kind, payload, directory=None):
    """Write a counterexample bundle to the violations directory."""
    directory = directory or os.environ.get(
        "LSCAT_VIOLATIONS_DIR", "lscat-violations"
    )
    os.makedirs(directory, exist_ok=True)
    blob = json.dumps(payload, sort_keys=True, default=str)
    digest = hashlib.sha1(blob.encode()).hexdigest()[:12]
    path = os.path.join(directory, f"{kind}-{digest}.json")
    with open(path, "w") as fh:
        fh.write(blob)
    return path


def _maybe_persist(report):
    verdict = report.verdict()
    if verdict.startswith("VIOLATION"):
        persist_violation(report.theorem, report.to_dict())
    return verdict


# -- shared pieces -----------------------------------------------------------


def _context(pair, action, klass):
    action = action or GroupAction.trivial(pair.space)
    return action, klass or HomogeneousClass.default(action)


def _gcat(space, mask, action, klass, mode="plain", Y=0):
    if mask == 0 and mode == "plain":
        return 0
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
        total = value_add(total, val)
    return total, per_level


def _fixed_slice_cat(pair, a, b, action, klass):
    """Category of the fixed band slice as its own space (0 if empty)."""
    slice_mask = action.saturate(pair.fixed_mask() & _band_mask(pair, a, b))
    if not slice_mask:
        return 0
    sub, idx = pair.space.subspace(slice_mask)
    sub_action, sub_klass = _induced(action, klass, sub, idx)
    return cover_category(
        CatQuery(sub, action=sub_action, klass=sub_klass)
    ).value


def _base_hypotheses(report, pair, action):
    ok, wit = is_lyapunov(pair)
    report.hypothesis("lyapunov", "checked", ok, witness=wit)
    dps = check_discrete_palais_smale(pair)
    report.hypothesis(
        "discrete_palais_smale", "checked", dps["holds"],
        witness=dps["witness"],
        note="reduces to the Lyapunov property on finite spaces",
    )
    if not action.is_trivial():
        report.hypothesis(
            "equivariant_map", "checked", is_G_map(pair.phi, action)
        )
        inv = all(
            len({pair.f[i] for i in orb}) == 1 for orb in action.orbits()
        )
        report.hypothesis("invariant_function", "checked", inv)
    report.hypothesis(
        "finite_critical_levels", "checked", True,
        note="finite spaces have finite value sets",
    )


def _count_orbit_classes(pair, a, b, action):
    """Equivalence classes of orbits in the fixed band slice."""
    fixed = pair.fixed_mask()
    band = [
        i for i in bits(fixed)
        if pair.f[i] > a and (b is INFINITE or pair.f[i] <= b)
    ]
    reps = []
    for i in band:
        if not any(i in action.orbit_of(j) for j in reps):
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


def verify_band_bound(pair, a, b, action=None, klass=None):
    """Fixed-point lower bounds for a homotopy equivalence over a finite
    band: slice-category sum, orbit-class count, and slice-space
    category against the sublevel category difference."""
    if b is INFINITE:
        raise ValueError(
            "unbounded bands need a map homotopic to the identity; "
            "use verify_identity_band_bound"
        )
    if not a < b:
        raise ValueError("need a < b")
    action, klass = _context(pair, action, klass)
    space = pair.space
    report = TheoremReport("band_bound", space)
    _base_hypotheses(report, pair, action)
    report.hypothesis(
        "homotopy_equivalence", "checked", is_homotopy_equivalence(pair.phi)
    )
    cat_fa = _gcat(space, pair.sublevel(a), action, klass)
    cat_fb = _gcat(space, pair.sublevel(b), action, klass)
    report.hypothesis(
        "sublevel_category_finite", "checked", cat_fa is not INFINITE,
        note="category of the lower sublevel set",
    )
    normality = space.is_discrete()
    report.hypothesis(
        "binormal_anr", "checked" if normality else "assumed", True,
        note=None if normality else
        "finite non-discrete models are not normal; parts b and c are "
        "report-only",
    )
    lhs, per_level = _slice_sum(
        pair, a, b, lambda m: _gcat(space, m, action, klass)
    )
    report.values.update({
        "sublevel_cat_low": cat_fa,
        "sublevel_cat_high": cat_fb,
        "slice_sum": lhs,
        "per_level": per_level,
        "band": [a, b],
    })
    checked_ok = not report.checked_failures()
    report.part(
        "a", lhs, f"{value_str(cat_fb)} - {value_str(cat_fa)}",
        value_ge_diff(lhs, cat_fb, cat_fa),
        assertable=checked_ok,
        bound=_diff(cat_fb, cat_fa),
    )
    classes = _count_orbit_classes(pair, a, b, action)
    types_ok = all(
        klass.admits_stabilizer(action.stabilizer(cls[0])) for cls in classes
    )
    report.hypothesis("orbit_types_admissible", "checked", types_ok)
    report.values["orbit_class_count"] = len(classes)
    report.part(
        "b", len(classes), f"{value_str(cat_fb)} - {value_str(cat_fa)}",
        value_ge_diff(len(classes), cat_fb, cat_fa),
        assertable=normality and checked_ok,
        bound=_diff(cat_fb, cat_fa),
        note="orbit-class count against the category difference",
    )
    cat_slice = _fixed_slice_cat(pair, a, b, action, klass)
    report.values["fixed_slice_cat"] = cat_slice
    report.part(
        "c", cat_slice, f"{value_str(cat_fb)} - {value_str(cat_fa)}",
        value_ge_diff(cat_slice, cat_fb, cat_fa),
        assertable=normality and checked_ok,
        bound=_diff(cat_fb, cat_fa),
        note="category of the fixed band slice as its own space",
    )
    _maybe_persist(report)
    return report


def _diff(x, y):
    if y is INFINITE:
        return 0 if x is not INFINITE else INFINITE
    if x is INFINITE:
        return INFINITE
    return x - y


def _band_mask(pair, a, b):
    return sum(
        1 << i
        for i, v in enumerate(pair.f)
        if v > a and (b is INFINITE or v <= b)
    )


def find_identity_fence(pair, action, preserve_mask=None):
    """Equivariant fence from the identity to phi, optionally through
    maps preserving a sublevel mask at every stage."""
    space = pair.space
    ident = SpaceMap.identity(space)
    stage_ok = None
    if preserve_mask is not None:
        keep = preserve_mask

        def stage_ok(images):
            for i in bits(keep):
                if not keep >> images[i] & 1:
                    return False
            return True

    return G_fence_search(
        ident, action, tuple(range(len(space))),
        targets={pair.phi.images}, stage_ok=stage_ok,
    )


def verify_identity_band_bound(pair, a, b, action=None, klass=None):
    """Band bounds for maps homotopic to the identity.

    Strengthens the difference bound to the pair, semi and mod variants
    and allows an unbounded band; also emits the deformation exponents
    realising the sublevel absorption.
    """
    action, klass = _context(pair, action, klass)
    space = pair.space
    report = TheoremReport("identity_band_bound", space)
    _base_hypotheses(report, pair, action)
    fence = find_identity_fence(pair, action)
    if fence is None:
        raise FenceNotFound("no equivariant fence from the identity to phi")
    report.hypothesis("homotopic_to_identity", "checked", True,
                      note=f"fence of length {len(fence)}")

    fa_mask = pair.sublevel(a)
    fb_mask = pair.sublevel(b)
    cat_fa = _gcat(space, fa_mask, action, klass)
    cat_fb = _gcat(space, fb_mask, action, klass)
    report.hypothesis(
        "sublevel_category_finite", "checked", cat_fa is not INFINITE
    )
    normality = space.is_discrete()
    report.hypothesis(
        "binormal_anr", "checked" if normality else "assumed", True,
        note=None if normality else "parts b and c are report-only",
    )

    lhs, per_level = _slice_sum(
        pair, a, b, lambda m: _gcat(space, m, action, klass)
    )
    pair_bound = _gcat(space, fb_mask, action, klass, mode="pair", Y=fa_mask)
    semi_bound = (
        _gcat(space, fb_mask, action, klass, mode="semi", Y=fa_mask)
        if b is not INFINITE else None
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
        "sublevel_hull_deformable",
        "checked", hull_ok,
        note="open hull of the low sublevel deforms into it"
        + ("" if a in fixed_levels else
           " (low cut misses the critical values)"),
    )
    preserving = fence
    if not all(
        fa_mask >> m.images[i] & 1 for m in fence.maps for i in bits(fa_mask)
    ):
        preserving = find_identity_fence(pair, action, preserve_mask=fa_mask)
    report.hypothesis(
        "sublevel_preserving_homotopy", "checked", preserving is not None,
        note="a fence to the identity whose stages keep the low sublevel "
             "inside itself",
    )

    report.values.update({
        "sublevel_cat_low": cat_fa,
        "sublevel_cat_high": cat_fb,
        "slice_sum": lhs,
        "per_level": per_level,
        "difference_bound": _diff(cat_fb, cat_fa),
        "pair_bound": pair_bound,
        "semi_bound": semi_bound,
        "mod_bound": mod_bound,
        "band": [a, "inf" if b is INFINITE else b],
    })

    core_ok = not report.checked_failures()
    report.part(
        "I", lhs, "difference", value_ge_diff(lhs, cat_fb, cat_fa),
        assertable=core_ok, bound=_diff(cat_fb, cat_fa),
        note="holds for unbounded bands as well",
    )
    classes = _count_orbit_classes(pair, a, b, action)
    report.values["orbit_class_count"] = len(classes)
    report.part(
        "I_orbits", len(classes), "difference",
        value_ge_diff(len(classes), cat_fb, cat_fa),
        assertable=normality and core_ok, bound=_diff(cat_fb, cat_fa),
    )
    cat_slice = _fixed_slice_cat(pair, a, b, action, klass)
    report.values["fixed_slice_cat"] = cat_slice
    report.part(
        "I_slice", cat_slice, "difference",
        value_ge_diff(cat_slice, cat_fb, cat_fa),
        assertable=normality and core_ok, bound=_diff(cat_fb, cat_fa),
    )
    report.part(
        "II", lhs, "pair category", value_ge(lhs, pair_bound),
        assertable=core_ok and hull_ok, bound=pair_bound,
        hypothesis_ok=hull_ok,
    )
    if semi_bound is not None:
        report.part(
            "semi", lhs, "semi category", value_ge(lhs, semi_bound),
            assertable=False, bound=semi_bound, hypothesis_ok=hull_ok,
            note="report-only: the semi variant is not subadditive on "
                 "finite models",
        )
    report.part(
        "III", lhs, "mod category",
        value_ge(lhs, mod_bound) if preserving is not None else False,
        assertable=False, bound=mod_bound,
        hypothesis_ok=preserving is not None,
        note="report-only: the mod variant is not subadditive on finite "
             "models",
    )
    chain = {
        "mod_ge_semi": value_ge(mod_bound, semi_bound)
        if semi_bound is not None else None,
        "semi_ge_pair": value_ge(semi_bound, pair_bound)
        if semi_bound is not None else None,
        "mod_ge_pair": value_ge(mod_bound, pair_bound),
        "pair_ge_difference": value_ge_diff(pair_bound, cat_fb, cat_fa),
    }
    report.values["bound_chain"] = chain
    report.values["deformation_exponents"] = _deformation_exponents(pair, a, b)
    _maybe_persist(report)
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
    """Bounded-below version: the band starts under the whole space."""
    a = min(pair.f) - 1.0
    if b is INFINITE:
        return verify_identity_band_bound(pair, a, b, action, klass)
    report = verify_band_bound(pair, a, b, action, klass)
    report.values["global_low_cut"] = a
    return report


def detect_nondeformable_slice(pair, a, b, action=None, klass=None):
    """When the band has fewer critical levels than the category
    difference, exhibit a fixed slice that no equivariant fence deforms
    into a single orbit inside the band preimage."""
    action, klass = _context(pair, action, klass)
    space = pair.space
    ok, wit = is_lyapunov(pair)
    if not ok:
        raise HypothesisUnmet("lyapunov", wit)
    if not is_homotopy_equivalence(pair.phi):
        raise HypothesisUnmet("homotopy_equivalence")
    cat_fa = _gcat(space, pair.sublevel(a), action, klass)
    cat_fb = _gcat(space, pair.sublevel(b), action, klass)
    if cat_fa is INFINITE:
        raise HypothesisUnmet("sublevel_category_finite")
    levels = pair.critical_levels(a, b)
    bound = _diff(cat_fb, cat_fa)
    if not value_ge(bound, len(levels) + 1):
        return []
    band = _band_mask(pair, a, b)
    orbit_reps = [
        orb[0] for orb in action.orbits()
        if all(band >> i & 1 for i in orb)
    ]
    out = []
    for d in levels:
        slice_mask = pair.level_slice(d)
        if not slice_mask:
            out.append({
                "level": d, "degenerate": True,
                "note": "empty fixed slice in a deficient band",
            })
            continue
        tried = []
        for rep in orbit_reps:
            tried.append(space.points[rep])
            if is_G_deformable(action, slice_mask,
                               action.orbit_mask(rep)) is not None:
                break
        else:
            out.append({
                "level": d,
                "degenerate": False,
                "orbits_tried": tried,
                "note": "exhaustive equivariant fence search reached no "
                        "single-orbit image",
            })
    return out


def verify_semiflow(pair, action=None, klass=None):
    """Discrete semiflow (iterates of one map): rest-point identification
    and the global bounds through the identity-band verifier."""
    action, klass = _context(pair, action, klass)
    space = pair.space
    report = TheoremReport("semiflow", space)
    fixed = pair.fixed_mask()
    rest = space.full_mask()
    current = tuple(range(len(space)))
    for _ in range(len(space)):
        current = tuple(pair.phi.images[v] for v in current)
        rest &= sum(1 << i for i in range(len(space)) if current[i] == i)
    report.values["fixed_set"] = sorted(space.labels(fixed))
    report.values["rest_set"] = sorted(space.labels(rest))
    report.hypothesis(
        "rest_points_match_fixed_points", "checked", rest == fixed,
        note="rest points of every iterate equal the fixed points of the "
             "generator",
    )
    a = min(pair.f) - 1.0
    inner = verify_identity_band_bound(pair, a, INFINITE, action, klass)
    report.values["band_report"] = inner.to_dict()
    total = inner.values["slice_sum"]
    cat_x = inner.values["sublevel_cat_high"]
    report.part(
        "a", total, "whole-space category", value_ge(total, cat_x),
        assertable=not report.checked_failures()
        and not inner.checked_failures(),
        bound=cat_x,
    )
    report.part(
        "b", inner.values["orbit_class_count"], "whole-space category",
        value_ge(inner.values["orbit_class_count"], cat_x),
        assertable=space.is_discrete(), bound=cat_x,
    )
    report.part(
        "c", inner.values["fixed_slice_cat"], "whole-space category",
        value_ge(inner.values["fixed_slice_cat"], cat_x),
        assertable=space.is_discrete(), bound=cat_x,
    )
    _maybe_persist(report)
    return report


def verify_homeo_band_bound(pair, class_b, a, b, action=None):
    """Band bound for homeomorphisms with reference-class covers.

    The cover count by opens isomorphic to members of the reference list
    replaces the categorical count; preimages under a homeomorphism stay
    in the class, so the bound is assertable on finite models.
    """
    if b is INFINITE:
        raise ValueError("the reference-class bound needs a finite band")
    action = action or GroupAction.trivial(pair.space)
    space = pair.space
    report = TheoremReport("homeo_band_bound", space)
    _base_hypotheses(report, pair, action)
    homeo = automorphism_inverse(pair.phi) is not None
    report.hypothesis("homeomorphism", "checked", homeo)
    if not homeo:
        report.values["note"] = "phi is not invertible"

    def bcat(mask):
        if mask == 0:
            return 0
        return cover_category(
            CatQuery(space, A=mask, mode="classB", action=action,
                     class_b=class_b)
        ).value

    cat_fa = bcat(pair.sublevel(a))
    cat_fb = bcat(pair.sublevel(b))
    report.hypothesis(
        "sublevel_class_count_finite", "checked", cat_fa is not INFINITE
    )
    total, per_level = _slice_sum(pair, a, b, bcat)
    report.values.update({
        "sublevel_count_low": cat_fa,
        "sublevel_count_high": cat_fb,
        "slice_sum": total,
        "per_level": per_level,
        "band": [a, b],
    })
    report.part(
        "count", total, "difference of reference-class counts",
        value_ge_diff(total, cat_fb, cat_fa),
        assertable=not report.checked_failures(),
        bound=_diff(cat_fb, cat_fa),
    )
    # flow variant: the iterates of a homeomorphism form a discrete flow
    rest = pair.fixed_mask()
    report.values["flow_rest_set"] = sorted(space.labels(rest))
    report.part(
        "flow", total, "difference of reference-class counts",
        value_ge_diff(total, cat_fb, cat_fa),
        assertable=not report.checked_failures(),
        bound=_diff(cat_fb, cat_fa),
        note="rest points of the iterate flow coincide with the fixed set",
    )
    _maybe_persist(report)
    return report
