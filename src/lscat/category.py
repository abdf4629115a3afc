"""Lusternik-Schnirelmann category variants via exact minimum covers.

All variants are computed the same way: build, once per space, the
catalogue of admissible subsets for each cover role (categorical opens,
categorical closed sets, classB opens, opens deformable to Y), and
search it with ``min_cover``, the one exact cover search; the pair, mod
and semi modes take the least cover over the deformable A0.  Every
result carries a certificate that re-validates from scratch.

Every catalogue keeps only the maximal members of its family, found by
one top-down walk (``_maximal_members``), by decreasing size and then by
mask.  A cover is the first smallest combination of members, in
``itertools.combinations`` order over that walk order, whose union
contains the target.  That is the cover the union-closure tables of
earlier versions chose: they reached each union first through its
lexicographically least combination of indices, and listed each level
in that order.  Replacing each set of a cover by a maximal member
containing it keeps the cover, so a minimum cover over the maximal
members is a minimum cover.  The categorical and deformable families are
moreover down-closed among invariant sets (a member's fence restricts to
any invariant sub-open, or closed subset), so a best A0 can be taken
among the maximal deformable opens too; the classB family need not be
down-closed, and only its covers are read.

Every categorical or deformable membership question that the
component rule does not refute is one ``poset._deform`` call, and each
catalogue keeps the fence its member's question found: a cover entry
carries it, lifted to the member with no second search when first read.
``CatResult.verify`` re-runs no search on a finite value:
``_check_fence`` checks each categorical or deformable fence (it starts
at the inclusion, every stage is a G-map, and it ends inside Y or
through an admissible orbit).  An infinite value is checked without a
catalogue: by one membership decision per point of A, on the least
invariant open (closed) set around its orbit, and in pair, mod and semi
mode one deformation search; in classB mode by the isomorphic opens
around each point of A.

An infinite category value is the infinite value ``math.inf``, named
``INFINITE``.  Float order gives the conventions inf >= inf, inf >= n,
inf >= inf - n and 0 >= n - inf; only inf - inf (nan under IEEE) needs
``value_diff``, the one difference every verifier takes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .action import (
    GroupAction,
    HomogeneousClass,
    inclusion_map,
    is_G_deformable,
    is_G_map,
    mod_stage_ok,
)
from .poset import (
    FenceCertificate,
    _component_masks,
    _deform,
    bits,
    is_contractible_in,
)
# Not called here; perfbench/check_tracer.py checks this import site.
from .poset import fence_search  # noqa: F401


class HypothesisUnmet(RuntimeError):
    """A theorem's hypothesis fails; ``witness`` names where, if known."""

    def __init__(self, which, witness=None):
        self.which = which
        self.witness = witness
        super().__init__(
            f"hypothesis unmet: {which}"
            + ("" if witness is None else f" (witness {witness!r})")
        )


# -- the infinite value ---------------------------------------------------

INFINITE = math.inf

# Float order and str for callers outside the package.
value_ge = operator.ge
value_str = str


def strict_json(value):
    """The value with non-finite floats as "inf", "-inf" or "nan" and dict
    keys as str, so a report or bundle is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {str(k): strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_json(v) for v in value]
    return value


def value_diff(x, y):
    """x - y, and 0 when the subtrahend y is INFINITE.

    A bound x - y with y = INFINITE is vacuous: every left-hand side in
    this package is nonnegative, so it is at least n - inf for every n,
    inf included (IEEE gives inf - inf = nan).
    """
    return 0 if y == INFINITE else x - y


# -- queries and results -------------------------------------------------

MODES = ("plain", "pair", "mod", "semi", "closed", "classB")


class CatQuery:
    """A category computation request.

    mode 'plain' counts categorical opens; 'pair'/'mod'/'semi' allow one
    extra open deformable to Y (mod Y / also containing A & Y); 'closed'
    counts closed categorical sets; 'classB' counts opens isomorphic to a
    member of the reference list ``class_b``.
    """

    __slots__ = ("space", "action", "klass", "A", "Y", "mode", "class_b")

    def __init__(self, space, A=None, Y=0, mode="plain", action=None,
                 klass=None, class_b=None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.space = space
        self.action = action if action is not None else GroupAction.trivial(space)
        self.klass = klass if klass is not None else HomogeneousClass.point_only(self.action)
        self.A = space.full_mask() if A is None else A
        self.Y = Y
        self.mode = mode
        self.class_b = tuple(class_b or ())
        if mode in ("plain", "closed", "classB") and self.Y:
            raise ValueError(f"mode {mode!r} takes no reference subset Y")
        if mode == "classB" and not self.class_b:
            raise ValueError("classB mode needs a reference list")
        if mode != "classB" and self.class_b:
            raise ValueError(f"mode {mode!r} takes no reference list")
        if mode == "classB" and not self.action.is_trivial():
            raise ValueError("classB mode takes no group action")
        if (self.A | self.Y) & ~space.full_mask():
            raise ValueError("A and Y must be masks of points of the space")
        if not self.action.is_invariant(self.A):
            raise ValueError("A must be G-invariant")
        if not self.action.is_invariant(self.Y):
            raise ValueError("Y must be G-invariant")


class CoverEntry:
    """One set of a cover, in its role, with its certificate."""

    __slots__ = ("mask", "role", "certificate")

    def __init__(self, mask, role, certificate):
        self.mask = mask
        self.role = role
        self.certificate = certificate


class CatResult:
    """Value plus a re-checkable cover certificate."""

    __slots__ = ("query", "value", "cover")

    def __init__(self, query, value, cover):
        self.query = query
        self.value = value
        self.cover = cover

    def __repr__(self):
        return f"CatResult({self.value}, mode={self.query.mode})"

    def verify(self):
        """Re-validate the certificate from scratch: each set needs a
        role and the shape (open, or closed in closed mode) of the mode, a
        classB set a matching reference space, and a categorical or
        deformable set a fence passing ``_check_fence``.  A finite value
        runs no search.

        An ``INFINITE`` value needs an empty cover, and A must have no
        finite cover.  Outside classB mode, let U be the points x of A
        whose least invariant open up(Gx) (closed: down(Gx)) is not
        categorical; the categorical family is down-closed among
        invariant sets, so x lies in a categorical set exactly when it is
        not in U.  In plain and closed mode the value is infinite exactly
        when U is nonempty.  In pair, mod and semi mode let R be A & Y
        (empty in pair mode): every admissible A0 holds U | R, so it holds
        W = up(G(U | R)), and the deformable family is down-closed too.
        So the value is infinite exactly when U | R is nonempty and W
        does not deform into Y (mod Y in mod mode); else A0 = W leaves the
        rest of A to categorical opens.  In classB mode (trivial action)
        it is infinite exactly when some point of A lies in no open
        isomorphic to a reference space.  These rules read no catalogue."""
        q = self.query
        space = q.space
        if self.value == INFINITE:
            if self.cover:
                raise ValueError("an infinite value has a cover")
            if _has_finite_cover(q):
                raise ValueError("infinite value, yet A has a finite cover")
            return True
        allowed = {"iso": q.mode == "classB",
                   "categorical": q.mode != "classB",
                   "deformable": q.mode in ("pair", "mod", "semi")}
        covered = 0
        for entry in self.cover:
            covered |= entry.mask
            if not allowed.get(entry.role):
                raise ValueError(f"{q.mode} mode has no {entry.role!r} sets")
            if q.mode == "closed":
                if not space.is_down_set(entry.mask):
                    raise ValueError("closed-mode cover set is not closed")
            elif not space.is_up_set(entry.mask):
                raise ValueError(f"{entry.role} cover set is not open")
            if entry.role == "iso":
                if not _matches_reference(entry.mask, space, q.class_b):
                    raise ValueError(
                        "classB cover set matches no reference space")
            elif entry.role == "categorical":
                _check_fence(q, entry, lambda images: images in (
                    _factor_targets(entry.mask, q.action, q.klass)), None)
            else:
                if q.mode in ("mod", "semi") and (q.A & q.Y) & ~entry.mask:
                    raise ValueError("A0 must contain A & Y")
                _check_fence(
                    q, entry, lambda images: all(q.Y >> v & 1 for v in images),
                    mod_stage_ok(tuple(bits(entry.mask)), q.Y)
                    if q.mode == "mod" else None)
        if q.A & ~covered:
            raise ValueError("cover does not cover A")
        deformable = sum(e.role == "deformable" for e in self.cover)
        if len(self.cover) - deformable != self.value:
            raise ValueError("cover size disagrees with the value")
        if deformable > 1:
            raise ValueError("at most one deformable set allowed")
        return True


def _has_finite_cover(q):
    """Whether A has a finite cover, by ``CatResult.verify``'s rules."""
    space, action = q.space, q.action
    if q.mode == "classB":
        covered = 0
        for m in space.up_sets():
            if m & q.A & ~covered and _matches_reference(m, space, q.class_b):
                covered |= m
        return q.A & ~covered == 0
    hull = space.down_closure if q.mode == "closed" else space.up_closure
    stuck = 0
    for x in bits(q.A):
        if is_categorical(hull(action.orbit_mask(x)), space, action,
                          q.klass) is None:
            stuck |= 1 << x
    if q.mode in ("mod", "semi"):
        stuck |= q.A & q.Y
    if not stuck or q.mode in ("plain", "closed"):
        return not stuck
    W = space.up_closure(action.saturate(stuck))
    return is_G_deformable(action, W, q.Y, mod=q.mode == "mod") is not None


def _check_fence(query, entry, end_ok, stage_ok):
    """Check the entry's fence: it passes ``validate(stage_ok)``, starts
    at the inclusion of the entry's set into the space, has only G-maps
    as stages, and ends at a map whose image tuple passes ``end_ok``."""
    fence = entry.certificate
    if not isinstance(fence, FenceCertificate):
        raise ValueError(f"{entry.role} cover set carries no fence")
    fence.validate(stage_ok)
    if fence.start != inclusion_map(query.space, entry.mask)[0]:
        raise ValueError("fence does not start at the inclusion")
    if not all(is_G_map(stage, query.action) for stage in fence.maps):
        raise ValueError("fence has a stage that is not a G-map")
    if not end_ok(fence.end.images):
        raise ValueError(f"{entry.role} fence does not end " + (
            "inside Y" if entry.role == "deformable"
            else "through an admissible orbit"))


# -- categorical sets ----------------------------------------------------


def is_categorical(mask, space, action=None, klass=None):
    """Does the inclusion factor, up to equivariant fence, through an
    admissible homogeneous orbit?  Returns the fence that shows it, or
    None.

    For the trivial group with the point class this is exactly
    contractibility within the space (``is_contractible_in``).
    Otherwise ``poset._deform`` decides on the relative G-core of the
    set, with its ``_factor_targets`` as targets (no search when there
    are none).
    """
    if action is None:  # not ``action or``: that calls its __len__
        action = GroupAction.trivial(space)
    if klass is None:
        klass = HomogeneousClass.point_only(action)
    if mask == 0:
        raise ValueError("the empty set is not categorical")
    if not klass.subgroup_list or not action.is_invariant(mask):
        return None  # an empty class admits no orbit
    if action.is_trivial():
        return is_contractible_in(mask, space)

    def question(core):
        targets = _factor_targets(core, action, klass)
        return (targets.__contains__, None) if targets else None

    return _deform(space, mask, question, group=action.elements)


def _factor_targets(mask, action, klass):
    """All composite maps (through an admissible G/H) as image tuples.

    A factoring map is constant on each comparability component C of the
    domain (a component's points are joined by comparable pairs, which a
    map into an antichain G/H identifies) and equivariant, so it is fixed
    by one value per orbit of components: C goes to gamma.x0 for a point
    x0 fixed by H and a coset gamma H whose conjugate gamma^-1 S gamma of
    C's setwise stabiliser S lies in H, and each translate gC goes to
    g.gamma.x0.  That is well defined: if g1 C = g2 C, then g2^-1 g1 lies
    in S, so gamma^-1 g2^-1 g1 gamma lies in H and fixes x0, and g1 and
    g2 send gamma.x0 to the same point.  The coset choices depend on H
    and S alone, not on x0.
    """
    space = action.space
    local = {p: k for k, p in enumerate(bits(mask))}
    comp_orbits = []  # (setwise stabiliser of a component, its translates)
    rest = mask
    for comp in _component_masks(space, mask):
        if not comp & rest:
            continue  # a translate of an earlier component
        stab, translates = [], {}
        for k, g in enumerate(action.elements):
            moved = 0
            for p in bits(comp):
                moved |= 1 << g[p]
            if moved == comp:
                stab.append(k)
            if moved not in translates:
                translates[moved] = (g, [local[p] for p in bits(moved)])
            rest &= ~moved
        comp_orbits.append((stab, tuple(translates.values())))

    mul = action._mul
    targets = set()
    for H in klass.subgroup_list:
        cosets = [gamma for gamma in range(len(mul))  # least of gamma H
                  if all(mul[gamma][h] >= gamma for h in H)]
        choices = [
            [gamma for gamma in cosets
             if all(mul[mul[action.inverse(gamma)][s]][gamma] in H
                    for s in stab)]
            for stab, _ in comp_orbits
        ]
        for x0 in bits(action.fixed_mask(H)):
            for assign in itertools.product(*choices):
                images = [0] * len(local)
                for (_, translates), gamma in zip(comp_orbits, assign):
                    base = action.elements[gamma][x0]
                    for g, ks in translates:
                        for k in ks:
                            images[k] = g[base]
                targets.add(tuple(images))
    return targets


# -- catalogues ----------------------------------------------------------


def _catalogue(key, space, action, candidates, test, *args):
    """The ``_maximal_members`` of ``candidates(space, action)`` under
    ``test(m, *args)``, built on the first request for ``key`` and cached
    on the action; a request for a built key reads the cache and builds
    nothing."""
    cache = action._caches
    try:
        return cache[key]
    except KeyError:
        pass
    found = cache[key] = _maximal_members(candidates(space, action),
                                          lambda m: test(m, *args))
    return found


def invariant_up_sets(space, action):
    if action.is_trivial():  # every open, less the empty set listed first
        return space.up_sets()[1:]
    return [m for m in space.up_sets() if m and action.is_invariant(m)]


def invariant_down_sets(space, action):
    full = space.full_mask()
    return [full ^ m for m in space.up_sets() if action.is_invariant(full ^ m)
            and full ^ m]


def _maximal_members(candidates, test):
    """Maximal members of the family ``test`` picks out of the
    candidates, with what ``test`` gave.

    ``test(m)`` returns what to keep for m (its certificate, or True),
    or None when m is no member.
    The candidates are walked by decreasing size, then by mask, and a set
    inside a member already found is skipped untested.  Any family works:
    a skipped set is never maximal, and a member not skipped has no
    larger member, since that one was walked first and is kept or lies
    in a kept one.  The result is a dict in that walk order.
    """
    found = {}
    for m in sorted(candidates, key=lambda m: (-m.bit_count(), m)):
        if any(m & ~f == 0 for f in found):
            continue
        cert = test(m)
        if cert is not None:
            found[m] = cert
    return found


def _deformable_fence(m, action, Y_mask, mod):
    return is_G_deformable(action, m, Y_mask, mod=mod)


def categorical_open_catalog(space, action, klass):
    """The maximal categorical invariant opens, in walk order, each with
    its fence."""
    return _catalogue(("cat-open", klass.key()), space, action,
                      invariant_up_sets, is_categorical,
                      space, action, klass)


def categorical_closed_catalog(space, action, klass):
    """The maximal categorical invariant closed sets, in walk order, each
    with its fence."""
    return _catalogue(("cat-closed", klass.key()), space, action,
                      invariant_down_sets, is_categorical,
                      space, action, klass)


def deformable_open_catalog(space, action, Y_mask, mod):
    """The maximal invariant opens deformable to Y (mod Y when ``mod``),
    in walk order, each with its fence; empty when no nonempty open
    deforms."""
    return _catalogue(("deformable", Y_mask, mod), space, action,
                      invariant_up_sets, _deformable_fence,
                      action, Y_mask, mod)


def classB_catalog(space, action, class_b):
    """The maximal invariant opens isomorphic to a reference space, in
    walk order."""
    return _catalogue(("classB", tuple(class_b)), space, action,
                      invariant_up_sets, _matches_reference, space, class_b)


def _matches_reference(mask, space, class_b):
    """True when the subspace on ``mask`` is isomorphic to a reference
    space, else None (a ``_maximal_members`` test)."""
    if all(len(ref) != mask.bit_count() for ref in class_b):
        return None
    sub, _ = space.subspace(mask)
    return any(order_isomorphic(sub, ref) for ref in class_b) or None


def order_isomorphic(s1, s2):
    """Backtracking poset isomorphism on small spaces."""
    if len(s1) != len(s2):
        return False

    def profile(space, i):
        return (space.up[i].bit_count(), space.down[i].bit_count())

    p1 = sorted(profile(s1, i) for i in range(len(s1)))
    p2 = sorted(profile(s2, i) for i in range(len(s2)))
    if p1 != p2:
        return False
    n = len(s1)
    used = [False] * n
    assign = [None] * n

    def bt(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or profile(s1, i) != profile(s2, j):
                continue
            ok = True
            for i2 in range(i):
                j2 = assign[i2]
                if s1.leq(i, i2) != s2.leq(j, j2) or s1.leq(i2, i) != s2.leq(j2, j):
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if bt(i + 1):
                    return True
                used[j] = False
                assign[i] = None
        return False

    return bt(0)


# -- exact set cover -----------------------------------------------------


def min_cover(target, candidates):
    """The first smallest combination of candidates, in
    ``itertools.combinations`` order, whose union contains the target, as
    a list; None at once when the union of all candidates misses a bit
    of the target."""
    candidates = tuple(candidates)
    if target & ~functools.reduce(operator.or_, candidates, 0):
        return None
    if not target:
        return []
    for m in candidates:  # the combinations of one, with no reduce each
        if target & ~m == 0:
            return [m]
    for k in itertools.count(2):
        for combo in itertools.combinations(candidates, k):
            if target & ~functools.reduce(operator.or_, combo, 0) == 0:
                return list(combo)


# -- the main entry point -------------------------------------------------


def cover_category(query):
    """Compute the requested category variant with certificates.

    Plain, closed and classB values are one ``min_cover`` search of the
    catalogue; pair, mod and semi take the least search over the
    admissible deformable A0, with A0 = 0 (no deformable set) only when
    no nonempty open deforms.  The empty A has value 0 in every mode.
    """
    if query.A == 0:
        return CatResult(query, 0, ())
    space, action, klass = query.space, query.action, query.klass
    if query.mode == "classB":
        catalog, role = classB_catalog(space, action, query.class_b), "iso"
    elif query.mode == "closed":
        catalog = categorical_closed_catalog(space, action, klass)
        role = "categorical"
    else:
        catalog = categorical_open_catalog(space, action, klass)
        role = "categorical"
    entries = []
    if query.mode in ("plain", "closed", "classB"):
        cover = min_cover(query.A, catalog)
    else:
        deform = deformable_open_catalog(
            space, action, query.Y, mod=(query.mode == "mod")
        )
        required = query.A & query.Y if query.mode in ("mod", "semi") else 0
        best = None
        for a0 in sorted((m for m in list(deform) or [0]
                          if required & ~m == 0),
                         key=lambda m: ((query.A & ~m).bit_count(), m)):
            rest = min_cover(query.A & ~a0, catalog)
            if rest is not None and (best is None or len(rest) < len(best[1])):
                best = (a0, rest)
                if not rest:
                    break
        if best is None:
            return CatResult(query, INFINITE, ())
        a0, cover = best
        if a0:
            entries.append(CoverEntry(a0, "deformable", deform[a0]))
    if cover is None:
        return CatResult(query, INFINITE, ())
    for m in cover:
        entries.append(CoverEntry(m, role, None if role == "iso"
                                  else catalog[m]))
    return CatResult(query, len(cover), entries)


# -- convenience wrappers -------------------------------------------------


def cat(space, A=None, action=None, klass=None):
    """Plain (equivariant) category value of A within the space."""
    return cover_category(CatQuery(space, A=A, action=action, klass=klass)).value


def cat_pair(space, A, Y, action=None, klass=None):
    return cover_category(
        CatQuery(space, A=A, Y=Y, mode="pair", action=action, klass=klass)
    ).value


def cat_mod(space, A, Y, action=None, klass=None):
    return cover_category(
        CatQuery(space, A=A, Y=Y, mode="mod", action=action, klass=klass)
    ).value


def _induced(action, klass, sub, idx):
    """The action and the class restricted to an invariant subspace
    (``idx`` its parent indices): each subgroup of the class goes to its
    image under the restriction of the group elements."""
    pos = {p: k for k, p in enumerate(idx)}
    sub_action = GroupAction(
        sub, [tuple(pos[g[p]] for p in idx) for g in action.generators])
    where = {g: k for k, g in enumerate(sub_action.elements)}
    restricted = [where[tuple(pos[g[p]] for p in idx)]
                  for g in action.elements]
    sub_klass = HomogeneousClass(sub_action, dict.fromkeys(
        frozenset(restricted[k] for k in H) for H in klass.subgroup_list))
    return sub_action, sub_klass
