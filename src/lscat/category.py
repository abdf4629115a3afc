"""Lusternik-Schnirelmann category variants via exact cover tables.

All variants are computed the same way: build, once per space, the
catalogue of admissible subsets for each cover role (categorical opens,
categorical closed sets, classB opens, opens deformable to Y).  A
covering catalogue is a ``CoverTable``, the breadth-first union closure
of its members, so an exact minimum cover is a lookup; the pair, mod and
semi modes take the least lookup over the deformable A0.  Every result
carries a certificate that re-validates from scratch.

Every catalogue keeps only the maximal members of its family, found by
one top-down walk (``_maximal_members``), by decreasing size and then by
mask; that order, with the union closure's, fixes which of several
equal covers is reported.  Replacing each set of a cover by a maximal
member containing it keeps the cover, so a minimum cover over the
maximal members is a minimum cover.  The categorical and deformable
families are moreover down-closed among invariant sets (a member's fence
restricts to any invariant sub-open, or closed subset), so a best A0 can
be taken among the maximal deformable opens too; the classB family need
not be down-closed, and only its covers are read.

Membership in the categorical catalogues is decided without a
certificate (for the trivial group, by one collapse walk on masks of
the space: see ``poset.is_contractible_in``).  A categorical cover
set's fence is assembled the first time its ``CoverEntry.certificate``
is read, by calling ``is_categorical`` again, so it is the fence the set
would have had if built eagerly; ``CatResult.verify`` decides membership
again from scratch and reads no stored fence.

The shared infinity token and its comparison conventions
(inf >= inf, inf >= n, inf >= inf - n, 0 >= n - inf) live here and are
used by every verifier.
"""

from __future__ import annotations

import itertools

from .action import (
    G_fence_search,
    GroupAction,
    HomogeneousClass,
    inclusion_map,
    is_G_deformable,
    _EMPTY_DEFORMATION,
)
from .poset import (
    SpaceMap,
    bits,
    is_contractible_in,
    is_homotopy_equivalence,
    homotopy_inverse,
    concat_fences,
    fence_search,
)


class HypothesisUnmet(RuntimeError):
    """A theorem's hypothesis fails; ``witness`` names where, if known."""

    def __init__(self, which, witness=None):
        self.which = which
        self.witness = witness
        super().__init__(
            f"hypothesis unmet: {which}"
            + ("" if witness is None else f" (witness {witness!r})")
        )


# -- the shared infinity token ------------------------------------------


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE"

    def __deepcopy__(self, memo):
        return self


INFINITE = _Infinity()


def value_ge(a, b):
    """a >= b where either side may be INFINITE (inf >= inf, inf >= n)."""
    if a is INFINITE:
        return True
    if b is INFINITE:
        return False
    return a >= b


def value_ge_diff(lhs, x, y):
    """lhs >= x - y under the conventions inf >= inf - n and 0 >= n - inf.

    All left-hand sides in this package are nonnegative, so a
    subtrahend of INFINITE makes the inequality vacuous.
    """
    if y is INFINITE:
        return True
    if x is INFINITE:
        return lhs is INFINITE
    return value_ge(lhs, x - y)


def value_add(*vals):
    total = 0
    for v in vals:
        if v is INFINITE:
            return INFINITE
        total += v
    return total


def value_str(v):
    return "inf" if v is INFINITE else str(v)


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
        if mode == "classB" and not self.action.is_trivial():
            raise ValueError("classB mode takes no group action")
        if (self.A | self.Y) & ~space.full_mask():
            raise ValueError("A and Y must be masks of points of the space")
        if not self.action.is_invariant(self.A):
            raise ValueError("A must be G-invariant")
        if not self.action.is_invariant(self.Y):
            raise ValueError("Y must be G-invariant")


class CoverEntry:
    """One set of a cover, in its role, with its certificate.

    A categorical set may be given a function that assembles its fence
    instead of the fence: it is called on the first read of
    ``certificate``, and its result kept.
    """

    __slots__ = ("mask", "role", "_certificate")

    def __init__(self, mask, role, certificate):
        self.mask = mask
        self.role = role
        self._certificate = certificate

    @property
    def certificate(self):
        if callable(self._certificate):
            self._certificate = self._certificate()
        return self._certificate


class CatResult:
    """Value plus a re-checkable cover certificate."""

    __slots__ = ("query", "value", "cover")

    def __init__(self, query, value, cover):
        self.query = query
        self.value = value
        self.cover = cover

    def __repr__(self):
        return f"CatResult({value_str(self.value)}, mode={self.query.mode})"

    def verify(self):
        """Re-validate the certificate from scratch."""
        if self.value is INFINITE:
            return True
        q = self.query
        space = q.space
        covered = 0
        deformable_seen = 0
        for entry in self.cover:
            covered |= entry.mask
            if entry.role == "deformable":
                deformable_seen += 1
                if q.mode in ("mod", "semi") and (q.A & q.Y) & ~entry.mask:
                    raise ValueError("A0 must contain A & Y")
                _check_deformation_certificate(q, entry)
            elif entry.role == "categorical":
                if q.mode == "closed":
                    if not space.is_down_set(entry.mask):
                        raise ValueError("closed-mode cover set is not closed")
                else:
                    if not space.is_up_set(entry.mask):
                        raise ValueError("cover set is not open")
                _check_categorical_certificate(q, entry)
            elif entry.role == "iso":
                if not space.is_up_set(entry.mask):
                    raise ValueError("classB cover set is not open")
                _check_iso_certificate(q, entry)
            else:
                raise ValueError(f"unknown role {entry.role!r}")
        if q.A & ~covered:
            raise ValueError("cover does not cover A")
        counted = sum(1 for e in self.cover if e.role != "deformable")
        if counted != self.value:
            raise ValueError("cover size disagrees with the value")
        if q.mode in ("pair", "mod", "semi") and deformable_seen > 1:
            raise ValueError("at most one deformable set allowed")
        return True


def _check_deformation_certificate(query, entry):
    if entry.certificate is _EMPTY_DEFORMATION:
        if entry.mask != 0:
            raise ValueError("empty-deformation certificate on a nonempty set")
        return
    fence = entry.certificate
    space = query.space
    if not space.is_up_set(entry.mask):
        raise ValueError("A0 is not open")
    parents = tuple(bits(entry.mask))
    wy = [k for k, p in enumerate(parents) if query.Y >> p & 1]
    stage_ok = None
    if query.mode == "mod":
        def stage_ok(images):
            return all(query.Y >> images[k] & 1 for k in wy)
    fence.validate(stage_ok=stage_ok)
    if fence.start.images != parents:
        raise ValueError("deformation fence does not start at the inclusion")
    if fence.end.image_mask() & ~query.Y:
        raise ValueError("deformation does not end inside Y")


def _check_categorical_certificate(query, entry):
    ok, _ = is_categorical(
        entry.mask, query.space, query.action, query.klass,
        with_certificate=False,
    )
    if not ok:
        raise ValueError("cover set is not categorical")


def _check_iso_certificate(query, entry):
    sub, _ = query.space.subspace(entry.mask)
    if not any(order_isomorphic(sub, ref) for ref in query.class_b):
        raise ValueError("classB cover set matches no reference space")


# -- categorical sets ----------------------------------------------------


def is_categorical(mask, space, action=None, klass=None,
                   with_certificate=True):
    """Does the inclusion factor, up to equivariant fence, through an
    admissible homogeneous orbit?

    For the trivial group with the point class this is exactly
    contractibility within the space.
    """
    action = action or GroupAction.trivial(space)
    klass = klass or HomogeneousClass.point_only(action)
    if mask == 0:
        raise ValueError("the empty set is not categorical")
    if not action.is_invariant(mask):
        return False, None
    if action.is_trivial():
        return is_contractible_in(mask, space,
                                  with_certificate=with_certificate)
    targets = _factor_targets(mask, action, klass)
    if not targets:
        return False, None
    incl, parents = inclusion_map(space, mask)
    fence = G_fence_search(incl, action, parents, targets=set(targets))
    if fence is None:
        return False, None
    return True, (fence if with_certificate else None)


def _comparability_components(sub):
    n = len(sub)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if sub.comparable(i, j):
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return [tuple(sorted(c)) for c in sorted(comps.values())]


def _factor_targets(mask, action, klass):
    """All composite maps (through an admissible G/H) as image tuples.

    A factoring map is constant on comparability components of the
    domain, equivariant, with values g.x0 for a point x0 fixed by H; the
    coset assignment must absorb each component's setwise stabiliser.
    """
    space = action.space
    sub, parents = space.subspace(mask)
    comps = _comparability_components(sub)
    comp_of = {}
    for c, comp in enumerate(comps):
        for k in comp:
            comp_of[frozenset(parents[k] for k in comp)] = c
    comp_parent_sets = [frozenset(parents[k] for k in comp) for comp in comps]

    def component_image(g, c):
        moved = frozenset(g[p] for p in comp_parent_sets[c])
        return comp_of[moved]

    # orbits of components
    comp_orbit = {}
    orbit_reps = []
    for c in range(len(comps)):
        if c in comp_orbit:
            continue
        orbit_reps.append(c)
        for k, g in enumerate(action.elements):
            comp_orbit.setdefault(component_image(g, c), c)
    setwise = {
        c: [k for k, g in enumerate(action.elements) if component_image(g, c) == c]
        for c in orbit_reps
    }

    targets = set()
    for H in klass.subgroup_list:
        coset_reps = _coset_reps(action, H)
        for x0 in bits(action.fixed_mask(H)):
            choices = []
            for c in orbit_reps:
                valid = []
                for gamma in coset_reps:
                    gi = action.inverse(gamma)
                    if all(
                        action.compose(action.compose(gi, s), gamma) in H
                        for s in setwise[c]
                    ):
                        valid.append(gamma)
                choices.append(valid)
            if any(not v for v in choices):
                continue
            for assign in itertools.product(*choices):
                images = [None] * len(parents)
                ok = True
                for c, gamma in zip(orbit_reps, assign):
                    base = action.elements[gamma][x0]
                    for k, g in enumerate(action.elements):
                        c2 = component_image(g, c)
                        val = g[base]
                        for local in comps[c2]:
                            cur = images[local]
                            if cur is not None and cur != val:
                                ok = False
                                break
                            images[local] = val
                        if not ok:
                            break
                    if not ok:
                        break
                if ok and all(v is not None for v in images):
                    targets.add(tuple(images))
    return sorted(targets)


def _coset_reps(action, H):
    seen = set()
    reps = []
    for k in range(len(action.elements)):
        coset = frozenset(action.compose(k, h) for h in H)
        if coset not in seen:
            seen.add(coset)
            reps.append(k)
    return reps


# -- catalogues ----------------------------------------------------------


def _cache(action, key, builder):
    cache = action._caches
    if key not in cache:
        cache[key] = builder()
    return cache[key]


def _categorical_decided(space, action, klass, mask):
    """Memoised is_categorical, the decision alone (no certificate)."""
    return _cache(
        action,
        ("cat", klass.key(), mask),
        lambda: is_categorical(mask, space, action, klass,
                               with_certificate=False)[0],
    )


def invariant_up_sets(space, action):
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


def categorical_open_catalog(space, action, klass):
    """Cover table of the maximal categorical invariant opens."""
    key = ("cat-open", klass.key())

    def build():
        return CoverTable(_maximal_members(
            invariant_up_sets(space, action),
            lambda m: _categorical_decided(space, action, klass, m) or None,
        ))

    return _cache(action, key, build)


def categorical_closed_catalog(space, action, klass):
    """Cover table of the maximal categorical invariant closed sets."""
    key = ("cat-closed", klass.key())

    def build():
        return CoverTable(_maximal_members(
            invariant_down_sets(space, action),
            lambda m: _categorical_decided(space, action, klass, m) or None,
        ))

    return _cache(action, key, build)


def deformable_open_catalog(space, action, Y_mask, mod):
    """Maximal invariant opens deformable to Y (mod Y when ``mod``), each
    with its fence; just ``{0: _EMPTY_DEFORMATION}`` when no nonempty
    open deforms."""
    key = ("deformable", Y_mask, mod)

    def build():
        return _maximal_members(
            invariant_up_sets(space, action),
            lambda m: is_G_deformable(action, m, Y_mask, mod=mod),
        ) or {0: _EMPTY_DEFORMATION}

    return _cache(action, key, build)


def classB_catalog(space, action, class_b):
    """Cover table of the maximal invariant opens isomorphic to a
    reference space."""
    key = ("classB", tuple(class_b))

    def is_iso(m):
        sub, _ = space.subspace(m)
        return any(order_isomorphic(sub, ref) for ref in class_b) or None

    def build():
        return CoverTable(_maximal_members(
            invariant_up_sets(space, action), is_iso))

    return _cache(action, key, build)


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


class CoverTable:
    """Exact minimum covers by a fixed family of member masks.

    The breadth-first union closure of the members is computed once:
    level k holds the unions first reached with k members, and each
    union keeps the parent pointer (previous union, member) through which
    it was first reached, with the previous level scanned in order and
    the members in family order.  ``cover(target)`` returns the members
    of the first union in that order containing the target, which is a
    minimum cover, or None when no union does; answers are memoised per
    target.
    """

    __slots__ = ("members", "_parent", "_memo")

    def __init__(self, members):
        self.members = tuple(members)
        self._parent = {0: None}  # insertion order is the BFS order
        level = [0]
        while level:
            reached = []
            for u in level:
                for m in self.members:
                    v = u | m
                    if v not in self._parent:
                        self._parent[v] = (u, m)
                        reached.append(v)
            level = reached
        self._memo = {}

    def _search(self, target):
        for u in self._parent:
            if target & ~u == 0:
                members = []
                while self._parent[u] is not None:
                    u, m = self._parent[u]
                    members.append(m)
                return tuple(reversed(members))
        return None

    def cover(self, target):
        """Members of a minimum cover of ``target``; None if impossible."""
        if target not in self._memo:
            self._memo[target] = self._search(target)
        return self._memo[target]


def min_cover(target_mask, candidate_masks):
    """Exact minimum cover of target by candidates; None if impossible."""
    cover = CoverTable(candidate_masks).cover(target_mask)
    return None if cover is None else list(cover)


# -- the main entry point -------------------------------------------------


def cover_category(query):
    """Compute the requested category variant with certificates.

    Plain, closed and classB values are one lookup in the catalogue's
    cover table; pair, mod and semi take the least lookup over the
    admissible deformable A0.
    """
    space, action, klass = query.space, query.action, query.klass
    if query.mode == "classB":
        table, role = classB_catalog(space, action, query.class_b), "iso"
    elif query.mode == "closed":
        table = categorical_closed_catalog(space, action, klass)
        role = "categorical"
    else:
        table = categorical_open_catalog(space, action, klass)
        role = "categorical"
    entries = []
    if query.mode in ("plain", "closed", "classB"):
        cover = table.cover(query.A)
    else:
        deform = deformable_open_catalog(
            space, action, query.Y, mod=(query.mode == "mod")
        )
        required = query.A & query.Y if query.mode in ("mod", "semi") else 0
        best = None
        for a0 in sorted((m for m in deform if required & ~m == 0),
                         key=lambda m: ((query.A & ~m).bit_count(), m)):
            rest = table.cover(query.A & ~a0)
            if rest is not None and (best is None or len(rest) < len(best[1])):
                best = (a0, rest)
                if not rest:
                    break
        if best is None:
            return CatResult(query, INFINITE, ())
        a0, cover = best
        entries.append(CoverEntry(a0, "deformable", deform[a0]))
    if cover is None:
        return CatResult(query, INFINITE, ())
    for m in cover:
        cert = None if role == "iso" else (
            lambda m=m: is_categorical(m, space, action, klass)[1])
        entries.append(CoverEntry(m, role, cert))
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


def cat_semi(space, A, Y, action=None, klass=None):
    return cover_category(
        CatQuery(space, A=A, Y=Y, mode="semi", action=action, klass=klass)
    ).value


def cat_closed(space, A=None, action=None, klass=None):
    return cover_category(
        CatQuery(space, A=A, mode="closed", action=action, klass=klass)
    ).value


def cat_classB(space, class_b, A=None, action=None):
    return cover_category(
        CatQuery(space, A=A, mode="classB", action=action, class_b=class_b)
    ).value


# -- structural checkers ---------------------------------------------------


def check_preimage_categorical(phi, U, action=None, klass=None):
    """For a homotopy equivalence phi and a categorical open U, certify
    that the preimage is again an open categorical set.

    The certificate composes the inverse equivalence with U's
    factorisation and is re-validated stage by stage.
    """
    space = phi.domain
    action = action or GroupAction.trivial(space)
    klass = klass or HomogeneousClass.point_only(action)
    if not is_homotopy_equivalence(phi):
        raise HypothesisUnmet("homotopy_equivalence")
    if not space.is_up_set(U):
        raise HypothesisUnmet("open")
    ok, u_cert = is_categorical(U, space, action, klass)
    if not ok:
        raise HypothesisUnmet("categorical")
    pre_mask = phi.preimage_mask(U)
    assert space.is_up_set(pre_mask)  # preimage of open under continuous
    if pre_mask == 0:
        return {"preimage": pre_mask, "categorical": True,
                "certificate": None, "note": "empty preimage"}

    psi = homotopy_inverse(phi)
    incl_pre, pre_parents = inclusion_map(space, pre_mask)
    # fence 1: incl ~ (psi o phi) o incl, restricted to the preimage
    psiphi = psi.compose(phi)
    outer = fence_search(SpaceMap.identity(space), targets={psiphi.images})
    if outer is None:  # cannot happen for a genuine equivalence
        raise HypothesisUnmet("homotopy_equivalence")
    part1 = outer.compose_right(incl_pre)
    # fence 2: psi o (U's factorisation fence) o phi|
    sub_u, u_parents = space.subspace(U)
    u_pos = {p: k for k, p in enumerate(u_parents)}
    phi_restr = SpaceMap(
        incl_pre.domain, sub_u,
        tuple(u_pos[phi.images[p]] for p in pre_parents),
    )
    part2 = u_cert.compose_left(psi).compose_right(phi_restr)
    full = concat_fences(part1, part2)
    full.validate()
    ok2, _ = is_categorical(pre_mask, space, action, klass,
                            with_certificate=False)
    return {
        "preimage": pre_mask,
        "categorical": True,
        "certificate": full,
        "independent_recheck": ok2,
    }


def closed_category_report(A, space, action=None, klass=None):
    """Compare the four open/closed category quantities for a closed A.

    Asserting the full chain needs normality; finite non-discrete models
    are not normal, so the chain is only asserted on discrete spaces and
    reported elsewhere.
    """
    action = action or GroupAction.trivial(space)
    klass = klass or HomogeneousClass.point_only(action)
    if not space.is_down_set(A):
        raise HypothesisUnmet("closed")
    sub, idx = space.subspace(A)
    sub_action, sub_klass = _induced(action, klass, sub, idx)

    value_in_sub = cover_category(
        CatQuery(sub, action=sub_action, klass=sub_klass)
    ).value
    closed_in_sub = cover_category(
        CatQuery(sub, mode="closed", action=sub_action, klass=sub_klass)
    ).value
    closed_in_x = cover_category(
        CatQuery(space, A=A, mode="closed", action=action, klass=klass)
    ).value
    open_in_x = cover_category(
        CatQuery(space, A=A, action=action, klass=klass)
    ).value

    verdicts = {
        "cat_sub_ge_closed_sub": value_ge(value_in_sub, closed_in_sub),
        "closed_sub_ge_closed_in_space": value_ge(closed_in_sub, closed_in_x),
        "closed_in_space_eq_open_in_space": closed_in_x == open_in_x,
    }
    report = {
        "cat_of_subspace": value_in_sub,
        "closed_cat_of_subspace": closed_in_sub,
        "closed_cat_in_space": closed_in_x,
        "cat_in_space": open_in_x,
        "verdicts": verdicts,
        "asserted": space.is_discrete(),
    }
    if space.is_discrete() and not all(verdicts.values()):
        raise AssertionError(
            f"closed-category chain failed on a discrete space: {report}"
        )
    return report


def _induced(action, klass, sub, idx):
    pos = {p: k for k, p in enumerate(idx)}
    gens = []
    for g in action.generators:
        gens.append(tuple(pos[g[p]] for p in idx))
    sub_action = GroupAction(sub, gens)
    if klass.kind == "all":
        sub_klass = HomogeneousClass.all_types(sub_action)
    elif klass.kind == "free":
        sub_klass = HomogeneousClass.free_only(sub_action)
    else:
        sub_klass = HomogeneousClass.point_only(sub_action)
    return sub_action, sub_klass


def cuplength_lower_bound(space):
    """1 + mod-2 cup-length of the order complex; a lower bound for the
    plain category of the space (non-equivariant)."""
    from .simplicial import cuplength, order_complex

    return 1 + cuplength(order_complex(space))
