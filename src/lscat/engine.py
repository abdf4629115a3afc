"""The axiomatic min-max engine: index functions, axiom checkers, the
critical-value ladder and the counting-inequality verifier.

An index function assigns a natural number to every pair of subsets and
must satisfy monotonicity, continuity and mixed subadditivity; it is
supervariant for (phi, Z) when applying phi never decreases the value
against the reference set Z.  Each inequality axiom is one loop over
(A, B, Y) triples, enumerated by ``check_axioms`` or drawn by the
sampled check, and every drawn mask on n points is one
``getrandbits(n)`` of ``random.Random(seed)``.  A 'category' index
reads only the invariant open up(GA), so ``_holds_on_opens`` decides its
axioms and supervariance on those opens, and the loops run only when
that decision fails (for the witness) or is not available.  The
ladder's c_k is the first band value whose sublevel has index at least
k, found in one pass over the band.  The engine is purely axiomatic:
nothing here looks at separation properties of the space.
"""

from __future__ import annotations

import random

from .action import GroupAction, HomogeneousClass, is_G_map
from .category import (
    CatQuery,
    HypothesisUnmet,
    cover_category,
)
from .dynamics import (
    DynamicalPair,
    check_discrete_palais_smale,
    minimal_escape_power,
    persist_violation,
    _slice_sum,
)
from .poset import (
    SizeCapExceeded,
    SpaceMap,
    bits,
    validate_space,
    _mutation_candidates,
)

AXIOM_EXHAUSTIVE_CAP = 7  # points for an exhaustive axiom check
SUPERVARIANCE_EXHAUSTIVE_CAP = 12  # points; beyond this supervariance samples
CHECK_SAMPLES = 512  # random draws of a sampled supervariance check
AXIOM_SAMPLES = 160  # random draws per axiom of a sampled axiom check
INDEX_KINDS = ("category", "pair_category", "mod_category")
AXIOM_MODES = ("exhaustive", "sampled")


class IndexFunction:
    """An evaluatable nu(A, Y) with provenance and one value cache.

    The cache is keyed by ``key(A, Y)``, which must determine the value:
    ``evaluate(A, Y)`` runs once per distinct key, on the first pair
    that reaches it, and every other pair with that key reads the cached
    value.  The key defaults to the pair (A, Y) itself.  A computed value
    must be a nonnegative integer (``bool`` is not one), or ``ValueError``
    is raised.

    ``_hull_action`` is set only by ``make_truncated_index``, on a
    'category' index: its value is then that of the invariant open
    up(GA) under this action, for every Y (``_holds_on_opens``).
    """

    __slots__ = ("space", "evaluate", "kind", "cap", "key", "_cache",
                 "_hull_action")

    def __init__(self, space, evaluate, kind="user", cap=None, key=None):
        self.space = space
        self.evaluate = evaluate
        self.kind = kind
        self.cap = cap
        self.key = key or (lambda A, Y: (A, Y))
        self._cache = {}
        self._hull_action = None

    def __call__(self, A, Y=0):
        key = self.key(A, Y)
        value = self._cache.get(key)  # a miss costs no KeyError
        if value is not None:
            return value
        value = self.evaluate(A, Y)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"index functions take nonnegative integers, "
                             f"got {value!r}")
        self._cache[key] = value
        return value

    def __repr__(self):
        return f"IndexFunction(kind={self.kind!r}, cap={self.cap})"


def make_truncated_index(kind, cap, action, klass=None):
    """Truncated category-based index functions.

    kind 'category' uses the plain equivariant category of the saturated
    first argument; 'pair_category' and 'mod_category' use the pair and
    mod variants against the saturated second argument.  The value reads
    only the saturations, so they are the cache key: GA for 'category'
    and (GA, GY) for the pair kinds.  For the trivial group the
    saturation is the identity, so the key is A, or the pair (A, Y)
    itself.  The 'category' and 'pair_category' values read only the
    open hull H = up(GA), because a union of opens that covers GA (off an
    open A0) covers H too: a key missed with H != GA takes the value of
    (H, Y) through the same cache, so one cover query serves every A
    with the same hull.  'mod_category' keeps GA, because its value also
    reads A & Y.
    """
    if kind not in INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r}; known: "
                         f"lscat.engine.INDEX_KINDS = {INDEX_KINDS}")
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"truncation cap must be an integer >= 1, "
                         f"got {cap!r}")
    space = action.space
    klass = klass or HomogeneousClass.default(action)
    saturate = action.saturate
    trivial = action.is_trivial()
    if kind == "category":
        key = (lambda A, Y: A) if trivial else (lambda A, Y: saturate(A))
    else:
        key = None if trivial else (
            lambda A, Y: (saturate(A), saturate(Y)))

    def evaluate(A, Y):
        GA = A if trivial else saturate(A)
        if kind != "mod_category":
            hull = space.up_closure(GA)
            if hull != GA:
                return nu(hull, Y)
        if kind == "category":
            query = CatQuery(space, A=GA, action=action, klass=klass)
        else:
            mode = "pair" if kind == "pair_category" else "mod"
            query = CatQuery(space, A=GA, Y=Y if trivial else saturate(Y),
                             mode=mode, action=action, klass=klass)
        return min(cover_category(query).value, cap)

    nu = IndexFunction(space, evaluate, kind=kind, cap=cap, key=key)
    if kind == "category":
        nu._hull_action = action
    return nu


# -- axiom checking ---------------------------------------------------------


def _axiom_row(mode, mono=None, sub=None, cont=None):
    """The ledger row of the three axiom loops from their witnesses:
    ``witness`` maps each failing axiom, in loop order, to {"ok": False,
    "witness": w}, and is None when every loop passed."""
    failed = {name: {"ok": False, "witness": w} for name, w in (
        ("monotonicity", mono), ("mixed_subadditivity", sub),
        ("continuity", cont)) if w is not None}
    return {"ok": not failed, "mode": mode, "witness": failed or None}


def _holds_on_opens(nu, phi=None):
    """Decide a 'category' index on its invariant opens: True when it is
    monotone and mixed-subadditive (and continuous), or, given the
    self-map ``phi``, when nu(phi(U)) >= nu(U) on every invariant open U;
    False when that fails or cannot be decided here.

    The value is f(up(GA)) for every Y, so each property holds exactly
    when it holds on the invariant opens U = up(GA), evaluated once
    each: A inside B gives up(GA) inside up(GB), and up(G(A | B)) is
    up(GA) | up(GB).  Monotonicity is checked on the covers of their
    lattice, U minus one orbit of minimal points of U (the orbits O
    inside U with U - O open).  Given monotonicity, f(U | V) <= f(X), so
    subadditivity is checked only on pairs with f(U) + f(V) < f(X).
    Continuity cannot fail: up(GA) is an open around A with the value
    of A for every Y.  Supervariance is exact for a G-map phi (any
    continuous self-map under the trivial action): up(G phi(A)) =
    up(phi(up(GA))), since phi(up S) lies in up(phi(S)), so nu(phi(A))
    = nu(phi(U)) for U = up(GA).  Any other index or map gives False.
    """
    action = nu._hull_action
    if action is None:
        return False
    space = nu.space
    if phi is not None and not (
            phi.domain == space == phi.codomain
            and (action.is_trivial() or is_G_map(phi, action))):
        return False
    opens = space.up_sets()
    if not action.is_trivial():
        opens = [U for U in opens if action.is_invariant(U)]
    index = nu.__call__  # a bound method, as in _monotonicity_witness
    value = {U: index(U) for U in opens}
    if phi is not None:
        return all(index(phi.image_mask(U)) >= v for U, v in value.items())
    orbits = action.orbits()
    for U, v in value.items():
        for O in orbits:
            if O & ~U == 0 and value.get(U ^ O, v) > v:
                return False
    top = value[space.full_mask()]
    small = sorted((v, U) for U, v in value.items() if v < top)
    for i, (a, U) in enumerate(small):
        for b, V in small[i + 1:]:  # b ascending
            if a + b >= top:
                break
            if value[U | V] > a + b:
                return False
    return True


def check_axioms(nu):
    """Monotonicity, continuity and mixed subadditivity, checked on every
    subset pair, or decided on the invariant opens of a 'category' index
    (``_holds_on_opens``, the enumeration then runs only on a failure),
    as the ledger row of ``_axiom_row``.  A space of more than
    AXIOM_EXHAUSTIVE_CAP points raises SizeCapExceeded before any index
    call."""
    space = nu.space
    n = len(space)
    if n > AXIOM_EXHAUSTIVE_CAP:
        raise SizeCapExceeded(
            f"check_axioms: exhaustive axiom checks on {n} points exceed "
            f"lscat.engine.AXIOM_EXHAUSTIVE_CAP = {AXIOM_EXHAUSTIVE_CAP}"
        )
    if _holds_on_opens(nu):
        return _axiom_row("exhaustive")
    masks = range(1 << n)
    # submasks A of B in decreasing order, 0 last
    mono = _monotonicity_witness(nu, (
        (A, B, Y) for B in masks for A in range(B, -1, -1) if A & ~B == 0
        for Y in masks))
    sub = _subadditivity_witness(nu, (
        (A, B, Y) for A in masks for B in masks for Y in masks))
    cont = _continuity_witness(nu, space.down_sets(), masks)
    return _axiom_row("exhaustive", mono, sub, cont)


def _monotonicity_witness(nu, triples):
    """The first (A, B, Y) with nu(A, Y) > nu(B, Y) (A inside B), as a
    witness with both values; None if none."""
    # a bound method: calling nu itself goes through the type slot, ~2x slower
    value = nu.__call__
    for A, B, Y in triples:
        if value(A, Y) > value(B, Y):
            return _witness(nu.space, A=A, B=B, Y=Y,
                            values=(nu(A, Y), nu(B, Y)))
    return None


def _subadditivity_witness(nu, triples):
    """The first (A, B, Y) with nu(A | B, Y) > nu(A, Y) + nu(B, 0), as a
    witness with the three values; None if none."""
    value = nu.__call__  # a bound method, as in _monotonicity_witness
    for A, B, Y in triples:
        if value(A | B, Y) > value(A, Y) + value(B, 0):
            return _witness(nu.space, A=A, B=B, Y=Y,
                            values=(nu(A | B, Y), nu(A, Y), nu(B, 0)))
    return None


def _continuity_witness(nu, closed_sets, probe_ys):
    """The first closed set A with no open U containing it where
    nu(A, Y) = nu(U, Y) for every probe Y, as a witness; None if none."""
    space = nu.space
    opens = space.up_sets()
    value = nu.__call__  # a bound method, as in _monotonicity_witness
    for A in closed_sets:
        if not any(A & ~U == 0
                   and all(value(A, Y) == value(U, Y) for Y in probe_ys)
                   for U in opens):
            return _witness(space, A=A)
    return None


def _check_axioms_sampled(nu, seed):
    """The axioms on AXIOM_SAMPLES drawn triples each and a shuffled share
    of the closed sets, all drawn in loop order from ``seed``.  Nothing is
    drawn when ``_holds_on_opens`` decides that the axioms hold, on at
    most AXIOM_EXHAUSTIVE_CAP points: no draw could then fail."""
    space = nu.space
    n = len(space)
    if n <= AXIOM_EXHAUSTIVE_CAP and _holds_on_opens(nu):
        return _axiom_row("sampled")
    rng = random.Random(seed)

    def triples():
        for _ in range(AXIOM_SAMPLES):
            yield rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n)

    mono = _monotonicity_witness(nu, ((A & B, B, Y) for B, A, Y in triples()))
    sub = _subadditivity_witness(nu, triples())
    closed = list(space.down_sets())
    rng.shuffle(closed)
    probe_ys = [rng.getrandbits(n) for _ in range(16)]
    cont = _continuity_witness(nu, closed[: max(4, AXIOM_SAMPLES // 64)],
                               probe_ys)
    return _axiom_row("sampled", mono, sub, cont)


def _witness(space, **kw):
    out = {}
    for k, v in kw.items():
        if isinstance(v, int):
            out[k] = sorted(space.labels(v))
        else:
            out[k] = v
    return out


def check_supervariance(nu, phi, Z, seed=0):
    """nu(phi(A), Z) >= nu(A, Z) for all A, as the ledger row {"ok",
    "mode", "witness"}, with the first failing A as the witness.  In
    exhaustive mode a 'category' index and a G-map phi are decided on the
    invariant opens first (``_holds_on_opens``), and every A is tried
    only when that fails."""
    space = nu.space
    n = len(space)
    if n <= SUPERVARIANCE_EXHAUSTIVE_CAP:
        if _holds_on_opens(nu, phi):
            return {"ok": True, "mode": "exhaustive", "witness": None}
        masks = range(1 << n)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        masks = (rng.getrandbits(n) for _ in range(CHECK_SAMPLES))
        mode = "sampled"
    value = nu.__call__  # a bound method, as in _monotonicity_witness
    for A in masks:
        img = phi.image_mask(A)
        if value(img, Z) < value(A, Z):
            return {
                "ok": False,
                "mode": mode,
                "witness": _witness(space, A=A, image=img,
                                    values=(nu(img, Z), nu(A, Z))),
            }
    return {"ok": True, "mode": mode, "witness": None}


# -- the sublevel escape lemmas ---------------------------------------------


def band_escape_exponent(pair, U, a, b):
    """Least n with phi^n(f^b minus U) inside f^a.

    Requires the band [a, b[ to be free of fixed points (U absorbs any
    fixed points at the top level); the iteration terminates because the
    decrement is bounded below by the minimal positive gap on the band.
    """
    dps = check_discrete_palais_smale(pair)
    if not dps["ok"]:
        raise HypothesisUnmet("lyapunov", dps["witness"])
    fixed = pair.fixed_mask()
    for i in bits(fixed):
        if a <= pair.f[i] < b:
            raise HypothesisUnmet(
                "fixed_point_free_band", pair.space.points[i]
            )
        if pair.f[i] == b and not U >> i & 1:
            raise HypothesisUnmet(
                "neighborhood_covers_top_fixed_points", pair.space.points[i]
            )
    source = pair.sublevel(b) & ~U
    target = pair.sublevel(a)
    n = minimal_escape_power(pair, source, target)
    if n is None:
        raise AssertionError("escape iteration failed to terminate")
    return n


# -- the critical-value ladder -----------------------------------------------


def _runs(pair, nu, a, b, base, rhs):
    """The min-max levels between the two cut values, one entry per run.

    With mu(S) = nu(S, f^a), c_k is the first band value v (a < v <= b)
    with mu(f^v) >= k, for k from base + 1 = mu(f^a) + 1 to rhs =
    mu(f^b).  One pass over the band values evaluates each mu(f^v) once
    and gives every k it reaches its level; a run is the ks that share
    one value, with its fixed slice (empty when v is not a critical
    level), that slice's index, and whether it reaches the run's length.
    """
    low = pair.sublevel(a)
    runs = []
    k = base + 1
    for v in pair.values_sorted():
        if k > rhs:
            break
        if not a < v <= b:
            continue
        ks = list(range(k, min(nu(pair.sublevel(v), low), rhs) + 1))
        if ks:
            level_slice = pair.level_slice(v)
            got = nu(level_slice, 0)
            runs.append({"value": v, "ks": ks,
                         "slice": sorted(pair.space.labels(level_slice)),
                         "slice_index": got, "ok": got >= len(ks)})
            k = ks[-1] + 1
    return runs


# -- the main verifier ---------------------------------------------------------


def verify_index_bound(nu, pair, a, b, axiom_mode="sampled", seed=0):
    """The counting inequality for a supervariant index function:

        nu(f^a, f^a) + sum over critical levels of nu(slice)
            >= nu(f^b, f^a).

    All hypotheses are checked and reported, each as the ledger row its
    check returns; failures never abort.  The
    verdict is HYPOTHESIS_FAILED when a checked hypothesis fails,
    INEQUALITY_HOLDS / VIOLATION otherwise; violations are persisted.
    The exhaustive axiom mode on more than AXIOM_EXHAUSTIVE_CAP points
    raises SizeCapExceeded (from ``check_axioms``) before any index value
    is computed.
    """
    if axiom_mode not in AXIOM_MODES:
        raise ValueError(f"unknown axiom mode {axiom_mode!r}; known: "
                         f"lscat.engine.AXIOM_MODES = {AXIOM_MODES}")
    dps = check_discrete_palais_smale(pair)
    hypotheses = {"lyapunov": dps, "discrete_palais_smale": dps}
    if axiom_mode == "exhaustive":
        hypotheses["axioms"] = check_axioms(nu)
    else:
        hypotheses["axioms"] = _check_axioms_sampled(nu, seed)
    low = pair.sublevel(a)
    hypotheses["supervariance"] = check_supervariance(
        nu, pair.phi, low, seed=seed)

    base, rhs = nu(low, low), nu(pair.sublevel(b), low)
    slice_sum, per_level = _slice_sum(pair, a, b, lambda m: nu(m, 0))
    slices = [{"level": d, "value": v} for d, v in per_level]
    total = base + slice_sum

    failed = sorted(k for k, h in hypotheses.items() if not h["ok"])
    if failed:
        verdict = "HYPOTHESIS_FAILED:" + ",".join(failed)
    elif total >= rhs:
        verdict = "INEQUALITY_HOLDS"
    else:
        verdict = "VIOLATION"
    report = {
        "index": {"kind": nu.kind, "cap": nu.cap},
        "band": [a, b],
        "hypotheses": hypotheses,
        "lhs": {"base": base, "slices": slices, "total": total},
        "rhs": rhs,
        "runs": _runs(pair, nu, a, b, base, rhs),
        "verdict": verdict,
    }
    if verdict == "VIOLATION":
        persist_violation("index_bound", pair, report)
    return report


# -- random instances ---------------------------------------------------------


def random_space(rng):
    n = rng.randint(2, 7)
    labels = [f"x{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                pairs.append([labels[i], labels[j]])
    return validate_space(labels, pairs)


def random_identity_homotopic_map(rng, space):
    """Compose up to four comparable single-point mutations starting
    from the identity; the mutation path is itself a fence, so the
    result is homotopic to the identity by construction."""
    images = list(range(len(space)))
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(space))
        cands = bits(_mutation_candidates(space, space, tuple(images), i))
        if not cands:
            continue
        images[i] = rng.choice(cands)
    return SpaceMap(space, space, tuple(images))


def _steps_to_fixation(phi):
    """Each point's number of steps to a fixed point of phi, or None when
    phi has a periodic orbit of length > 1 (no Lyapunov function then
    exists).  A walk stops at the first point already counted, so each
    point is walked once."""
    images = phi.images
    steps = [None] * len(images)
    for i in range(len(images)):
        path = []
        cur = i
        while steps[cur] is None:
            if images[cur] == cur:
                steps[cur] = 0
                break
            if cur in path:
                return None
            path.append(cur)
            cur = images[cur]
        n = steps[cur]
        for p in reversed(path):
            n += 1
            steps[p] = n
    return steps


def random_instance(seed):
    """A full engine instance: pair, truncated index (cap 3, 4 or 5), band.

    The map is fence-homotopic to the identity by construction and the
    value function decreases along trajectories (steps-to-fixation with
    randomised level values).
    """
    rng = random.Random(seed)
    for _ in range(64):
        space = random_space(rng)
        phi = random_identity_homotopic_map(rng, space)
        steps = _steps_to_fixation(phi)
        if steps is not None:
            break
    else:
        raise RuntimeError("generator failed to produce an acyclic map")
    levels = [0.0]
    for _ in range(max(steps) + 1):
        levels.append(levels[-1] + rng.uniform(0.5, 2.0))
    f = tuple(levels[s] for s in steps)
    pair = DynamicalPair(space, phi, f)
    values = pair.values_sorted()
    a = rng.choice([values[0] - 1.0] + [
        (x + y) / 2 for x, y in zip(values, values[1:])
    ])
    b_opts = [v for v in values if v > a] + [values[-1] + 1.0]
    b = rng.choice(b_opts)
    action = GroupAction.trivial(space)
    nu = make_truncated_index("category", rng.choice((3, 4, 5)), action)
    return pair, nu, a, b
