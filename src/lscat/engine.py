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
    is_lyapunov,
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
INDEX_KINDS = ("category", "pair_category", "mod_category")
AXIOM_MODES = ("exhaustive", "sampled", "assumed")


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
        try:
            return self._cache[key]
        except KeyError:
            pass
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
        GA = saturate(A)
        if kind != "mod_category":
            hull = space.up_closure(GA)
            if hull != GA:
                return nu(hull, Y)
        if kind == "category":
            query = CatQuery(space, A=GA, action=action, klass=klass)
        else:
            mode = "pair" if kind == "pair_category" else "mod"
            query = CatQuery(space, A=GA, Y=saturate(Y), mode=mode,
                             action=action, klass=klass)
        return min(cover_category(query).value, cap)

    nu = IndexFunction(space, evaluate, kind=kind, cap=cap, key=key)
    if kind == "category":
        nu._hull_action = action
    return nu


# -- axiom checking ---------------------------------------------------------


class AxiomReport:
    """Per-axiom verdicts with re-checkable witnesses."""

    def __init__(self, mode):
        self.mode = mode  # exhaustive | sampled
        self.axioms = {}

    def record(self, name, ok, witness=None):
        self.axioms[name] = {"ok": bool(ok), "witness": witness}

    def all_ok(self):
        return all(a["ok"] for a in self.axioms.values())

    def __repr__(self):
        flags = {k: v["ok"] for k, v in self.axioms.items()}
        return f"AxiomReport({self.mode}, {flags})"


def _passed(mode):
    """The report of three axiom loops that found no witness."""
    report = AxiomReport(mode)
    for name in ("monotonicity", "mixed_subadditivity", "continuity"):
        report.record(name, True)
    return report


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
    value = {U: nu(U) for U in space.up_sets() if action.is_invariant(U)}
    if phi is not None:
        return all(nu(phi.image_mask(U)) >= v for U, v in value.items())
    orbits = action.orbits()
    for U, v in value.items():
        for O in orbits:
            if O & ~U == 0 and value.get(U ^ O, v) > v:
                return False
    top = value[space.full_mask()]
    small = [(U, v) for U, v in value.items() if v < top]
    for i, (U, a) in enumerate(small):
        for V, b in small[i + 1:]:
            if a + b < top and value[U | V] > a + b:
                return False
    return True


def check_axioms(nu):
    """Monotonicity, continuity and mixed subadditivity, checked on every
    subset pair, or decided on the invariant opens of a 'category' index
    (``_holds_on_opens``, the enumeration then runs only on a failure).
    A space of more than AXIOM_EXHAUSTIVE_CAP points raises
    SizeCapExceeded before any index call."""
    space = nu.space
    n = len(space)
    if n > AXIOM_EXHAUSTIVE_CAP:
        raise SizeCapExceeded(
            f"check_axioms: exhaustive axiom checks on {n} points exceed "
            f"lscat.engine.AXIOM_EXHAUSTIVE_CAP = {AXIOM_EXHAUSTIVE_CAP}"
        )
    if _holds_on_opens(nu):
        return _passed("exhaustive")
    masks = range(1 << n)
    report = AxiomReport("exhaustive")
    # submasks A of B in decreasing order, 0 last
    mono = _monotonicity_witness(nu, (
        (A, B, Y) for B in masks for A in range(B, -1, -1) if A & ~B == 0
        for Y in masks))
    report.record("monotonicity", mono is None, mono)
    sub_w = _subadditivity_witness(nu, (
        (A, B, Y) for A in masks for B in masks for Y in masks))
    report.record("mixed_subadditivity", sub_w is None, sub_w)
    cont_w = _continuity_witness(nu, space.down_sets(), masks)
    report.record("continuity", cont_w is None, cont_w)
    return report


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


def _check_axioms_sampled(nu, sample, seed):
    """The axioms on ``sample`` drawn triples each and a shuffled share of
    the closed sets, all drawn in loop order from ``seed``.  Nothing is
    drawn when ``_holds_on_opens`` decides that the axioms hold, on at
    most AXIOM_EXHAUSTIVE_CAP points: no draw could then fail."""
    space = nu.space
    n = len(space)
    if n <= AXIOM_EXHAUSTIVE_CAP and _holds_on_opens(nu):
        return _passed("sampled")
    rng = random.Random(seed)

    def triples():
        for _ in range(sample):
            yield rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n)

    report = AxiomReport("sampled")
    mono = _monotonicity_witness(nu, ((A & B, B, Y) for B, A, Y in triples()))
    report.record("monotonicity", mono is None, mono)
    sub_w = _subadditivity_witness(nu, triples())
    report.record("mixed_subadditivity", sub_w is None, sub_w)
    closed = list(space.down_sets())
    rng.shuffle(closed)
    probe_ys = [rng.getrandbits(n) for _ in range(16)]
    cont_w = _continuity_witness(nu, closed[: max(4, sample // 64)], probe_ys)
    report.record("continuity", cont_w is None, cont_w)
    return report


def _witness(space, **kw):
    out = {}
    for k, v in kw.items():
        if isinstance(v, int):
            out[k] = sorted(space.labels(v))
        else:
            out[k] = v
    return out


def check_supervariance(nu, phi, Z, seed=0):
    """nu(phi(A), Z) >= nu(A, Z) for all A; witness on failure.  In
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
    ok, wit = is_lyapunov(pair)
    if not ok:
        raise HypothesisUnmet("lyapunov", wit)
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


class CriticalValueTable:
    """Min-max levels between the two cut values, with their runs and
    fixed slices.

    With mu(S) = nu(S, f^a), c_k is the first band value v (a < v <= b)
    with mu(f^v) >= k, for k from mu_low + 1 = mu(f^a) + 1 to
    mu_high = mu(f^b).  One pass over the band values evaluates each
    mu(f^v) once and gives every k it reaches its level; a run is the
    ks that share one value.
    """

    def __init__(self, pair, nu, a, b):
        self.a = a
        self.b = b
        low = pair.sublevel(a)
        self.mu_low = nu(low, low)
        self.mu_high = nu(pair.sublevel(b), low)
        fixed_values = {pair.f[i] for i in bits(pair.fixed_mask())}
        self.levels = []
        self.runs = []
        k = self.mu_low + 1
        for v in pair.values_sorted():
            if k > self.mu_high:
                break
            if not a < v <= b:
                continue
            ks = list(range(k, min(nu(pair.sublevel(v), low),
                                   self.mu_high) + 1))
            if ks:
                level_slice = pair.level_slice(v)
                self.levels += [{"k": j, "value": v, "slice": level_slice,
                                 "is_critical_level": v in fixed_values}
                                for j in ks]
                self.runs.append({"value": v, "ks": ks,
                                  "slice": level_slice})
                k = ks[-1] + 1

    def to_dict(self, space):
        return {
            "band": [self.a, self.b],
            "mu_low": self.mu_low,
            "mu_high": self.mu_high,
            "levels": [
                {**lev, "slice": sorted(space.labels(lev["slice"]))}
                for lev in self.levels
            ],
            "runs": [
                {"value": r["value"], "ks": r["ks"],
                 "slice": sorted(space.labels(r["slice"]))}
                for r in self.runs
            ],
        }


# -- the main verifier ---------------------------------------------------------


def verify_index_bound(nu, pair, a, b, axiom_mode="sampled", seed=0):
    """The counting inequality for a supervariant index function:

        nu(f^a, f^a) + sum over critical levels of nu(slice)
            >= nu(f^b, f^a).

    All hypotheses are checked and reported; failures never abort.  The
    verdict is HYPOTHESIS_FAILED when a checked hypothesis fails,
    INEQUALITY_HOLDS / VIOLATION otherwise; violations are persisted.
    The exhaustive axiom mode on more than AXIOM_EXHAUSTIVE_CAP points
    raises SizeCapExceeded (from ``check_axioms``) before any index value
    is computed.
    """
    if axiom_mode not in AXIOM_MODES:
        raise ValueError(f"unknown axiom mode {axiom_mode!r}; known: "
                         f"lscat.engine.AXIOM_MODES = {AXIOM_MODES}")
    space = pair.space
    hypotheses = {}
    dps = check_discrete_palais_smale(pair)
    for name in ("lyapunov", "discrete_palais_smale"):
        hypotheses[name] = {"ok": dps["holds"], "witness": dps["witness"]}
    hypotheses["finite_critical_levels"] = {"ok": True, "witness": None}
    if axiom_mode == "assumed":
        hypotheses["axioms"] = {"ok": True, "mode": "assumed",
                                "witness": None}
    else:
        if axiom_mode == "exhaustive":
            rep = check_axioms(nu)
        else:
            rep = _check_axioms_sampled(nu, sample=160, seed=seed)
        hypotheses["axioms"] = {
            "ok": rep.all_ok(), "mode": rep.mode,
            "witness": {k: v for k, v in rep.axioms.items() if not v["ok"]}
            or None,
        }
    sup = check_supervariance(nu, pair.phi, pair.sublevel(a), seed=seed)
    hypotheses["supervariance"] = {"ok": sup["ok"], "mode": sup["mode"],
                                   "witness": sup["witness"]}

    table = CriticalValueTable(pair, nu, a, b)
    base, rhs = table.mu_low, table.mu_high
    slice_sum, per_level = _slice_sum(pair, a, b, lambda m: nu(m, 0))
    slices = [{"level": d, "value": v} for d, v in per_level]
    total = base + slice_sum

    run_checks = []
    for run in table.runs:
        need = len(run["ks"])
        got = nu(run["slice"], 0)
        run_checks.append({
            "value": run["value"], "multiplicity": need,
            "slice_index": got, "ok": got >= need,
        })

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
        "table": table.to_dict(space),
        "run_checks": run_checks,
        "verdict": verdict,
    }
    if verdict == "VIOLATION":
        bundle = {
            "space": {"points": list(space.points),
                      "relation": space.relation_pairs()},
            "phi": {p: pair.phi(p) for p in space.points},
            "f": {p: pair.f[i] for i, p in enumerate(space.points)},
            "report": report,
        }
        persist_violation("index_bound", bundle)
    return report


# -- random instances ---------------------------------------------------------


def random_space(rng, max_points=7):
    n = rng.randint(2, max_points)
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


def _eventually_fixed(space, phi):
    """No periodic orbits of length > 1 (a Lyapunov function can exist)."""
    for i in range(len(space)):
        seen = []
        cur = i
        while cur not in seen:
            seen.append(cur)
            cur = phi.images[cur]
        if len(seen) - seen.index(cur) > 1:
            return False
    return True


def random_instance(seed, max_points=7):
    """A full engine instance: pair, truncated index (cap 3, 4 or 5), band.

    The map is fence-homotopic to the identity by construction and the
    value function decreases along trajectories (steps-to-fixation with
    randomised level values).
    """
    rng = random.Random(seed)
    for _ in range(64):
        space = random_space(rng, max_points)
        phi = random_identity_homotopic_map(rng, space)
        if _eventually_fixed(space, phi):
            break
    else:
        raise RuntimeError("generator failed to produce an acyclic map")
    steps = []
    for i in range(len(space)):
        n = 0
        cur = i
        while phi.images[cur] != cur:
            cur = phi.images[cur]
            n += 1
        steps.append(n)
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
