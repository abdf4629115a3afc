"""The axiomatic min-max engine: index functions, axiom checkers, the
critical-value ladder and the counting-inequality verifier.

An index function assigns a natural number to every pair of subsets and
must satisfy monotonicity, continuity and mixed subadditivity; it is
supervariant for (phi, Z) when applying phi never decreases the value
against the reference set Z.  The engine is purely axiomatic: nothing
here looks at separation properties of the space.
"""

from __future__ import annotations

import random

from .action import GroupAction, HomogeneousClass
from .category import (
    CatQuery,
    HypothesisUnmet,
    INFINITE,
    cover_category,
)
from .dynamics import (
    DynamicalPair,
    check_discrete_palais_smale,
    is_lyapunov,
    minimal_escape_power,
    persist_violation,
)
from .poset import (
    SpaceMap,
    bits,
    validate_space,
    _mutation_candidates,
)

AXIOM_EXHAUSTIVE_CAP = 7  # points; beyond this check_axioms samples
SUPERVARIANCE_EXHAUSTIVE_CAP = 12  # points; beyond this supervariance samples
CHECK_SAMPLES = 512  # random draws of a sampled axiom or supervariance check
INDEX_KINDS = ("category", "pair_category", "mod_category")
AXIOM_MODES = ("exhaustive", "sampled", "assumed")


class IndexFunction:
    """An evaluatable nu(A, Y) with provenance and a value cache."""

    __slots__ = ("space", "evaluate", "kind", "cap", "_cache")

    def __init__(self, space, evaluate, kind="user", cap=None):
        self.space = space
        self.evaluate = evaluate
        self.kind = kind
        self.cap = cap
        self._cache = {}

    def __call__(self, A, Y=0):
        key = (A, Y)
        if key not in self._cache:
            v = self.evaluate(A, Y)
            if v is INFINITE or v < 0:
                raise ValueError("index functions take nonnegative integers")
            self._cache[key] = v
        return self._cache[key]

    def __repr__(self):
        return f"IndexFunction(kind={self.kind!r}, cap={self.cap})"


def make_truncated_index(kind, cap, action, klass=None):
    """Truncated category-based index functions.

    kind 'category' uses the plain equivariant category of the saturated
    first argument; 'pair_category' and 'mod_category' use the pair and
    mod variants against the saturated second argument.
    """
    if kind not in INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r}")
    if cap < 1:
        raise ValueError("truncation cap must be at least 1")
    space = action.space
    klass = klass or HomogeneousClass.default(action)
    # The value reads only GA (and GY for the pair kinds), so it is
    # memoised on those: many (A, Y) pairs share one cover query.
    memo = {}

    def evaluate(A, Y):
        GA = action.saturate(A)
        if GA == 0:
            return 0
        key = (GA,) if kind == "category" else (GA, action.saturate(Y))
        if key not in memo:
            if kind == "category":
                query = CatQuery(space, A=GA, action=action, klass=klass)
            else:
                mode = "pair" if kind == "pair_category" else "mod"
                query = CatQuery(space, A=GA, Y=key[1], mode=mode,
                                 action=action, klass=klass)
            value = cover_category(query).value
            memo[key] = cap if value is INFINITE else min(value, cap)
        return memo[key]

    return IndexFunction(space, evaluate, kind=kind, cap=cap)


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


def check_axioms(nu):
    """Monotonicity, continuity and mixed subadditivity.

    Exhaustive over all subset pairs up to the cap, otherwise randomised
    sampling (seed 0) with the mode flagged in the report.
    """
    if len(nu.space) <= AXIOM_EXHAUSTIVE_CAP:
        return _check_axioms_exhaustive(nu)
    return _check_axioms_sampled(nu, CHECK_SAMPLES, 0)


def _check_axioms_exhaustive(nu):
    space = nu.space
    n = len(space)
    full = (1 << n) - 1
    report = AxiomReport("exhaustive")

    mono = None
    for B in range(full + 1):
        sub = B
        while True:
            A = sub
            for Y in range(full + 1):
                if nu(A, Y) > nu(B, Y):
                    mono = _witness(space, A=A, B=B, Y=Y,
                                    values=(nu(A, Y), nu(B, Y)))
                    break
            if mono or sub == 0:
                break
            sub = (sub - 1) & B
        if mono:
            break
    report.record("monotonicity", mono is None, mono)

    sub_w = None
    for A in range(full + 1):
        for B in range(full + 1):
            u = A | B
            for Y in range(full + 1):
                if nu(u, Y) > nu(A, Y) + nu(B, 0):
                    sub_w = _witness(space, A=A, B=B, Y=Y,
                                     values=(nu(u, Y), nu(A, Y), nu(B, 0)))
                    break
            if sub_w:
                break
        if sub_w:
            break
    report.record("mixed_subadditivity", sub_w is None, sub_w)

    cont_w = None
    opens = space.up_sets()
    for A in space.down_sets():
        found = False
        for U in opens:
            if A & ~U:
                continue
            if all(nu(A, Y) == nu(U, Y) for Y in range(full + 1)):
                found = True
                break
        if not found:
            cont_w = _witness(space, A=A)
            break
    report.record("continuity", cont_w is None, cont_w)
    return report


def _check_axioms_sampled(nu, sample, seed):
    space = nu.space
    full = space.full_mask()
    rng = random.Random(seed)
    report = AxiomReport("sampled")
    mono = sub_w = cont_w = None
    for _ in range(sample):
        B = rng.randrange(full + 1)
        A = B & rng.randrange(full + 1)
        Y = rng.randrange(full + 1)
        if nu(A, Y) > nu(B, Y):
            mono = _witness(space, A=A, B=B, Y=Y)
            break
    report.record("monotonicity", mono is None, mono)
    for _ in range(sample):
        A = rng.randrange(full + 1)
        B = rng.randrange(full + 1)
        Y = rng.randrange(full + 1)
        if nu(A | B, Y) > nu(A, Y) + nu(B, 0):
            sub_w = _witness(space, A=A, B=B, Y=Y)
            break
    report.record("mixed_subadditivity", sub_w is None, sub_w)
    closed = list(space.down_sets())
    rng.shuffle(closed)
    probe_ys = [rng.randrange(full + 1) for _ in range(16)]
    for A in closed[: max(4, sample // 64)]:
        found = False
        for U in space.up_sets():
            if A & ~U:
                continue
            if all(nu(A, Y) == nu(U, Y) for Y in probe_ys):
                found = True
                break
        if not found:
            cont_w = _witness(space, A=A)
            break
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
    """nu(phi(A), Z) >= nu(A, Z) for all A; witness on failure."""
    space = nu.space
    n = len(space)
    if n <= SUPERVARIANCE_EXHAUSTIVE_CAP:
        masks = range(1 << n)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        masks = (rng.randrange(1 << n) for _ in range(CHECK_SAMPLES))
        mode = "sampled"
    for A in masks:
        img = phi.image_mask(A)
        if nu(img, Z) < nu(A, Z):
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


def sublevel_entry_margin(pair, U, a, eps):
    """Largest margin d in ]0, eps] with phi(f^{a+d}) inside U.

    Candidates come from the gap structure of the value set; a margin
    below the first value above the cut always works for Lyapunov pairs
    since the sublevel set is forward invariant.
    """
    ok, wit = is_lyapunov(pair)
    if not ok:
        raise HypothesisUnmet("lyapunov", wit)
    if eps <= 0:
        raise ValueError("need a positive window")
    fa = pair.sublevel(a)
    if fa & ~U:
        raise HypothesisUnmet(
            "neighborhood_contains_sublevel",
            sorted(pair.space.labels(fa & ~U)),
        )
    fixed = pair.fixed_mask()
    for i in bits(fixed):
        if a < pair.f[i] < a + eps:
            raise HypothesisUnmet(
                "fixed_point_free_window", pair.space.points[i]
            )
    above = [v for v in pair.values_sorted() if v > a]
    candidates = [eps]
    candidates.extend(v - a for v in above if v - a <= eps)
    if above:
        candidates.append(min(above[0] - a, eps) / 2)
    else:
        candidates.append(eps / 2)
    for delta in sorted(set(candidates), reverse=True):
        moved = pair.phi.image_mask(pair.sublevel(a + delta))
        if moved & ~U == 0:
            return delta
    raise AssertionError("no margin worked despite the hypotheses")


# -- the critical-value ladder -----------------------------------------------


class CriticalValueTable:
    """Min-max levels between the two cut values, with their runs and
    fixed slices; the construction checks are recorded, not assumed."""

    def __init__(self, pair, nu, a, b):
        self.a = a
        self.b = b
        mu = lambda mask: nu(mask, pair.sublevel(a))  # noqa: E731
        self.mu_low = mu(pair.sublevel(a))
        self.mu_high = mu(pair.sublevel(b))
        values = [v for v in pair.values_sorted() if a < v <= b]
        self.levels = []
        fixed_values = {pair.f[i] for i in bits(pair.fixed_mask())}
        prev_by_value = {}
        prev = None
        for v in values:
            prev_by_value[v] = prev
            prev = v
        for k in range(self.mu_low + 1, self.mu_high + 1):
            ck = None
            for v in values:
                if mu(pair.sublevel(v)) >= k:
                    ck = v
                    break
            assert ck is not None, "monotone ladder must reach the top"
            below = prev_by_value[ck]
            below_mask = pair.sublevel(below) if below is not None else (
                pair.sublevel(a)
            )
            self.levels.append({
                "k": k,
                "value": ck,
                "slice": pair.level_slice(ck),
                "lower_check": mu(below_mask) < k,
                "upper_check": mu(pair.sublevel(ck)) >= k,
                "is_critical_level": ck in fixed_values,
            })
        self.runs = []
        for lev in self.levels:
            if self.runs and self.runs[-1]["value"] == lev["value"]:
                self.runs[-1]["ks"].append(lev["k"])
            else:
                self.runs.append({"value": lev["value"], "ks": [lev["k"]],
                                  "slice": lev["slice"]})

    def values(self):
        return [lev["value"] for lev in self.levels]

    def in_band(self):
        return all(self.a < lev["value"] <= self.b for lev in self.levels)

    def nondecreasing(self):
        vs = self.values()
        return all(x <= y for x, y in zip(vs, vs[1:]))

    def all_critical(self):
        return all(lev["is_critical_level"] for lev in self.levels)

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


def critical_values(nu, pair, a, b):
    return CriticalValueTable(pair, nu, a, b)


# -- the main verifier ---------------------------------------------------------


def verify_index_bound(nu, pair, a, b, axiom_mode="sampled", seed=0):
    """The counting inequality for a supervariant index function:

        nu(f^a, f^a) + sum over critical levels of nu(slice)
            >= nu(f^b, f^a).

    All hypotheses are checked and reported; failures never abort.  The
    verdict is HYPOTHESIS_FAILED when a checked hypothesis fails,
    INEQUALITY_HOLDS / VIOLATION otherwise; violations are persisted.
    """
    space = pair.space
    hypotheses = {}
    ok, wit = is_lyapunov(pair)
    hypotheses["lyapunov"] = {"ok": ok, "witness": wit}
    dps = check_discrete_palais_smale(pair)
    hypotheses["discrete_palais_smale"] = {
        "ok": dps["holds"], "witness": dps["witness"]
    }
    hypotheses["finite_critical_levels"] = {"ok": True, "witness": None}
    if axiom_mode == "assumed":
        hypotheses["axioms"] = {"ok": True, "mode": "assumed",
                                "witness": None}
    else:
        if axiom_mode == "exhaustive":
            rep = _check_axioms_exhaustive(nu)
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
    base = nu(pair.sublevel(a), pair.sublevel(a))
    slices = []
    total = base
    for d in pair.critical_levels(a, b):
        v = nu(pair.level_slice(d), 0)
        slices.append({"level": d, "value": v})
        total += v
    rhs = nu(pair.sublevel(b), pair.sublevel(a))

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
        cands = _mutation_candidates(space, space, tuple(images), i)
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
