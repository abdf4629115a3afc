"""Random engine instances under a real group action: an involution on a
doubled poset with fixed points, as in ``test_category.acted_spaces``.

The map is made by whole-orbit fence moves from the identity, so it is a
G-map G-homotopic to the identity by construction, and the value
function counts steps to fixation, which is invariant because the map
commutes with the involution."""

import random

from lscat.action import HomogeneousClass, validate_action
from lscat.dynamics import DynamicalPair
from lscat.engine import _steps_to_fixation, make_truncated_index
from lscat.poset import SpaceMap, _neighbors, _orbit_moves, validate_space

CLASS_CHOICES = ("point", "all", "default")


def random_acted_space(rng, max_points=7):
    """Three or more orbits on at most ``max_points`` points, one swapped
    pair at least, every relation running from an earlier orbit to a
    later one and closed under the swap; with the swap action."""
    while True:
        kinds = [rng.choice(("fixed", "pair"))
                 for _ in range(rng.randint(3, max_points))]
        if ("pair" in kinds and sum(1 if k == "fixed" else 2
                                    for k in kinds) <= max_points):
            break
    orbits = [[f"f{u}"] if k == "fixed" else [f"a{u}", f"b{u}"]
              for u, k in enumerate(kinds)]
    pairs = []
    for u, low in enumerate(orbits):
        for high in orbits[u + 1:]:
            if len(low) == len(high) == 2:
                families = [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]
            else:
                families = [[(i, j) for i in range(len(low))
                             for j in range(len(high))]]
            for family in families:
                if rng.random() < 0.4:
                    pairs.extend((low[i], high[j]) for i, j in family)
    space = validate_space([p for orbit in orbits for p in orbit], pairs)
    swap = {p: p for orbit in orbits for p in orbit}
    for orbit in orbits:
        if len(orbit) == 2:
            swap[orbit[0]], swap[orbit[1]] = orbit[1], orbit[0]
    return space, validate_action(space, [swap])


def random_orbit_moved_map(rng, space, action):
    """One to four random whole-orbit fence moves off the identity, none
    of them back to it."""
    n = len(space)
    moves = _orbit_moves(space, action.elements, tuple(range(n)),
                         space.full_mask())
    identity = images = tuple(range(n))
    for _ in range(rng.randint(1, 4)):
        neighbours = [m for m in _neighbors(space, space, images, moves)
                      if m != identity]
        if neighbours:
            images = rng.choice(neighbours)
    return SpaceMap(space, space, images)


def random_equivariant_instance(seed):
    """(pair, nu, a, b, action): a ``category`` index with cap 3 to 5 and
    the point, all-types or default class, on a band drawn as in
    ``engine.random_instance``."""
    rng = random.Random(seed)
    for _ in range(64):
        space, action = random_acted_space(rng)
        phi = random_orbit_moved_map(rng, space, action)
        steps = _steps_to_fixation(phi)
        if steps is not None:
            break
    else:
        raise RuntimeError("generator failed to produce an acyclic map")
    levels = [0.0]
    for _ in range(max(steps) + 1):
        levels.append(levels[-1] + rng.uniform(0.5, 2.0))
    pair = DynamicalPair(space, phi, tuple(levels[s] for s in steps))
    values = pair.values_sorted()
    a = rng.choice([values[0] - 1.0] + [
        (x + y) / 2 for x, y in zip(values, values[1:])
    ])
    b = rng.choice([v for v in values if v > a] + [values[-1] + 1.0])
    klass = {"point": HomogeneousClass.point_only(action),
             "all": HomogeneousClass.all_types(action),
             "default": None}[rng.choice(CLASS_CHOICES)]
    nu = make_truncated_index("category", rng.choice((3, 4, 5)), action,
                              klass)
    return pair, nu, a, b, action
