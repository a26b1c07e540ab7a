"""Independent oracles used by the test suite.

Each oracle re-derives an expected result by brute force, without touching the
library code path it is checking: path search is checked by exhaustive simple-
path enumeration, transition counting by a from-scratch recount of the trace
file, the minimizer by exhaustive search over all cube covers (and its
greedy fallback by a greedy cover that re-derives every key), grid routing
by a fresh early-exit BFS per (start, goal) pair, and the query partition by
testing every (state, enabled action) pair of the model's edges.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from itertools import combinations, product


def best_path_product(m, max_len: int = 12):
    """Highest probability product over simple action-labeled paths to a goal.

    Enumerates every initial-to-goal path of at most ``max_len`` edges that
    never revisits a state; returns None when no such path exists.  Branches
    whose running product cannot exceed the best found so far are pruned,
    which is sound because probabilities never exceed one.
    """
    goals = {s for s in m.states if m.is_goal(s)}
    best = [None]

    def walk(state, product_so_far, visited, depth):
        if state in goals:
            if best[0] is None or product_so_far > best[0]:
                best[0] = product_so_far
            return
        if depth == max_len:
            return
        if best[0] is not None and product_so_far <= best[0]:
            return
        edges = sorted(
            m.out_edges.get(state, ()), key=lambda e: -e.probability
        )
        for e in edges:
            if e.target in visited or e.probability <= 0.0:
                continue
            walk(e.target, product_so_far * e.probability,
                 visited | {e.target}, depth + 1)

    if len(m.initial_counts) > 1:
        for s, p in m.initial_distribution().items():
            walk(s, p, {s}, 0)
    else:
        walk(m.initial_state, 1.0, {m.initial_state}, 0)
    return best[0]


def recount_trace(path, schema):
    """From-scratch transition recount straight off the trace file."""
    counts = Counter()
    initials = Counter()
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        rec = json.loads(line)
        source = tuple(_encode(agent, schema) for agent in rec["state"])
        target = tuple(_encode(agent, schema) for agent in rec["next_state"])
        counts[(source, tuple(rec["action"]), target)] += 1
        if rec["step"] == 0:
            initials[source] += 1
    return counts, initials


def _encode(record, schema):
    bits = 0
    for i, pred in enumerate(schema.predicates):
        if pred.evaluate(record):
            bits |= 1 << i
    return bits


def all_cubes(n_vars: int):
    """Every cube over n_vars as a (mask, values) pair, fixed order."""
    cubes = []
    for spec in product((None, 0, 1), repeat=n_vars):
        mask = values = 0
        for v, bit in enumerate(spec):
            if bit is not None:
                mask |= 1 << v
                values |= bit << v
        cubes.append((mask, values))
    return cubes


def cube_covers(cube, minterm: int) -> bool:
    mask, values = cube
    return (minterm & mask) == values


def minimal_cover_size(ones, zeros, n_vars: int) -> int:
    """Exhaustive minimum DNF cardinality: fewest cubes covering all ones and
    no zero.  Practical for n_vars <= 4."""
    return len(minimal_cover(ones, zeros, n_vars))


def prime_cubes(ones, zeros, n_vars: int) -> list[tuple[int, int]]:
    """Every prime cube touching the on-set, by exhaustive search: a cube that
    covers some one and no zero, and covers a zero once any literal is
    dropped.  Returned as (mask, values) pairs in ``all_cubes`` order."""
    zeros = set(zeros)

    def excludes_zeros(cube):
        return not any(cube_covers(cube, z) for z in zeros)

    def prime(cube):
        mask, values = cube
        return not any(
            excludes_zeros((mask & ~(1 << v), values & ~(1 << v)))
            for v in range(n_vars) if mask >> v & 1
        )

    return [
        c for c in all_cubes(n_vars)
        if excludes_zeros(c) and prime(c) and any(cube_covers(c, m) for m in ones)
    ]


def literal_tuple(cube) -> tuple:
    """(variable, 0 if positive else 1) per literal, by ascending variable."""
    mask, values = cube
    return tuple(
        (v, 0 if values >> v & 1 else 1) for v in range(mask.bit_length()) if mask >> v & 1
    )


def minimal_cover(ones, zeros, n_vars: int) -> list[tuple[int, int]]:
    """Exhaustive minimum DNF under the documented tie-break: fewest cubes,
    then fewest literals, then the sorted per-cube literal tuples, where a
    cube's tuple lists (variable, 0 if positive else 1) by ascending
    variable.  Returns the winning cubes as (mask, values) pairs in
    literal-tuple order.  Practical for n_vars <= 4.

    Only prime cubes (each literal needed to exclude some zero) are tried: a
    cover holding a non-prime cube keeps its count and loses a literal when
    that cube is widened, so it is never the minimum.
    """
    ones = sorted(set(ones))
    if not ones:
        return []

    def rank(combo):
        n_literals = sum(bin(mask).count("1") for mask, _ in combo)
        return (n_literals, sorted(literal_tuple(c) for c in combo))

    usable = prime_cubes(ones, zeros, n_vars)
    for k in range(1, len(ones) + 1):
        covers = [
            combo for combo in combinations(usable, k)
            if all(any(cube_covers(c, m) for c in combo) for m in ones)
        ]
        if covers:
            return sorted(min(covers, key=rank), key=literal_tuple)
    raise AssertionError("no cover found; ones and zeros must overlap")


def greedy_cover(remaining, cubes, coverage) -> list[tuple[int, int]]:
    """Reference greedy set cover, the minimizer's fallback above its
    exact-cover limit: each pick re-derives every cube's key and takes the
    cube covering the most still-uncovered ones, then the fewest literals,
    then the smallest literal tuple.  ``coverage`` maps each (mask, values)
    cube to the set of ones it covers; returns the cubes in pick order."""
    chosen = []
    uncovered = set(remaining)
    while uncovered:
        best = min(
            cubes,
            key=lambda c: (
                -len(coverage[c] & uncovered),
                bin(c[0]).count("1"),
                literal_tuple(c),
            ),
        )
        gain = coverage[best] & uncovered
        if not gain:
            raise AssertionError("greedy cover stalled; uncovered ones remain")
        chosen.append(best)
        uncovered -= gain
    return chosen


def dnf_truth(implicants, minterm: int) -> bool:
    """Evaluate a list of library implicants without using their methods."""
    for imp in implicants:
        if (minterm & imp.care_mask) == imp.values:
            return True
    return False


def bfs_first_move(world, start, goal):
    """First move of a shortest 4-neighbour path start -> goal on ``world``'s
    grid, or None when goal is unreachable; ``start`` itself when
    start == goal.  Passability is re-derived from the config and task
    liveness, and neighbours are tried in sorted order, one BFS per call."""
    cfg = world.config

    def passable(cell):
        r, c = cell
        return (0 <= r < cfg.rows and 0 <= c < cfg.cols
                and cell not in cfg.walls
                and not any(t.cell == cell and world.alive[t.id] for t in cfg.tasks))

    if start == goal:
        return start
    prev = {start: start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            while prev[cur] != start:
                cur = prev[cur]
            return cur
        r, c = cur
        for nxt in sorted([(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]):
            if passable(nxt) and nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    return None


def partition(criterion, m, domain):
    """(targets, non-targets) of a norf set or withrf list of sets of
    (agent, action) pairs: every outgoing edge of every state is tested, with
    agent positions looked up by name; a state with a compatible action is a
    target, one with only incompatible actions a non-target."""
    position = {a.name: i for i, a in enumerate(domain.agents)}
    sets = list(criterion) if isinstance(criterion, (list, tuple)) else [criterion]

    def compatible(action):
        return any(all(action[position[agent]] == act for agent, act in s)
                   for s in sets)

    targets, nontargets = set(), set()
    for s in m.states:
        for edge in m.out_edges[s]:
            (targets if compatible(edge.action) else nontargets).add(s)
    return targets, nontargets - targets
