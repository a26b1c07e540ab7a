"""Two-level Boolean minimization over minterms with implicit don't-cares.

``minimize`` receives the on-set and off-set as integer minterms; every
assignment in neither set is a don't-care the minimizer may absorb.  A one's
primes are the minimal hitting sets of its differences with the zeros.  As a
set hits a family exactly when it hits the family's inclusion-minimal members,
only those enter the depth-first search (MMCS), which yields every prime, with
no cap, once: from the first one it covers.  A prime stays a flat record, its
sort key and masks, until the cover is chosen; only its primes become objects.

One search picks every cover (O. Coudert, "Two-level logic minimization: an
overview", Integration 17(2), 1994): the table of ones by primes is cut to its
cyclic core by essential primes and row and column dominance, greedy set cover
gives the first incumbent, and depth-first branch and bound searches the core
for at most ``COVER_NODE_BUDGET`` nodes; an unproven cover says so.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import and_, or_
from typing import Iterable, Sequence

from .abstraction import select_bits
from .errors import MintermConflictError, MinimizationTimeout, TooManyVariablesError

# Guardrail: problems wider than this are refused outright; the relevancy
# filter is the intended way to stay under it.
MAX_VARIABLES = 24

# Branch-and-bound nodes per cover: a count, not a time, so equal inputs give
# equal covers.  The smallest power of two that proves every benchmark query's
# and oracle test's cover, but lbf9's (sr5's 100-episode when norf takes 34).
COVER_NODE_BUDGET = 64


@dataclass(frozen=True)
class Implicant:
    """A cube: ``values`` on the variables in ``care_mask``, free elsewhere."""

    care_mask: int
    values: int

    def __post_init__(self):
        if self.values & ~self.care_mask:
            raise ValueError("implicant values set outside its care mask")

    def covers(self, minterm: int) -> bool:
        return (minterm & self.care_mask) == self.values

    def literals(self) -> tuple[tuple[int, bool], ...]:
        """(variable index, polarity) pairs in ascending variable order."""
        found, rest = [], self.care_mask
        while rest:
            low = rest & -rest
            found.append((low.bit_length() - 1, bool(self.values & low)))
            rest ^= low
        return tuple(found)


class Cover(list):
    """A DNF as the list of its implicants, with ``minimal`` and ``lower_bound``."""

    def __init__(self, implicants: Iterable[Implicant], minimal: bool, lower_bound: int):
        super().__init__(implicants)
        self.minimal = minimal
        self.lower_bound = lower_bound


def _check_deadline(deadline: float | None, stage: str, primes_found: int):
    if deadline is not None and time.monotonic() > deadline:
        raise MinimizationTimeout(stage, primes_found)


def _minimal_sets(family: Iterable[int]) -> list[int]:
    """The inclusion-minimal members of ``family`` (bitmasks), each once,
    fewest bits first: a member goes when a kept one lies inside it."""
    kept: list[int] = []
    for s in sorted(family, key=int.bit_count):
        for k in kept:
            if k | s == s:
                break
        else:
            kept.append(s)
    return kept


def _minimal_transversals(
    edges: list[int], earlier: list[int], n_vars: int,
    deadline: float | None, primes_so_far: int,
) -> list[int]:
    """The minimal hitting sets of ``edges`` (variable bitmasks) that also hit
    every set in ``earlier``, by depth-first MMCS (Murakami & Uno, Discrete
    Applied Mathematics, 2014): a node branches on the uncovered edge with the
    fewest candidate variables and withholds each variable it has tried from
    its later siblings, so every minimal set is reached once.  A branch is cut
    when a chosen variable has no critical edge (none where it is the only
    chosen one; more variables never give it one back), or when its chosen and
    candidate variables together miss a set in ``earlier``.
    """
    found: list[int] = []
    # per variable, the edges holding it as bits by position; uncov and crit alike
    in_edges = [0] * n_vars
    for e, f in enumerate(edges):
        while f:
            in_edges[(f & -f).bit_length() - 1] |= 1 << e
            f &= f - 1

    def search(chosen: int, cand: int, uncov: int, crit: list[int]):
        _check_deadline(deadline, "prime generation", primes_so_far)
        reach = chosen | cand if uncov else chosen
        for d in earlier:
            if not d & reach:
                return
        if not uncov:
            found.append(chosen)
            return
        fewest = n_vars + 1  # the first edge of fewest candidates
        for f in select_bits(edges, uncov):
            if (f & cand).bit_count() < fewest:
                branch, fewest = f & cand, (f & cand).bit_count()
        cand &= ~branch
        while branch:
            bit = branch & -branch
            branch ^= bit
            holding = in_edges[bit.bit_length() - 1]
            kept = [c & ~holding for c in crit]
            if all(kept):
                kept.append(uncov & holding)
                search(chosen | bit, cand | branch, uncov & ~holding, kept)

    search(0, (1 << n_vars) - 1, (1 << len(edges)) - 1, [])  # every variable a candidate
    return found


def _prime_implicants(
    ones: Sequence[int], zeros: Sequence[int], deadline: float | None
) -> list[tuple[tuple, int, int, int]]:
    """All prime implicants touching the on-set, as (sort key, care mask,
    values, covered) records, both built in one pass over the literals: the key
    lists (variable, 0 if positive else 1) by ascending variable, and
    ``covered`` holds the positions in ``ones`` the prime covers, the AND of
    the ones agreeing with each literal.

    Each prime is generated once, from the first one it covers: the k-th one
    keeps only the care masks that hit its difference with every earlier one,
    so it covers none of them.  Both difference families enter the search as
    their inclusion-minimal members.
    """
    primes: list[tuple[tuple, int, int, int]] = []
    n_vars = max([*ones, *zeros], default=0).bit_length()
    everyone = (1 << len(ones)) - 1
    holding = [0] * n_vars  # per variable, the ones holding it, as bits by position
    for j, o in enumerate(ones):
        while o:
            holding[(o & -o).bit_length() - 1] |= 1 << j
            o &= o - 1
    # per variable, (literal, ones agreeing) for the negative and the positive literal
    agree = [(((v, 1), everyone ^ h), ((v, 0), h)) for v, h in enumerate(holding)]
    for k, m in enumerate(ones):
        edges = _minimal_sets([m ^ z for z in zeros])
        earlier = _minimal_sets([m ^ o for o in ones[:k]])
        for care in _minimal_transversals(edges, earlier, n_vars, deadline, len(primes)):
            key, covered, rest = [], everyone, care
            while rest:
                low = rest & -rest
                literal, agreeing = agree[low.bit_length() - 1][m & low != 0]
                key.append(literal)
                covered &= agreeing
                rest ^= low
            primes.append((tuple(key), care, m & care, covered))
    return primes


def _cover(
    masks: Sequence[int], keys: Sequence[tuple], deadline: float | None,
) -> tuple[list[int], bool, int]:
    """The best cover of every one by primes listed cheapest first by (literals,
    sort key ``keys[i]``), prime i covering the ones (bits) in ``masks[i]``: its
    primes in key order, whether it is proven, and a bound on its clauses.
    Covers rank by (clauses, literals, sorted sort keys)."""
    # rows[j]: the primes covering one j, each a column of the masks' binary digits
    width = reduce(or_, masks, 0).bit_length()
    digits = "".join([bin(mask | 1 << width)[3:] for mask in reversed(masks)])
    rows = [int(digits[c::width], 2) for c in reversed(range(width))]
    essential = reduce(or_, [a for a in rows if not a & (a - 1)], 0)  # lone primes
    forced = list(select_bits(range(len(masks)), essential))
    # the uncovered ones, in the order their first primes come
    live = sorted((j for j, a in enumerate(rows) if not a & essential),
                  key=lambda j: rows[j] & -rows[j])
    # the first incumbent: after the essential primes, greedy set cover picks the
    # first prime covering most; a gain on the heap is never below the gain now
    seed, left = list(forced), sum(1 << j for j in live)
    heap = [(-(mask & left).bit_count(), i) for i, mask in enumerate(masks) if mask & left]
    heapify(heap)
    while left:
        gain, i = heappop(heap)
        now = (masks[i] & left).bit_count()
        if now == -gain:
            seed.append(i)
            left &= ~masks[i]
        elif now:
            heappush(heap, (-now, i))
    open_primes, before = (1 << len(masks)) - 1, None
    while live and (len(live), open_primes) != before:  # cut to the cyclic core
        before = len(live), open_primes
        # a one goes if its primes hold a kept one's; a lone prime is essential
        first = {rows[j]: j for j in reversed(live)}
        kept = [first[a] for a in _minimal_sets([rows[j] for j in live])]
        forced += [rows[j].bit_length() - 1 for j in kept if not rows[j] & (rows[j] - 1)]
        live = [j for j in kept if rows[j] & (rows[j] - 1)]
        uncovered = sum(1 << j for j in live)
        seen = set()  # a prime goes if a cheaper open one covers all it does
        for i in select_bits(range(len(masks)), open_primes):
            hit = masks[i] & uncovered
            if hit in seen or reduce(and_, select_bits(rows, hit), open_primes) & ((1 << i) - 1):
                open_primes ^= 1 << i
            seen.add(hit)
        rows = [a & open_primes for a in rows]
    if not live:  # an empty core: the forced primes are the one best cover
        return sorted(forced, key=keys.__getitem__), True, len(forced)

    def rank(c: list[int]) -> tuple:
        return len(c), sum(len(keys[i]) for i in c), sorted(keys[i] for i in c)

    best = [rank(seed), seed]
    nodes = 0

    def search(rows: list[int], chosen: list[int], n_lits: int) -> int | None:
        nonlocal nodes
        nodes += 1
        if nodes > COVER_NODE_BUDGET:
            return None
        _check_deadline(deadline, "cover selection", len(masks))
        rows.sort(key=int.bit_count)
        # ones with pairwise disjoint open primes each need one, at least the cheapest
        used, clauses, literals = 0, len(chosen), n_lits
        for row in rows:
            if not used & row:
                used |= row
                clauses += 1
                literals += len(keys[(row & -row).bit_length() - 1])
        if (clauses, literals) > best[0][:2]:
            return clauses
        if not rows:
            best[:] = min(best, [rank(chosen), chosen])
            return clauses
        # branch on the fewest open primes, each closed to its later siblings
        closed = 0
        for i in sorted(select_bits(range(len(masks)), rows[0]),
                        key=lambda i: -sum(1 for r in rows if r >> i & 1)):
            search([r & ~closed for r in rows if not r >> i & 1], chosen + [i],
                   n_lits + len(keys[i]))
            closed |= 1 << i
        return clauses

    lower_bound = search([rows[j] for j in live], forced, sum(len(keys[i]) for i in forced))
    return sorted(best[1], key=keys.__getitem__), nodes <= COVER_NODE_BUDGET, lower_bound


def evaluate_dnf(implicants: Iterable[Implicant], minterm: int) -> bool:
    return any(imp.covers(minterm) for imp in implicants)


def minimize(
    ones: Iterable[int],
    zeros: Iterable[int],
    n_vars: int,
    *,
    deadline: float | None = None,
    max_vars: int = MAX_VARIABLES,
) -> Cover:
    """Minimum-cardinality DNF that is true on ``ones`` and false on ``zeros``.

    Assignments in neither set are don't-cares.  Ties are broken by fewest
    total literals, then lexicographically on the sorted implicants' literal
    tuples; identical inputs always yield the identical implicant list.  A cover
    search cut at ``COVER_NODE_BUDGET`` nodes leaves ``minimal`` False, with
    ``lower_bound`` clauses needed by every DNF (``mapex explain`` notes both).

    Raises MintermConflictError when the sets overlap, TooManyVariablesError
    when ``n_vars`` exceeds ``max_vars``, and MinimizationTimeout when the
    cooperative ``deadline`` (a ``time.monotonic()`` instant) passes.
    """
    ones, zeros = sorted(set(ones)), sorted(set(zeros))
    if n_vars > max_vars:
        raise TooManyVariablesError(n_vars, max_vars)
    limit = 1 << n_vars
    for m in ones + zeros:
        if m < 0 or m >= limit:
            raise ValueError(f"minterm {m} out of range for {n_vars} variables")
    overlap = set(ones) & set(zeros)
    if overlap:
        raise MintermConflictError(overlap)
    if ones and not zeros:  # true everywhere
        return Cover([Implicant(0, 0)], True, 1)

    primes = sorted(_prime_implicants(ones, zeros, deadline), key=lambda p: (len(p[0]), p[0]))
    chosen, minimal, lower_bound = _cover([p[3] for p in primes], [p[0] for p in primes],
                                          deadline)
    result = Cover([Implicant(*primes[i][1:3]) for i in chosen], minimal, lower_bound)

    for m in ones:
        if not evaluate_dnf(result, m):
            raise AssertionError(f"DNF misses one-minterm {m}")
    for z in zeros:
        if evaluate_dnf(result, z):
            raise AssertionError(f"DNF covers zero-minterm {z}")
    return result
