"""Exact two-level Boolean minimization over minterms with implicit don't-cares.

``minimize`` receives the on-set and off-set as integer minterms; every
assignment in neither set is a don't-care the minimizer may absorb.  Prime
implicants are generated per on-set minterm as the minimal hitting sets of its
difference sets against the off-set (a cube keeping exactly the variables in a
hitting set excludes every zero and cannot drop a variable, i.e. is prime).
They are enumerated depth-first over variable bitmasks (MMCS with the
critical-edge check), all of them with no cap, and each exactly once across
all ones: a prime is generated only from the first one it covers.
The essential primes (each the sole cover of some one) are taken first; the
minimum cover of the remaining ones is then found exactly by depth-first
branch and bound, falling back to greedy set cover with a logged warning when
more candidate primes remain than the exact-cover limit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MintermConflictError, MinimizationTimeout, TooManyVariablesError

log = logging.getLogger(__name__)

# Guardrail: problems wider than this are refused outright; the relevancy
# filter is the intended way to stay under it.
MAX_VARIABLES = 24

# Above this many candidate primes the exact branch-and-bound cover is
# replaced by greedy set cover (non-optimality logged).
EXACT_COVER_LIMIT = 64


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

    @property
    def n_literals(self) -> int:
        return bin(self.care_mask).count("1")

    def literals(self) -> tuple[tuple[int, bool], ...]:
        """(variable index, polarity) pairs in ascending variable order."""
        return tuple(
            (v, bool(self.values >> v & 1))
            for v in range(self.care_mask.bit_length())
            if self.care_mask >> v & 1
        )

    def sort_key(self) -> tuple:
        return tuple((v, 0 if pol else 1) for v, pol in self.literals())


def _check_deadline(deadline: float | None, stage: str, primes_found: int):
    if deadline is not None and time.monotonic() > deadline:
        raise MinimizationTimeout(stage, primes_found)


def _minimal_transversals(
    edges: set[int], apart: Sequence[int], earlier: int,
    deadline: float | None, primes_so_far: int,
) -> list[int]:
    """The minimal hitting sets of ``edges`` (variable bitmasks) that also
    hit every earlier difference, as bitmasks.

    ``apart[v]`` is the set (a bitmask over their positions) of the earlier
    ones that differ from this one in variable ``v``, and ``earlier`` is the
    set of all of them; a set of variables hits every earlier difference when
    the ``apart`` sets of its variables together make up ``earlier``.

    Depth-first MMCS (Murakami & Uno, Discrete Applied Mathematics, 2014): a
    node branches on the uncovered edge with the fewest candidate variables
    and withholds each variable it has tried from its later siblings, so every
    minimal set is reached once.  A branch is cut as soon as some chosen
    variable is the only chosen one in no edge (has no critical edge): adding
    variables never gives it one back, so no minimal set lies below.  It is
    also cut when its chosen and candidate variables together miss some
    earlier difference, since every set below lies inside them.
    """
    found: list[int] = []

    def hits_all_earlier(variables: int) -> bool:
        reached = 0
        while variables and reached != earlier:
            low = variables & -variables
            reached |= apart[low.bit_length() - 1]
            variables ^= low
        return reached == earlier

    def search(chosen: int, cand: int, uncov: list[int], crit: list[list[int]]):
        _check_deadline(deadline, "prime generation", primes_so_far)
        if not uncov:
            if hits_all_earlier(chosen):
                found.append(chosen)
            return
        if not hits_all_earlier(chosen | cand):
            return
        branch = cand & min(uncov, key=lambda f: (f & cand).bit_count())
        cand &= ~branch
        while branch:
            bit = branch & -branch
            branch ^= bit
            kept = [[f for f in fs if not f & bit] for fs in crit]
            if all(kept):
                hit = [f for f in uncov if f & bit]
                search(chosen | bit, cand | branch,
                       [f for f in uncov if not f & bit], kept + [hit])

    search(0, (1 << len(apart)) - 1, list(edges), [])  # every variable a candidate
    return found


def _prime_implicants(
    ones: Sequence[int], zeros: Sequence[int], deadline: float | None
) -> dict[Implicant, set[int]]:
    """All prime implicants touching the on-set, mapped to the ones they cover.

    Each prime is generated once, from the first one it covers: the k-th one
    keeps only the care masks that hit its difference with every earlier one,
    so it covers none of them and only later ones need checking.
    """
    primes: dict[Implicant, set[int]] = {}
    n_vars = max([*ones, *zeros], default=0).bit_length()
    set_by = [0] * n_vars  # set_by[v]: earlier ones (bits by position) with v set
    for k, m in enumerate(ones):
        earlier = (1 << k) - 1
        apart = [earlier & ~s if m >> v & 1 else s for v, s in enumerate(set_by)]
        later = ones[k:]
        for care in _minimal_transversals(
            {m ^ z for z in zeros}, apart, earlier, deadline, len(primes)
        ):
            values = m & care
            primes[Implicant(care, values)] = {o for o in later if o & care == values}
        for v in range(n_vars):
            if m >> v & 1:
                set_by[v] |= 1 << k
    return primes


def _exact_cover(
    uncovered: int, candidates: list[tuple[int, Implicant]], deadline: float | None,
) -> list[Implicant]:
    """Minimum cover of the ``uncovered`` bitmask by depth-first branch and
    bound over (coverage mask, prime) ``candidates`` listed in sort-key order.

    Covers rank by (clause count, total literals, sorted candidate positions);
    the sort keys are distinct, so positions order covers as their sorted
    literal tuples do.  A node branches on the uncovered one with the fewest
    open primes, and closes each prime to its siblings once its own branch is
    searched, so no cover is reached twice.  A node is cut when its lower
    bound on (clauses, literals) is already worse than the best cover:
    uncovered ones whose open primes are pairwise disjoint each need a prime
    of their own.
    """
    masks = [mask for mask, _ in candidates]
    lits = [p.n_literals for _, p in candidates]
    ones = [1 << j for j in range(uncovered.bit_length()) if uncovered >> j & 1]
    best: list = [(math.inf,), []]  # [cover key, chosen candidate positions]

    def search(covered: int, chosen: list[int], n_lits: int, closed: int) -> None:
        _check_deadline(deadline, "cover selection", len(candidates))
        open_sets = sorted(
            ([i for i, mask in enumerate(masks) if mask & one and not closed >> i & 1]
             for one in ones if not covered & one),
            key=len,
        )
        if not open_sets:
            key = (len(chosen), n_lits, sorted(chosen))
            if key < best[0]:
                best[:] = [key, list(chosen)]
            return
        if not open_sets[0]:
            return
        used, bound = 0, (len(chosen), n_lits)
        for avail in open_sets:
            avail_mask = sum(1 << i for i in avail)
            if not used & avail_mask:
                used |= avail_mask
                bound = (bound[0] + 1, bound[1] + min(lits[i] for i in avail))
        if bound > best[0][:2]:
            return
        for i in sorted(open_sets[0], key=lambda i: -(masks[i] & ~covered).bit_count()):
            chosen.append(i)
            search(covered | masks[i], chosen, n_lits + lits[i], closed)
            chosen.pop()
            closed |= 1 << i

    search(~uncovered, [], 0, 0)  # ones outside ``uncovered`` count as covered
    return [candidates[i][1] for i in best[1]]


def _greedy_cover(uncovered: int, candidates: list[tuple[int, Implicant]]) -> list[Implicant]:
    """Greedy set cover of the ``uncovered`` bitmask by (coverage mask, prime)
    ``candidates`` listed by (literals, sort key): each pick takes the most
    uncovered ones, the earliest listed prime among equals."""
    log.warning(
        "prime implicant count %d exceeds exact-cover limit %d; "
        "falling back to greedy set cover (result may be non-minimal)",
        len(candidates), EXACT_COVER_LIMIT,
    )
    chosen: list[Implicant] = []
    while uncovered:
        mask, best = max(candidates, key=lambda c: (c[0] & uncovered).bit_count())
        if not mask & uncovered:
            raise AssertionError("greedy cover stalled; uncovered ones remain")
        chosen.append(best)
        uncovered &= ~mask
    return chosen


def evaluate_dnf(implicants: Iterable[Implicant], minterm: int) -> bool:
    return any(imp.covers(minterm) for imp in implicants)


def minimize(
    ones: Iterable[int],
    zeros: Iterable[int],
    n_vars: int,
    *,
    deadline: float | None = None,
    max_vars: int = MAX_VARIABLES,
) -> list[Implicant]:
    """Minimum-cardinality DNF that is true on ``ones`` and false on ``zeros``.

    Assignments in neither set are don't-cares.  Ties are broken by fewest
    total literals, then lexicographically on the sorted implicants' literal
    tuples; identical inputs always yield the identical implicant list.  The
    cover is exact unless more than ``EXACT_COVER_LIMIT`` candidate primes
    remain after the essential ones, when greedy set cover takes over.

    Raises MintermConflictError when the sets overlap, TooManyVariablesError
    when ``n_vars`` exceeds ``max_vars``, and MinimizationTimeout when the
    cooperative ``deadline`` (a ``time.monotonic()`` instant) passes.
    """
    ones = sorted(set(ones))
    zeros = sorted(set(zeros))
    if n_vars > max_vars:
        raise TooManyVariablesError(n_vars, max_vars)
    limit = 1 << n_vars
    for m in ones + zeros:
        if m < 0 or m >= limit:
            raise ValueError(f"minterm {m} out of range for {n_vars} variables")
    overlap = set(ones) & set(zeros)
    if overlap:
        raise MintermConflictError(overlap)

    if not ones:
        return []
    if not zeros:
        return [Implicant(0, 0)]

    coverage = _prime_implicants(ones, zeros, deadline)
    keys = {p: p.sort_key() for p in coverage}
    primes = sorted(coverage, key=keys.__getitem__)
    bit = {m: 1 << i for i, m in enumerate(ones)}
    masks = [sum(bit[m] for m in coverage[p]) for p in primes]

    # essential primes: the sole prime covering some one
    once = twice = 0
    for mask in masks:
        twice |= once & mask
        once |= mask
    sole = once & ~twice
    chosen: set[Implicant] = set()
    uncovered = (1 << len(ones)) - 1
    for p, mask in zip(primes, masks):
        if mask & sole:
            chosen.add(p)
            uncovered &= ~mask

    if uncovered:
        candidates = [(mask, p) for p, mask in zip(primes, masks) if mask & uncovered]
        if len(candidates) <= EXACT_COVER_LIMIT:
            chosen.update(_exact_cover(uncovered, candidates, deadline))
        else:
            candidates.sort(key=lambda c: c[1].n_literals)  # stable: sort keys tie-break
            chosen.update(_greedy_cover(uncovered, candidates))

    result = sorted(chosen, key=keys.__getitem__)

    for m in ones:
        if not evaluate_dnf(result, m):
            raise AssertionError(f"DNF misses one-minterm {m}")
    for z in zeros:
        if evaluate_dnf(result, z):
            raise AssertionError(f"DNF covers zero-minterm {z}")
    return result
