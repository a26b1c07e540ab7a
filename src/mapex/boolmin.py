"""Two-level Boolean minimization over minterms with implicit don't-cares.

``minimize`` receives the on-set and off-set as integer minterms; every
assignment in neither set is a don't-care the minimizer may absorb.  Prime
implicants are generated per on-set minterm as the minimal hitting sets of its
difference sets against the off-set (a cube keeping exactly the variables in a
hitting set excludes every zero and cannot drop a variable, i.e. is prime).
They are enumerated depth-first over variable bitmasks (MMCS with the
critical-edge check), all of them with no cap, and each exactly once across
all ones: a prime is generated only from the first one it covers.

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
from typing import Iterable, Iterator, Sequence

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


class Cover(list):
    """A DNF as the list of its implicants, with ``minimal`` and ``lower_bound``."""

    def __init__(self, implicants: Iterable[Implicant], minimal: bool, lower_bound: int):
        super().__init__(implicants)
        self.minimal = minimal
        self.lower_bound = lower_bound


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


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first, each as a power of two."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _cover(
    primes: list[Implicant], masks: list[int], keys: list[tuple], deadline: float | None,
) -> Cover:
    """The best cover of every one by ``primes``, listed cheapest first by
    (literals, sort key ``keys[i]``); ``masks[i]`` is the set of ones (bits)
    ``primes[i]`` covers.  Covers rank by (clauses, literals, sorted sort keys)."""
    rows: dict[int, int] = {}  # uncovered one (a bit) -> the open primes covering it
    for i, mask in enumerate(masks):
        for one in _bits(mask):
            rows[one] = rows.get(one, 0) | 1 << i
    essential = sum(a for a in set(rows.values()) if not a & (a - 1))  # lone primes
    forced = [p.bit_length() - 1 for p in _bits(essential)]
    rows = {one: avail for one, avail in rows.items() if not avail & essential}
    # the first incumbent: greedy set cover after the essential primes
    seed, left = list(forced), sum(rows)
    while left:
        seed.append(max(range(len(masks)), key=lambda i: (masks[i] & left).bit_count()))
        left &= ~masks[seed[-1]]
    open_primes = (1 << len(masks)) - 1
    before = None
    while rows and (len(rows), open_primes) != before:  # cut to the cyclic core
        before = len(rows), open_primes
        kept: dict[int, int] = {}  # a one goes if its primes hold a kept one's
        for one in sorted(rows, key=lambda one: rows[one].bit_count()):
            if all(a & ~rows[one] for a in kept.values()):
                kept[one] = rows[one]
        for one in [one for one, a in kept.items() if not a & (a - 1)]:
            forced.append(kept.pop(one).bit_length() - 1)  # an essential prime
        rows, uncovered = kept, sum(kept)
        for p in _bits(open_primes):  # a prime goes if a cheaper one covers all it does
            live = list(_bits(masks[p.bit_length() - 1] & uncovered))
            if reduce(int.__and__, [rows[one] for one in live], open_primes) & (p - 1):
                open_primes ^= p
                for one in live:
                    rows[one] ^= p
    if not rows:  # an empty core: the forced primes are the one best cover
        return Cover([primes[i] for i in sorted(forced, key=keys.__getitem__)],
                     True, len(forced))

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
        for p in sorted(_bits(rows[0]), key=lambda p: -sum(1 for r in rows if r & p)):
            i = p.bit_length() - 1
            search([r & ~closed for r in rows if not r & p], chosen + [i],
                   n_lits + len(keys[i]))
            closed |= p
        return clauses

    lower_bound = search(list(rows.values()), forced, sum(len(keys[i]) for i in forced))
    return Cover([primes[i] for i in sorted(best[1], key=keys.__getitem__)],
                 nodes <= COVER_NODE_BUDGET, lower_bound)


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
    if ones and not zeros:  # true everywhere
        return Cover([Implicant(0, 0)], True, 1)

    coverage = _prime_implicants(ones, zeros, deadline)
    keys = {p: p.sort_key() for p in coverage}
    primes = sorted(coverage, key=lambda p: (len(keys[p]), keys[p]))
    bit = {m: 1 << i for i, m in enumerate(ones)}
    result = _cover(primes, [sum(bit[m] for m in coverage[p]) for p in primes],
                    [keys[p] for p in primes], deadline)

    for m in ones:
        if not evaluate_dnf(result, m):
            raise AssertionError(f"DNF misses one-minterm {m}")
    for z in zeros:
        if evaluate_dnf(result, z):
            raise AssertionError(f"DNF covers zero-minterm {z}")
    return result
