import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mapex
from mapex import boolmin, build_abstraction, get_domain, simulate
from mapex.boolmin import (
    Implicant,
    _minimal_sets,
    _prime_implicants,
    evaluate_dnf,
    minimize,
)
from mapex.errors import (
    MintermConflictError,
    MinimizationTimeout,
    TooManyVariablesError,
)
from mapex.query import Query, when_partition
from oracles import (
    cube_covers,
    dnf_truth,
    greedy_cover,
    literal_tuple,
    minimal_cover,
    prime_cubes,
)


def partitions(n_vars):
    """Every (ones, zeros) split of the full assignment space, with don't-cares."""
    space = range(1 << n_vars)
    for labels in product((0, 1, None), repeat=1 << n_vars):
        ones = [m for m in space if labels[m] == 1]
        zeros = [m for m in space if labels[m] == 0]
        yield ones, zeros


def coverage_sets(ones, zeros):
    """_prime_implicants as (care mask, values) -> the set of ones covered,
    checking that each record's sort key is its cube's literal tuple."""
    coverage = {}
    for key, care, values, covered in _prime_implicants(ones, zeros, None):
        assert key == literal_tuple((care, values)), (ones, zeros)
        coverage[care, values] = {m for j, m in enumerate(ones) if covered >> j & 1}
    return coverage


def random_problem(rng, n_vars, n_ones, n_zeros):
    space = rng.sample(range(1 << n_vars), n_ones + n_zeros)
    return sorted(space[:n_ones]), sorted(space[n_ones:])


def when_norf_problem(domain_id, episodes, agent, action):
    """(ones, zeros, n_vars) of a norf when query on a seed-42 model."""
    domain = get_domain(domain_id)
    m = build_abstraction(simulate(domain_id, episodes=episodes, seed=42), domain.schema)
    q = Query("when", (agent,), "norf", ((agent, action),))
    space, targets, nontargets = when_partition(q, m, domain)
    ones = {space.minterm(s, m.schema) for s in targets}
    zeros = {space.minterm(s, m.schema) for s in nontargets} - ones
    return sorted(ones), sorted(zeros), space.n_variables


def check_against_oracle(ones, zeros, n_vars):
    dnf = minimize(ones, zeros, n_vars)
    for m in ones:
        assert dnf_truth(dnf, m)
    for z in zeros:
        assert not dnf_truth(dnf, z)
    # the minimum cover that the documented tie-break singles out, proven so
    cubes = [(imp.care_mask, imp.values) for imp in dnf]
    assert cubes == minimal_cover(ones, zeros, n_vars), (ones, zeros)
    assert dnf.minimal and dnf.lower_bound <= len(dnf), (ones, zeros)
    return dnf


def cover_key(cubes):
    """(clauses, literals, sorted literal tuples) of (mask, values) cubes."""
    return (len(cubes), sum(bin(mask).count("1") for mask, _ in cubes),
            sorted(literal_tuple(c) for c in cubes))


class TestSmallFunctions:
    def test_and_function(self):
        dnf = minimize({0b11}, {0b00, 0b01, 0b10}, 2)
        assert dnf == [Implicant(0b11, 0b11)]

    def test_or_function(self):
        dnf = minimize({0b01, 0b10, 0b11}, {0b00}, 2)
        assert dnf == [Implicant(0b01, 0b01), Implicant(0b10, 0b10)]
        assert all(imp.care_mask.bit_count() == 1 for imp in dnf)

    def test_tautology_when_no_zeros(self):
        assert minimize({0b01}, set(), 2) == [Implicant(0, 0)]

    def test_empty_ones_is_false(self):
        assert minimize(set(), {0b00, 0b11}, 2) == []

    def test_dont_cares_merge(self):
        # ones {00}, zeros {11}: either single-literal cube works; cover size 1
        dnf = minimize({0b00}, {0b11}, 2)
        assert len(dnf) == 1
        assert dnf[0].care_mask.bit_count() == 1


class TestOracle:
    def test_exhaustive_v2(self):
        for ones, zeros in partitions(2):
            check_against_oracle(ones, zeros, 2)

    def test_random_v3(self):
        rng = random.Random(1234)
        cases = 0
        while cases < 220:
            labels = [rng.choice((0, 1, None)) for _ in range(8)]
            ones = [m for m in range(8) if labels[m] == 1]
            zeros = [m for m in range(8) if labels[m] == 0]
            check_against_oracle(ones, zeros, 3)
            cases += 1

    def test_random_v4(self):
        # four variables make ties on (clauses, literals) common enough to
        # pin the last tie-break on sorted literal tuples
        rng = random.Random(4321)
        for _ in range(150):
            labels = [rng.choice((0, 1, None)) for _ in range(16)]
            ones = [m for m in range(16) if labels[m] == 1]
            zeros = [m for m in range(16) if labels[m] == 0]
            check_against_oracle(ones, zeros, 4)

    def test_random_v5(self):
        # five variables give cyclic cores that need branching, and ties that
        # column dominance must break as the documented tie-break does
        rng = random.Random(5555)
        for _ in range(40):
            ones, zeros = random_problem(rng, 5, rng.randint(6, 12), rng.randint(6, 12))
            check_against_oracle(ones, zeros, 5)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_functional_correctness_random(self, n_vars, data):
        space = list(range(1 << n_vars))
        ones = data.draw(st.sets(st.sampled_from(space)))
        zeros = data.draw(st.sets(st.sampled_from(space))) - ones
        dnf = minimize(ones, zeros, n_vars)
        for m in ones:
            assert dnf_truth(dnf, m)
        for z in zeros:
            assert not dnf_truth(dnf, z)


class TestPrimeImplicants:
    def test_primes_and_coverage_match_oracle(self):
        rng = random.Random(2718)
        for _ in range(300):
            n_vars = rng.randint(2, 4)
            labels = [rng.choice((0, 1, None)) for _ in range(1 << n_vars)]
            ones = [m for m in range(1 << n_vars) if labels[m] == 1]
            zeros = [m for m in range(1 << n_vars) if labels[m] == 0]
            got = coverage_sets(ones, zeros)
            want = {c: {m for m in ones if cube_covers(c, m)}
                    for c in prime_cubes(ones, zeros, n_vars)}
            assert got == want, (n_vars, ones, zeros)

    def test_every_prime_of_a_wide_problem(self):
        # 13 disjoint difference pairs: one literal from each pair makes a
        # prime, 2**13 of them, all kept; each covers the only one, so the
        # answer is one of them, proven minimal: one clause of 13 literals
        zeros = [3 << 2 * i for i in range(13)]
        assert len(_prime_implicants([0], zeros, None)) == 2 ** 13
        dnf = minimize([0], zeros, 26, max_vars=26)
        assert dnf.minimal and len(dnf) == 1 and dnf[0].care_mask.bit_count() == 13
        assert dnf_truth(dnf, 0) and not any(dnf_truth(dnf, z) for z in zeros)


class TestLiterals:
    def test_set_bits_in_ascending_order(self):
        rng = random.Random(31)
        for _ in range(300):
            care = rng.getrandbits(rng.randint(0, 70))
            values = care & rng.getrandbits(70)
            imp = Implicant(care, values)
            want = tuple((v, bool(values >> v & 1))
                         for v in range(care.bit_length()) if care >> v & 1)
            assert imp.literals() == want
            assert literal_tuple((care, values)) == tuple((v, 0 if pol else 1)
                                                          for v, pol in want)


class TestMinimalSets:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=12))
    def test_matches_brute_force(self, family):
        # the members no other member lies strictly inside, each once
        want = {s for s in family if not any(t != s and t | s == s for t in family)}
        got = _minimal_sets(family)
        assert len(got) == len(set(got)) and set(got) == want
        assert [s.bit_count() for s in got] == sorted(s.bit_count() for s in got)


class TestEachPrimeOnce:
    @staticmethod
    def generated(monkeypatch, ones, zeros):
        """Every (care mask, values) pair the transversal search yields,
        across all ones, and the primes _prime_implicants returns."""
        found_per_one = []
        search = boolmin._minimal_transversals

        def spy(*args):
            found_per_one.append(search(*args))
            return found_per_one[-1]

        monkeypatch.setattr(boolmin, "_minimal_transversals", spy)
        primes = _prime_implicants(ones, zeros, None)
        assert len(found_per_one) == len(ones)
        made = [(care, m & care) for m, found in zip(ones, found_per_one)
                for care in found]
        return made, primes

    def test_random_problems(self, monkeypatch):
        rng = random.Random(1618)
        for _ in range(200):
            n_vars = rng.randint(2, 6)
            n_ones = rng.randint(1, 1 << (n_vars - 1))
            ones, zeros = random_problem(rng, n_vars, n_ones,
                                         rng.randint(1, (1 << n_vars) - n_ones))
            made, primes = self.generated(monkeypatch, ones, zeros)
            assert len(set(made)) == len(made) == len(primes), (ones, zeros)
            assert set(made) == {(care, values) for _, care, values, _ in primes}
            if n_vars <= 5:
                assert set(made) == set(prime_cubes(ones, zeros, n_vars))

    def test_lbf9_when_norf(self, monkeypatch):
        # 36 variables, 119 ones: re-generating a prime from every one it
        # covers would yield 5,476 transversals for these 1,007 primes
        ones, zeros, _ = when_norf_problem("lbf9", 50, "F_1", "collect_food_1")
        made, primes = self.generated(monkeypatch, ones, zeros)
        assert len(set(made)) == len(made) == len(primes) == 1007

    @staticmethod
    def small_problems():
        # two primes, !x0 and !x1, share the only one: no prime is essential
        yield [0], [3], 2
        rng = random.Random(2718)
        for _ in range(100):
            n_vars = rng.randint(2, 5)
            n_ones = rng.randint(1, 1 << (n_vars - 1))
            yield (*random_problem(rng, n_vars, n_ones,
                                   rng.randint(1, (1 << n_vars) - n_ones)), n_vars)

    def test_one_sort_key_per_prime(self, monkeypatch):
        # the cover search ranks covers by candidate positions; it derives no
        # sort key beyond the one the prime pass builds per prime
        records, calls = [], []
        prime_pass, cover = boolmin._prime_implicants, boolmin._cover

        def records_spy(*args):
            records[:] = prime_pass(*args)
            return records

        def cover_spy(masks, keys, deadline):
            calls.append(keys)
            return cover(masks, keys, deadline)

        monkeypatch.setattr(boolmin, "_prime_implicants", records_spy)
        monkeypatch.setattr(boolmin, "_cover", cover_spy)
        for ones, zeros, n_vars in self.small_problems():
            n_primes = len(_prime_implicants(ones, zeros, None))
            calls.clear()
            minimize(ones, zeros, n_vars)
            assert len(calls) == 1 and len(calls[0]) == n_primes, (ones, zeros)
            assert ({id(key) for key in calls[0]}
                    == {id(key) for key, *_ in records}), (ones, zeros)

    def test_implicants_only_for_the_cover(self, monkeypatch):
        # primes stay records until the cover is chosen: minimize makes one
        # Implicant per clause it returns
        made = []
        check = Implicant.__post_init__

        def spy(self):
            made.append(self)
            check(self)

        monkeypatch.setattr(Implicant, "__post_init__", spy)
        for ones, zeros, n_vars in self.small_problems():
            made.clear()
            result = minimize(ones, zeros, n_vars)
            assert len(made) == len(result), (ones, zeros)


class TestGreedyCover:
    @staticmethod
    def problems():
        """Wide problems whose covers may stay unproven, each with the
        essential primes plus the reference greedy cover of the rest (the
        reference re-derives every key at every pick)."""
        rng = random.Random(8128)
        for _ in range(20):
            n_vars = rng.choice((8, 9))
            ones, zeros = random_problem(rng, n_vars, rng.randint(60, 110),
                                         rng.randint(30, 70))
            coverage = coverage_sets(ones, zeros)
            n_covering = Counter(m for covered in coverage.values() for m in covered)
            essential = {c for c, covered in coverage.items()
                         if any(n_covering[m] == 1 for m in covered)}
            remaining = [m for m in ones
                         if not any(cube_covers(c, m) for c in essential)]
            candidates = sorted((c for c, covered in coverage.items()
                                 if not covered.isdisjoint(remaining)), key=literal_tuple)
            greedy = essential | set(greedy_cover(remaining, candidates, coverage))
            yield ones, zeros, n_vars, greedy

    def test_never_worse_than_reference_greedy(self):
        # greedy set cover after the essential primes seeds the search, so no
        # answer ranks below it
        for ones, zeros, n_vars, greedy in self.problems():
            got = minimize(ones, zeros, n_vars)
            assert all(dnf_truth(got, m) for m in ones)
            assert not any(dnf_truth(got, z) for z in zeros)
            assert cover_key([(p.care_mask, p.values) for p in got]) <= cover_key(greedy)
            assert got.lower_bound <= len(got), (ones, zeros)

    def test_incumbent_is_the_reference_greedy(self, monkeypatch):
        # one node: the search stops at its root, and each of these tables
        # has a cyclic core, so the answer is the incumbent itself: exactly
        # the essential primes plus the reference greedy picks
        monkeypatch.setattr(boolmin, "COVER_NODE_BUDGET", 1)
        for ones, zeros, n_vars, greedy in self.problems():
            got = minimize(ones, zeros, n_vars)
            assert not got.minimal, (ones, zeros)
            assert (sorted(((p.care_mask, p.values) for p in got), key=literal_tuple)
                    == sorted(greedy, key=literal_tuple)), (ones, zeros)


class TestExactCoverScale:
    def test_lbf4_when_norf_within_deadline(self):
        # 16 variables; enumerating every irredundant cover runs far past the
        # deadline here, while the search proves its cover minimal
        ones, zeros, n_vars = when_norf_problem("lbf4", 20, "F_1", "collect_food_1")
        dnf = minimize(ones, zeros, n_vars, deadline=time.monotonic() + 5)
        assert all(dnf_truth(dnf, o) for o in ones)
        assert not any(dnf_truth(dnf, z) for z in zeros)
        assert dnf.minimal

    def test_sr5_when_norf_is_proven_minimal(self):
        # 30 variables and 104 primes: the widest cover the budget must prove
        ones, zeros, n_vars = when_norf_problem("sr5", 100, "UAV", "rescue_victim")
        dnf = minimize(ones, zeros, n_vars, max_vars=64)
        assert dnf.minimal and len(dnf) == 10 and dnf.lower_bound <= 10

    def test_lbf9_when_norf_is_bounded(self):
        # 36 variables, 1,007 primes: greedy cover gives 20 clauses and 92
        # literals; the budgeted search may not close, and then says so
        ones, zeros, n_vars = when_norf_problem("lbf9", 50, "F_1", "collect_food_1")
        dnf = minimize(ones, zeros, n_vars, max_vars=64)
        assert (len(dnf), sum(p.care_mask.bit_count() for p in dnf)) <= (20, 92)
        assert dnf.lower_bound <= len(dnf)

    def test_node_budget_marks_unproven_covers(self, monkeypatch):
        # the cyclic function of ones {0, 1, 2, 5, 6, 7}: no essential prime,
        # no dominance, so the search must branch to prove its cover
        ones, zeros = [0, 1, 2, 5, 6, 7], [3, 4]
        proven = minimize(ones, zeros, 3)
        assert proven.minimal and len(proven) == proven.lower_bound == 3
        # one node: the search stops at the root, on the greedy incumbent
        monkeypatch.setattr(boolmin, "COVER_NODE_BUDGET", 1)
        cut = minimize(ones, zeros, 3)
        assert not cut.minimal and cut.lower_bound == 3 and len(cut) == 4
        assert all(dnf_truth(cut, m) for m in ones)


# The four wide when norf answers of the benchmark's explain workload (seed 42):
# the (care mask, values) cubes, whether proven minimal, and the clause bound.
WIDE_WHEN_NORF = {
    ("lbf9", 50, "F_1", "collect_food_1"): (
        [(1, 1), (22548844562, 262144), (16402, 0), (4456466, 4194304),
         (1346388226, 1077952512), (21764785154, 0), (39728791554, 0),
         (17247241488, 262160), (18258067728, 4456464), (4299182096, 16400),
         (17184079888, 17184079888), (21546139664, 21474836496), (4295229712, 256),
         (1074020672, 278784), (4295033856, 4295033856), (17184343040, 4194304),
         (268500992, 268500992), (34645016576, 34359738368),
         (22552772608, 5368709120), (285212672, 285212672)],
        False, 17),
    ("sr5", 100, "UAV", "rescue_victim"): (
        [(1, 1), (536876034, 0), (327682, 65536), (268435458, 268435456),
         (131136, 131136), (136256, 4096), (16782336, 16782336), (328704, 263168),
         (4198400, 4198400), (20971520, 20971520)],
        True, 9),
    ("sr4", 30, "UAV", "rescue_victim"): (
        [(1, 1), (66562, 1024), (66562, 65536), (262146, 0)],
        True, 4),
    ("lbf4", 50, "F_1", "collect_food_1"): (
        [(1, 1), (322, 0), (4368, 272), (20480, 4096), (32768, 32768)],
        True, 5),
}


class TestWideWhenNorfPinned:
    @pytest.mark.parametrize("problem", list(WIDE_WHEN_NORF),
                             ids=lambda p: f"{p[0]}@{p[1]}")
    def test_cover_bytes(self, problem):
        cubes, minimal, lower_bound = WIDE_WHEN_NORF[problem]
        dnf = minimize(*when_norf_problem(*problem), max_vars=64)
        assert [(imp.care_mask, imp.values) for imp in dnf] == cubes
        assert (dnf.minimal, dnf.lower_bound) == (minimal, lower_bound)


class TestPrimality:
    def test_dropping_any_literal_covers_a_zero(self):
        rng = random.Random(99)
        for _ in range(60):
            labels = [rng.choice((0, 1, None)) for _ in range(16)]
            ones = [m for m in range(16) if labels[m] == 1]
            zeros = [m for m in range(16) if labels[m] == 0]
            if not ones or not zeros:
                continue
            for imp in minimize(ones, zeros, 4):
                for v, _ in imp.literals():
                    weakened_mask = imp.care_mask & ~(1 << v)
                    weakened = (weakened_mask, imp.values & weakened_mask)
                    assert any(
                        (z & weakened[0]) == weakened[1] for z in zeros
                    ), "dropping a literal should cover some zero"


class TestDeterminism:
    def test_identical_inputs_identical_output(self):
        rng = random.Random(7)
        for _ in range(20):
            ones = set(rng.sample(range(32), 6))
            zeros = set(rng.sample(range(32), 6)) - ones
            first = minimize(ones, zeros, 5)
            second = minimize(set(reversed(sorted(ones))), zeros, 5)
            assert first == second

    def test_clause_order_is_canonical(self):
        dnf = minimize({0b01, 0b10, 0b11}, {0b00}, 2)
        keys = [literal_tuple((imp.care_mask, imp.values)) for imp in dnf]
        assert keys == sorted(keys)


class TestGuardrails:
    def test_conflict_error_lists_offenders(self):
        with pytest.raises(MintermConflictError) as exc:
            minimize({1, 2}, {2, 3}, 2)
        assert exc.value.offenders == (2,)

    def test_variable_guardrail(self):
        with pytest.raises(TooManyVariablesError) as exc:
            minimize({0}, {1}, 25)
        assert "withrf" in str(exc.value).lower()
        assert exc.value.n_vars == 25

    def test_guardrail_is_configurable(self):
        assert minimize({0}, {1}, 25, max_vars=30)

    def test_cooperative_timeout(self):
        ones = set(range(0, 64, 2))
        zeros = set(range(1, 64, 2))
        with pytest.raises(MinimizationTimeout) as exc:
            minimize(ones, zeros, 6, deadline=time.monotonic() - 1.0)
        assert exc.value.primes_found >= 0

    def test_out_of_range_minterm(self):
        with pytest.raises(ValueError):
            minimize({4}, set(), 2)

    def test_soundness_check_survives_optimize(self):
        # a broken prime generator must not slip an unsound DNF past the
        # final check, even with assert statements compiled out
        code = (
            "from mapex import boolmin\n"
            "boolmin._prime_implicants = lambda ones, zeros, deadline: "
            "[((), 0, 0, (1 << len(ones)) - 1)]\n"
            "try:\n"
            "    boolmin.minimize([0], [1], 1)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(mapex.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src),
                             timeout=60)
        assert run.stdout == "DNF covers zero-minterm 1\n", run.stderr

    def test_implicant_invariant(self):
        with pytest.raises(ValueError):
            Implicant(0b01, 0b10)


class TestEvaluate:
    def test_evaluate_dnf_matches_cover(self):
        dnf = minimize({0b101, 0b111}, {0b000, 0b010}, 3)
        for m in range(8):
            assert evaluate_dnf(dnf, m) == dnf_truth(dnf, m)
