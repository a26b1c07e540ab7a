import logging
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
        assert all(imp.n_literals == 1 for imp in dnf)

    def test_tautology_when_no_zeros(self):
        assert minimize({0b01}, set(), 2) == [Implicant(0, 0)]

    def test_empty_ones_is_false(self):
        assert minimize(set(), {0b00, 0b11}, 2) == []

    def test_dont_cares_merge(self):
        # ones {00}, zeros {11}: either single-literal cube works; cover size 1
        dnf = minimize({0b00}, {0b11}, 2)
        assert len(dnf) == 1
        assert dnf[0].n_literals == 1


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
            got = {(p.care_mask, p.values): covered
                   for p, covered in _prime_implicants(ones, zeros, None).items()}
            want = {c: {m for m in ones if cube_covers(c, m)}
                    for c in prime_cubes(ones, zeros, n_vars)}
            assert got == want, (n_vars, ones, zeros)

    def test_every_prime_of_a_wide_problem(self, caplog):
        # 13 disjoint difference pairs: one literal from each pair makes a
        # prime, 2**13 of them, all kept and none dropped with a warning
        zeros = [3 << 2 * i for i in range(13)]
        with caplog.at_level(logging.WARNING, logger="mapex.boolmin"):
            assert len(_prime_implicants([0], zeros, None)) == 2 ** 13
            dnf = minimize([0], zeros, 26, max_vars=26)
        assert not any("capped" in r.getMessage() for r in caplog.records)
        assert dnf_truth(dnf, 0) and not any(dnf_truth(dnf, z) for z in zeros)


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
            assert set(made) == {(p.care_mask, p.values) for p in primes}
            if n_vars <= 5:
                assert set(made) == set(prime_cubes(ones, zeros, n_vars))

    def test_lbf9_when_norf(self, monkeypatch):
        # 36 variables, 119 ones: re-generating a prime from every one it
        # covers would yield 5,476 transversals for these 1,007 primes
        ones, zeros, _ = when_norf_problem("lbf9", 50, "F_1", "collect_food_1")
        made, primes = self.generated(monkeypatch, ones, zeros)
        assert len(set(made)) == len(made) == len(primes) == 1007

    def test_one_sort_key_per_prime(self, monkeypatch):
        # the cover search ranks covers by candidate positions; it derives no
        # sort key beyond the one minimize takes per prime
        calls = []
        sort_key = Implicant.sort_key

        def spy(self):
            calls.append(self)
            return sort_key(self)

        monkeypatch.setattr(Implicant, "sort_key", spy)
        # two primes, !x0 and !x1, share the only one: no prime is essential
        problems = [([0], [3], 2)]
        rng = random.Random(2718)
        for _ in range(100):
            n_vars = rng.randint(2, 5)
            n_ones = rng.randint(1, 1 << (n_vars - 1))
            problems.append((*random_problem(rng, n_vars, n_ones,
                                             rng.randint(1, (1 << n_vars) - n_ones)),
                             n_vars))
        for ones, zeros, n_vars in problems:
            n_primes = len(_prime_implicants(ones, zeros, None))
            calls.clear()
            minimize(ones, zeros, n_vars)
            assert len(calls) == n_primes, (ones, zeros)


class TestGreedyCover:
    def test_never_worse_than_reference_greedy(self):
        # wide problems whose covers may stay unproven: greedy set cover after
        # the essential primes seeds the search, so no answer ranks below it;
        # the reference re-derives every key at every pick
        rng = random.Random(8128)
        for _ in range(20):
            n_vars = rng.choice((8, 9))
            ones, zeros = random_problem(rng, n_vars, rng.randint(60, 110),
                                         rng.randint(30, 70))
            coverage = {(p.care_mask, p.values): covered
                        for p, covered in _prime_implicants(ones, zeros, None).items()}
            n_covering = Counter(m for covered in coverage.values() for m in covered)
            essential = {c for c, covered in coverage.items()
                         if any(n_covering[m] == 1 for m in covered)}
            remaining = [m for m in ones
                         if not any(cube_covers(c, m) for c in essential)]
            candidates = sorted((c for c, covered in coverage.items()
                                 if not covered.isdisjoint(remaining)), key=literal_tuple)
            greedy = essential | set(greedy_cover(remaining, candidates, coverage))
            got = minimize(ones, zeros, n_vars)
            assert all(dnf_truth(got, m) for m in ones)
            assert not any(dnf_truth(got, z) for z in zeros)
            assert cover_key([(p.care_mask, p.values) for p in got]) <= cover_key(greedy)
            assert got.lower_bound <= len(got), (ones, zeros)


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
        assert (len(dnf), sum(p.n_literals for p in dnf)) <= (20, 92)
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
        keys = [imp.sort_key() for imp in dnf]
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
            "{boolmin.Implicant(0, 0): set(ones)}\n"
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
