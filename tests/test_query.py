import gc
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mapex
import oracles
from mapex import (
    ActionPhrases,
    AgentSpec,
    DomainDefinition,
    PolicyAbstraction,
    build_abstraction,
    get_domain,
    query,
    simulate,
    variable_index,
)
from mapex.cli import _bench_queries
from mapex.domain import RelevanceEntry, RelevanceKnowledge
from mapex.envs import domain_ids
from mapex.query import (
    Query,
    answer,
    answer_what,
    answer_when,
    answer_whynot,
    compatible,
    partition,
    relevancy_filter,
    when_partition,
)
from mapex.errors import (
    ContradictionNotice,
    DomainFormatError,
    PreconditionError,
    TooManyVariablesError,
    UnknownStateError,
)
from synth import plain_schema, random_layered_abstraction

RESCUE = "rescue_victim"
REMOVE = "remove_obstacle"
FIGHT = "fight_fire"


def when_query(agent, action, method):
    return Query(kind="when", agents=(agent,), method=method,
                 actions=((agent, action),))


class TestRelevancyFilter:
    def test_uav_rescue_worked_example(self, sr3_domain):
        g, f, sets = relevancy_filter(
            [("UAV", RESCUE)], sr3_domain.relevance
        )
        assert g == {"UAV", "UGV_1", "UGV_2"}
        assert f == {"victim_detect", "victim_complete"}
        assert set(sets) == {
            frozenset({("UAV", RESCUE), ("UGV_1", RESCUE)}),
            frozenset({("UAV", RESCUE), ("UGV_2", RESCUE)}),
        }

    def test_solo_task(self, sr3_domain):
        g, f, sets = relevancy_filter([("UAV", FIGHT)], sr3_domain.relevance)
        assert g == {"UAV"}
        assert sets == (frozenset({("UAV", FIGHT)}),)

    def test_empty_query(self, sr3_domain):
        g, f, sets = relevancy_filter([], sr3_domain.relevance)
        assert g == frozenset() and f == frozenset() and sets == ()

    def test_union_over_multiple_actions(self, sr3_domain):
        g, f, sets = relevancy_filter(
            [("UGV_1", REMOVE), ("UGV_2", REMOVE)], sr3_domain.relevance
        )
        assert g == {"UGV_1", "UGV_2"}
        assert f == {"obstacle_detect", "obstacle_complete"}
        assert sets == (
            frozenset({("UGV_1", REMOVE), ("UGV_2", REMOVE)}),
        )


class TestCompatible:
    def test_norf_containment(self, sr3_domain):
        action = (RESCUE, RESCUE, "move")
        assert compatible(action, frozenset({("UAV", RESCUE)}), sr3_domain)

    def test_withrf_requires_a_full_set(self, sr3_domain):
        sets = [
            frozenset({("UAV", RESCUE), ("UGV_1", RESCUE)}),
            frozenset({("UAV", RESCUE), ("UGV_2", RESCUE)}),
        ]
        assert not compatible((RESCUE, "move", "move"), sets, sr3_domain)
        assert compatible((RESCUE, "move", RESCUE), sets, sr3_domain)

    def test_empty_requirement_is_vacuous(self, sr3_domain):
        assert compatible(("move", "move", "move"), frozenset(), sr3_domain)
        assert not compatible(("move", "move", "move"), [], sr3_domain)

    def test_every_alternative_named_before_any_is_tested(self, sr3_domain):
        # the first alternative matches, yet the unknown agent of the second
        # is still refused
        sets = [frozenset({("UAV", RESCUE)}), frozenset({("UGV_9", RESCUE)})]
        with pytest.raises(DomainFormatError, match=r"^unknown agent 'UGV_9'$"):
            compatible((RESCUE, "move", "move"), sets, sr3_domain)

    def test_builds_no_agent_id(self, sr3_domain, monkeypatch):
        # names resolve to positions through the domain's own index, so the
        # per-pair check makes no AgentId record
        def agent_id(*args):
            raise AssertionError(f"AgentId{args} built")

        monkeypatch.setattr(mapex.domain, "AgentId", agent_id)
        sets = [frozenset({("UAV", RESCUE), ("UGV_1", RESCUE)}),
                frozenset({("UAV", RESCUE), ("UGV_2", RESCUE)})]
        assert [set(alt) for alt in query._compile(sets, sr3_domain)] == [
            {(0, RESCUE), (1, RESCUE)}, {(0, RESCUE), (2, RESCUE)}]
        assert compatible((RESCUE, "move", RESCUE), sets, sr3_domain)
        assert not compatible((RESCUE, RESCUE, "move"), frozenset({("UGV_2", RESCUE)}),
                              sr3_domain)

    @pytest.mark.parametrize("domain_id", domain_ids())
    def test_agrees_with_partition_targets(self, domain_id):
        # the per-action check and the bit-mask partition are two statements
        # of one criterion: the states with a compatible enabled action are
        # exactly the partition's targets, under both methods
        domain = get_domain(domain_id)
        m = build_abstraction(simulate(domain_id, episodes=30, seed=42), domain.schema)
        sets = []
        for _, entry in sorted(domain.relevance.entries.items()):
            if entry.features:
                sets += [s for s in entry.action_sets if s not in sets]
        assert sets
        for pairs in sets:
            for criterion in (pairs, relevancy_filter(pairs, domain.relevance)[2]):
                expected = {s for s in m.states
                            if any(compatible(a, criterion, domain)
                                   for a in m.enabled_actions(s))}
                assert partition(criterion, m, domain)[0] == expected


class TestAnswerWhen:
    def test_sr3_withrf_dnf(self, sr3_domain, sr3_abstraction):
        answer = answer_when(
            when_query("UAV", RESCUE, "withrf"), sr3_abstraction, sr3_domain
        )
        uav = sr3_domain.agent_id("UAV")
        ugv1 = sr3_domain.agent_id("UGV_1")
        ugv2 = sr3_domain.agent_id("UGV_2")
        assert answer.dnf.clauses == (
            frozenset({(uav, "victim_detect", True), (ugv1, "victim_detect", True)}),
            frozenset({(uav, "victim_detect", True), (ugv2, "victim_detect", True)}),
        )

    def test_withrf_target_subset_of_norf(self, sr3_domain, sr3_abstraction):
        cases = [("UAV", RESCUE), ("UGV_1", REMOVE), ("UAV", FIGHT),
                 ("UGV_2", RESCUE)]
        for agent, action in cases:
            norf = answer_when(when_query(agent, action, "norf"),
                               sr3_abstraction, sr3_domain)
            withrf = answer_when(when_query(agent, action, "withrf"),
                                 sr3_abstraction, sr3_domain)
            assert withrf.target_states <= norf.target_states
            assert withrf.space.n_variables <= norf.space.n_variables

    def test_withrf_literals_scoped_to_relevance(self, sr3_domain, sr3_abstraction):
        answer = answer_when(
            when_query("UAV", RESCUE, "withrf"), sr3_abstraction, sr3_domain
        )
        g, f, _ = relevancy_filter([("UAV", RESCUE)], sr3_domain.relevance)
        for clause in answer.dnf.clauses:
            for agent, pred, _ in clause:
                assert agent.display_name in g
                assert pred in f

    def test_action_enabled_everywhere_renders_always(self):
        # one agent, one action, enabled in every state -> tautology
        schema = plain_schema(1, task_ids=("f0",))
        from mapex import AgentSpec, ActionPhrases, DomainDefinition
        from mapex.domain import RelevanceEntry, RelevanceKnowledge
        domain = DomainDefinition(
            id="solo",
            agents=(AgentSpec("A", ("go",)),),
            schema=schema,
            action_phrases={"go": ActionPhrases("go", "goes")},
            relevance=RelevanceKnowledge({
                ("A", "go"): RelevanceEntry(
                    frozenset({"A"}), frozenset({"f0"}),
                    (frozenset({("A", "go")}),),
                ),
            }),
        )
        m = PolicyAbstraction(schema, 1, {
            ((0,), ("go",), (1,)): 1,
            ((1,), ("go",), (1,)): 1,
        }, (0,))
        answer = answer_when(
            Query(kind="when", agents=("A",), method="norf",
                  actions=(("A", "go"),)),
            m, domain,
        )
        assert answer.dnf.is_always

    def test_no_occurrence_gives_never(self, sr3_domain, sr3_abstraction):
        answer = answer_when(
            when_query("UGV_1", FIGHT, "norf"), sr3_abstraction, sr3_domain
        )
        assert answer.dnf.is_never
        assert not answer.target_states

    def test_dnf_faithful_on_random_two_agent_mmdps(self):
        # brute-force indicator oracle over all 16 assignments of a 2x2 space
        from mapex import AgentSpec, ActionPhrases, DomainDefinition
        from mapex.domain import RelevanceEntry, RelevanceKnowledge
        schema = plain_schema(2, task_ids=("f1",))
        domain = DomainDefinition(
            id="pair",
            agents=(AgentSpec("A", ("x", "y")), AgentSpec("B", ("x", "y"))),
            schema=schema,
            action_phrases={"x": ActionPhrases("x", "xes"),
                            "y": ActionPhrases("y", "ys")},
            relevance=RelevanceKnowledge({
                (a, act): RelevanceEntry(
                    frozenset({a}), frozenset({"f0"}),
                    (frozenset({(a, act)}),),
                )
                for a in ("A", "B") for act in ("x", "y")
            }),
        )
        rng = random.Random(5)
        for trial in range(25):
            states = rng.sample([(i, j) for i in range(4) for j in range(4)],
                                rng.randint(2, 8))
            counts = {}
            for s in states:
                for _ in range(rng.randint(1, 2)):
                    a = (rng.choice("xy"), rng.choice("xy"))
                    t = states[rng.randrange(len(states))]
                    counts[(s, a, t)] = counts.get((s, a, t), 0) + 1
            m = PolicyAbstraction(schema, 2, counts, states[0])
            query = Query(kind="when", agents=("A",), method="norf",
                          actions=(("A", "x"),))
            answer = answer_when(query, m, domain)
            # independent recomputation of V / V-bar and the minterm map
            v, vbar = set(), set()
            for s in m.states:
                for act in m.enabled_actions(s):
                    (v if act[0] == "x" else vbar).add(s)
            vbar -= v

            def minterm(s):
                return s[0] | (s[1] << 2)

            for s in v:
                assert any(
                    (minterm(s) & i.care_mask) == i.values
                    for i in _implicants(answer)
                ), "DNF must accept every target state"
            for s in vbar:
                if minterm(s) in {minterm(x) for x in v}:
                    continue
                assert not any(
                    (minterm(s) & i.care_mask) == i.values
                    for i in _implicants(answer)
                ), "DNF must reject every non-target state"


def _implicants(answer):
    """Rebuild (care, values) pairs from the literal clauses."""
    out = []
    for clause in answer.dnf.clauses:
        care = values = 0
        for agent, pred, polarity in clause:
            v = variable_index(
                agent, pred, answer.space.agent_order, answer.space.feature_order
            )
            care |= 1 << v
            if polarity:
                values |= 1 << v
        out.append(type("I", (), {"care_mask": care, "values": values})())
    if not out and answer.dnf.is_always:
        out.append(type("I", (), {"care_mask": 0, "values": 0})())
    return out


class TestAnswerWhynot:
    def test_sr3_withrf_obstacle(self, sr3_domain, sr3_abstraction):
        query = Query(
            kind="whynot", agents=("UGV_1", "UGV_2"), method="withrf",
            actions=(("UGV_1", REMOVE), ("UGV_2", REMOVE)),
            state=(1, 0, 0),
        )
        answer = answer_whynot(query, sr3_abstraction, sr3_domain)
        ugv1 = sr3_domain.agent_id("UGV_1")
        ugv2 = sr3_domain.agent_id("UGV_2")
        assert answer.dnf.clauses == (
            frozenset({(ugv1, "obstacle_detect", False),
                       (ugv2, "obstacle_detect", False)}),
        )

    def test_dnf_separates_query_state_from_nontargets(self, sr3_domain,
                                                       sr3_abstraction):
        query = Query(
            kind="whynot", agents=("UGV_1", "UGV_2"), method="withrf",
            actions=(("UGV_1", REMOVE), ("UGV_2", REMOVE)),
            state=(1, 0, 0),
        )
        answer = answer_whynot(query, sr3_abstraction, sr3_domain)
        imps = _implicants(answer)
        schema = sr3_abstraction.schema
        sq_minterm = answer.space.minterm((1, 0, 0), schema)
        assert any((sq_minterm & i.care_mask) == i.values for i in imps)
        one_minterms = {sq_minterm}
        for s in answer.nontarget_states:
            mt = answer.space.minterm(s, schema)
            if mt in one_minterms:
                continue
            assert not any((mt & i.care_mask) == i.values for i in imps)

    def test_unknown_state(self, sr3_domain, sr3_abstraction):
        query = Query(
            kind="whynot", agents=("UGV_1", "UGV_2"), method="withrf",
            actions=(("UGV_1", REMOVE), ("UGV_2", REMOVE)),
            state=(63, 63, 63),
        )
        with pytest.raises(UnknownStateError):
            answer_whynot(query, sr3_abstraction, sr3_domain)

    def test_contradiction_when_action_taken_here(self, sr3_domain,
                                                  sr3_abstraction):
        # find the abstract state where both UGVs do remove the obstacle
        removal_state = next(
            s for s in sr3_abstraction.states
            if any(a[1] == REMOVE and a[2] == REMOVE
                   for a in sr3_abstraction.enabled_actions(s))
        )
        query = Query(
            kind="whynot", agents=("UGV_1", "UGV_2"), method="withrf",
            actions=(("UGV_1", REMOVE), ("UGV_2", REMOVE)),
            state=removal_state,
        )
        with pytest.raises(ContradictionNotice):
            answer_whynot(query, sr3_abstraction, sr3_domain)

    def test_never_taken_action_gives_tautology(self, sr3_domain,
                                                sr3_abstraction):
        query = Query(
            kind="whynot", agents=("UGV_1",), method="norf",
            actions=(("UGV_1", FIGHT),), state=(0, 0, 0),
        )
        answer = answer_whynot(query, sr3_abstraction, sr3_domain)
        assert answer.dnf.is_always
        assert not answer.nontarget_states


class TestAnswerWhat:
    def test_sr3_withrf_most_likely(self, sr3_domain, sr3_abstraction):
        query = Query(kind="what", agents=("UAV",), method="withrf",
                      predicates=("victim_detect",))
        answer = answer_what(query, sr3_abstraction, sr3_domain)
        assert answer.actions == {"UAV": RESCUE}

    def test_sr3_norf_action_list(self, sr3_domain, sr3_abstraction):
        query = Query(kind="what", agents=("UAV",), method="norf",
                      predicates=("victim_detect",))
        answer = answer_what(query, sr3_abstraction, sr3_domain)
        assert set(answer.actions["UAV"]) == {RESCUE, "move", "wait"}

    def test_no_occurrence(self, sr3_domain, sr3_abstraction):
        # the UAV never removes the obstacle, so no state satisfies this
        query = Query(kind="what", agents=("UAV",), method="withrf",
                      predicates=("obstacle_complete",))
        answer = answer_what(query, sr3_abstraction, sr3_domain)
        assert answer.no_occurrence

    def test_weighted_frequency_fixture(self):
        # alpha occurs with transition weight 3, beta with weight 1
        from mapex import AgentSpec, ActionPhrases, DomainDefinition
        from mapex.domain import RelevanceEntry, RelevanceKnowledge
        schema = plain_schema(2, task_ids=("f1",))
        domain = DomainDefinition(
            id="weights",
            agents=(AgentSpec("A", ("alpha", "beta")),),
            schema=schema,
            action_phrases={"alpha": ActionPhrases("alpha", "alphas"),
                            "beta": ActionPhrases("beta", "betas")},
            relevance=RelevanceKnowledge({
                ("A", "alpha"): RelevanceEntry(
                    frozenset({"A"}), frozenset({"f0"}),
                    (frozenset({("A", "alpha")}),)),
                ("A", "beta"): RelevanceEntry(
                    frozenset({"A"}), frozenset({"f0"}),
                    (frozenset({("A", "beta")}),)),
            }),
        )
        m = PolicyAbstraction(schema, 1, {
            ((1,), ("alpha",), (1,)): 3,
            ((1,), ("beta",), (3,)): 1,
        }, (1,))
        query = Query(kind="what", agents=("A",), method="withrf",
                      predicates=("f0",))
        assert answer_what(query, m, domain).actions == {"A": "alpha"}
        # tie -> lexicographically smaller action id
        m2 = PolicyAbstraction(schema, 1, {
            ((1,), ("alpha",), (1,)): 2,
            ((1,), ("beta",), (3,)): 2,
        }, (1,))
        assert answer_what(query, m2, domain).actions == {"A": "alpha"}


class TestQueryValidation:
    def test_unknown_kind(self, sr3_domain, sr3_abstraction):
        with pytest.raises(PreconditionError):
            Query(kind="how", agents=("UAV",)).validate(sr3_domain)

    def test_action_not_in_alphabet(self, sr3_domain):
        q = Query(kind="when", agents=("UAV",), actions=(("UAV", REMOVE),))
        with pytest.raises(PreconditionError):
            q.validate(sr3_domain)

    def test_whynot_requires_state(self, sr3_domain):
        q = Query(kind="whynot", agents=("UAV",), actions=(("UAV", RESCUE),))
        with pytest.raises(PreconditionError):
            q.validate(sr3_domain)

    def test_empty_agent_list_rejected(self, sr3_domain):
        with pytest.raises(PreconditionError):
            Query(kind="what", agents=(), predicates=("victim_detect",)).validate(
                sr3_domain
            )

    @pytest.mark.parametrize("query", [
        Query(kind="when", agents=("UAV", "UAV"), method="norf",
              actions=(("UAV", RESCUE), ("UAV", "move"))),
        Query(kind="when", agents=("UAV",), method="withrf",
              actions=(("UAV", RESCUE), ("UAV", "move"))),
        Query(kind="what", agents=("UAV",), predicates=("victim_detect", "victim_detect")),
    ], ids=["agent", "agent-in-actions", "predicate"])
    def test_name_given_twice_rejected(self, sr3_domain, query):
        # read as two of them, a repeated name renders a sentence about two
        with pytest.raises(PreconditionError, match="named twice"):
            query.validate(sr3_domain)

    def test_kind_mismatch_rejected(self, sr3_domain, sr3_abstraction):
        q = Query(kind="what", agents=("UAV",), predicates=("victim_detect",))
        with pytest.raises(PreconditionError):
            answer_when(q, sr3_abstraction, sr3_domain)

    def test_norf_guardrail_propagates(self):
        from mapex import build_abstraction, get_domain, simulate
        domain = get_domain("lbf9")
        m = build_abstraction(simulate("lbf9", episodes=5, seed=1), domain.schema)
        q = Query(kind="when", agents=("F_1",), method="norf",
                  actions=(("F_1", "collect_food_1"),))
        with pytest.raises(TooManyVariablesError):
            answer_when(q, m, domain)

    def test_guardrail_precedes_partition(self, sr3_domain, sr3_abstraction,
                                          monkeypatch):
        # the width is known from the query alone, so neither the query index
        # nor any state's enabled actions are read
        def no_scan(self, *state):
            raise AssertionError("states were partitioned before the guardrail")

        state = sr3_abstraction.states[0]
        monkeypatch.setattr(PolicyAbstraction, "query_index", property(no_scan))
        monkeypatch.setattr(PolicyAbstraction, "enabled_actions", no_scan)
        when = when_query("UAV", RESCUE, "norf")
        whynot = Query(kind="whynot", agents=("UAV",), method="norf",
                       actions=(("UAV", RESCUE),), state=state)
        for answerer, q in ((answer_when, when), (answer_whynot, whynot)):
            with pytest.raises(TooManyVariablesError):
                answerer(q, sr3_abstraction, sr3_domain, max_vars=4)


class TestWhatScaling:
    def test_what_query_fast_on_thousand_states(self):
        # runtime is a scan over states and their enabled actions, so even a
        # thousand-state model answers well under a second
        import time
        from mapex import ActionPhrases, AgentSpec, DomainDefinition
        from mapex.domain import RelevanceEntry, RelevanceKnowledge
        from synth import big_layered_abstraction, plain_schema
        schema = plain_schema(10, task_ids=("f9",))
        domain = DomainDefinition(
            id="big",
            agents=(AgentSpec("A", ("a", "b")), AgentSpec("B", ("a", "b"))),
            schema=schema,
            action_phrases={"a": ActionPhrases("a", "as"),
                            "b": ActionPhrases("b", "bs")},
            relevance=RelevanceKnowledge({
                (agent, act): RelevanceEntry(
                    frozenset({agent}), frozenset({"f0"}),
                    (frozenset({(agent, act)}),),
                )
                for agent in ("A", "B") for act in ("a", "b")
            }),
        )
        m = big_layered_abstraction(1000)
        q = Query(kind="what", agents=("A",), method="withrf",
                  predicates=("f0",))
        start = time.perf_counter()
        answer_what(q, m, domain)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# the indexed partition against the per-(state, enabled action) oracle
# ---------------------------------------------------------------------------

# the agents and actions of synth.random_layered_abstraction
PAIRS = tuple((agent, act) for agent in ("A", "B") for act in ("a", "b"))
SYNTH_SCHEMA = plain_schema(6, task_ids=("f5",))

pair_sets = st.frozensets(st.sampled_from(PAIRS), max_size=3)
criteria = st.one_of(pair_sets, st.lists(pair_sets, max_size=3).map(tuple))


@st.composite
def synth_domains(draw):
    """The two synth agents with random admissible action sets and features."""
    entries = {}
    for pair in PAIRS:
        n_sets = draw(st.integers(1, 2))
        sets = tuple(dict.fromkeys(draw(pair_sets) | {pair} for _ in range(n_sets)))
        entries[pair] = RelevanceEntry(
            frozenset(agent for s in sets for agent, _ in s),
            draw(st.frozensets(st.sampled_from(SYNTH_SCHEMA.predicate_ids),
                               max_size=3)),
            sets,
        )
    return DomainDefinition(
        id="synth",
        agents=(AgentSpec("A", ("a", "b")), AgentSpec("B", ("a", "b"))),
        schema=SYNTH_SCHEMA,
        action_phrases={"a": ActionPhrases("a", "as"), "b": ActionPhrases("b", "bs")},
        relevance=RelevanceKnowledge(entries),
    )


def synth_model(seed):
    return random_layered_abstraction(seed, max_states=12 + seed % 29)


class TestIndexedPartition:
    @given(st.integers(0, 10_000), criteria, synth_domains())
    @settings(max_examples=150, deadline=None)
    def test_partition_matches_oracle(self, seed, criterion, domain):
        m = synth_model(seed)
        targets, nontargets = partition(criterion, m, domain)
        expected = oracles.partition(criterion, m, domain)
        assert (set(targets), set(nontargets)) == expected

    @given(st.integers(0, 10_000), synth_domains(), st.sampled_from(("norf", "withrf")),
           st.lists(st.sampled_from(PAIRS), min_size=1, max_size=2,
                    unique_by=lambda p: p[0]),
           st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_when_and_whynot_match_oracle(self, seed, domain, method, pairs, pick):
        m = synth_model(seed)
        pairs = tuple(pairs)
        agents = tuple(agent for agent, _ in pairs)
        if method == "norf":
            criterion = frozenset(pairs)
        else:
            criterion = relevancy_filter(pairs, domain.relevance)[2]
        taking, not_taking = oracles.partition(criterion, m, domain)

        when = Query(kind="when", agents=agents, method=method, actions=pairs)
        _, targets, nontargets = when_partition(when, m, domain)
        assert (set(targets), set(nontargets)) == (taking, not_taking)

        state = m.states[pick % m.n_states]
        whynot = Query(kind="whynot", agents=agents, method=method, actions=pairs,
                       state=state)
        if state in taking:
            with pytest.raises(ContradictionNotice) as notice:
                answer_whynot(whynot, m, domain)
            action = next(a for a in m.enabled_actions(state)
                          if compatible(a, criterion, domain))
            assert str(notice.value).endswith(f"compatible enabled action {action}")
        else:
            answer = answer_whynot(whynot, m, domain)
            assert answer.target_states == {state}
            assert set(answer.nontarget_states) == taking

    @given(st.integers(0, 10_000), synth_domains(), st.sampled_from(("norf", "withrf")),
           st.lists(st.sampled_from(("A", "B")), min_size=1, max_size=2, unique=True),
           st.lists(st.sampled_from(SYNTH_SCHEMA.predicate_ids), min_size=1,
                    max_size=2, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_what_states_match_brute_force(self, seed, domain, method, agents,
                                           predicates):
        m = synth_model(seed)
        q = Query(kind="what", agents=tuple(agents), method=method,
                  predicates=tuple(predicates))
        bits = [SYNTH_SCHEMA.index_of(p) for p in predicates]
        expected = {s for s in m.states
                    if all(s["AB".index(a)] >> b & 1 for a in agents for b in bits)}
        assert answer_what(q, m, domain).satisfying_states == expected


@pytest.fixture(scope="module")
def sr5_model():
    domain = mapex.get_domain("sr5")
    return domain, mapex.build_abstraction(mapex.simulate("sr5", episodes=100, seed=42),
                                           domain.schema)


def hand_model(domain):
    """Three sr3 states: s0 only moves, s1 both rescues (UAV with UGV_2) and
    moves, s2 is terminal; UGV_1 never waits."""
    s0, s1, s2 = (0, 0, 0), (1, 0, 0), (2, 0, 0)
    moves, rescue = ("move",) * 3, (RESCUE, "move", RESCUE)
    counts = {(s0, moves, s1): 2, (s1, rescue, s2): 1, (s1, moves, s0): 1}
    return PolicyAbstraction(domain.schema, 3, counts, s0), (s0, s1, s2)


class TestMaskIndex:
    # partition is bitmask algebra over the query index; each case is also
    # checked against the per-edge oracle
    def check(self, criterion, m, domain, targets, nontargets):
        got = partition(criterion, m, domain)
        assert (set(got[0]), set(got[1])) == (targets, nontargets)
        assert (targets, nontargets) == oracles.partition(criterion, m, domain)

    def test_every_task_action_on_a_wide_model(self, sr5_model):
        # more than 64 distinct joint actions: the masks span several words
        domain, m = sr5_model
        assert len(m.query_index.actions) > 64
        pairs = [pair for pair, e in sorted(domain.relevance.entries.items())
                 if e.features]
        assert pairs
        for pair in pairs:
            for criterion in (frozenset({pair}),
                              relevancy_filter([pair], domain.relevance)[2]):
                targets, nontargets = partition(criterion, m, domain)
                assert targets, pair
                expected = oracles.partition(criterion, m, domain)
                assert (set(targets), set(nontargets)) == expected

    def test_empty_alternative_is_vacuous(self, sr3_domain):
        m, (s0, s1, _) = hand_model(sr3_domain)
        for criterion in (frozenset(), [frozenset({("UGV_1", "wait")}), frozenset()]):
            self.check(criterion, m, sr3_domain, {s0, s1}, set())

    def test_unmet_requirement_selects_no_action(self, sr3_domain):
        m, (s0, s1, _) = hand_model(sr3_domain)
        assert m.query_index.requirement(1, "wait") == 0
        for criterion in (frozenset({("UGV_1", "wait")}),
                          frozenset({("UAV", RESCUE), ("UGV_1", "wait")}), []):
            self.check(criterion, m, sr3_domain, set(), {s0, s1})

    def test_state_qualifying_both_ways_is_a_target(self, sr3_domain):
        m, (s0, s1, _) = hand_model(sr3_domain)
        for criterion in (frozenset({("UAV", RESCUE)}),
                          [frozenset({("UAV", RESCUE), ("UGV_2", RESCUE)})]):
            self.check(criterion, m, sr3_domain, {s1}, {s0})

    def test_load_and_summarize_never_build_the_index(self, tmp_path, sr3_domain,
                                                      sr3_samples):
        built = mapex.build_abstraction(sr3_samples, sr3_domain.schema)
        path = tmp_path / "sr3.mmdp"
        mapex.save_abstraction(built, path)
        m = mapex.load_abstraction(path, sr3_domain.schema)
        mapex.summarize(m)
        # a withrf what answer reads the state masks and edges only
        what = Query(kind="what", agents=("UAV",), predicates=("victim_detect",))
        assert answer_what(what, m, sr3_domain).satisfying_states
        for model in (built, m):
            assert "query_index" not in vars(model)
        when_partition(when_query("UAV", RESCUE, "withrf"), m, sr3_domain)
        assert "query_index" in vars(m)

    def test_when_and_whynot_answers_read_no_rows(self, tmp_path, sr5_model):
        # the index is one pass over the loaded source and action row columns
        domain, built = sr5_model
        path = tmp_path / "sr5.mmdp"
        mapex.save_abstraction(built, path)
        m = mapex.load_abstraction(path, domain.schema)
        kinds = set()
        for q in _bench_queries(domain, m):
            if q.kind != "what":
                kinds.add(answer(q, m, domain, max_vars=30).query.kind)
        assert kinds == {"when", "whynot"}
        assert "query_index" in vars(m) and "rows" not in vars(m)

    def test_answered_model_is_freed_by_reference_counting(self, tmp_path, sr3_domain,
                                                            sr3_abstraction):
        # nothing a when, why-not or what answer keeps on the model refers
        # back to it, so the last reference frees it without the cycle GC
        path = tmp_path / "sr3.mmdp"
        mapex.save_abstraction(sr3_abstraction, path)
        enabled = gc.isenabled()
        gc.disable()
        try:
            m = mapex.load_abstraction(path, sr3_domain.schema)
            kinds = {answer(q, m, sr3_domain).query.kind
                     for q in _bench_queries(sr3_domain, m)}
            assert kinds == {"when", "whynot", "what"}
            model = weakref.ref(m)
            del m
            assert model() is None
        finally:
            if enabled:
                gc.enable()


class TestMaskProjection:
    # BooleanSpace.minterms projects a state mask at once; BooleanSpace.minterm,
    # one state at a time, is the reference
    @staticmethod
    def check(m, domain, pairs, masks):
        agents = tuple(dict.fromkeys(agent for agent, _ in pairs))
        for method in ("norf", "withrf"):
            q = Query(kind="when", agents=agents, method=method, actions=tuple(pairs))
            space = when_partition(q, m, domain)[0]
            for mask in (0, *masks):
                expected = {space.minterm(s, m.schema) for s in m.states_of(mask)}
                assert space.minterms(mask, m) == expected, (method, mask)

    @given(st.integers(0, 10_000), synth_domains(),
           st.lists(st.sampled_from(PAIRS), min_size=1, max_size=2,
                    unique_by=lambda p: p[0]),
           st.integers(0, 1 << 64))
    @settings(max_examples=150, deadline=None)
    def test_synth_models(self, seed, domain, pairs, bits):
        m = synth_model(seed)
        every_state = (1 << m.n_states) - 1
        self.check(m, domain, pairs, (bits & every_state, every_state))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_wide_model(self, sr5_model, data):
        # 290 states: every state mask spans several machine words
        domain, m = sr5_model
        pairs = [pair for pair, e in sorted(domain.relevance.entries.items())
                 if e.features]
        pair = data.draw(st.sampled_from(pairs))
        self.check(m, domain, [pair], (data.draw(st.integers(0, (1 << m.n_states) - 1)),))


class TestSoundnessChecksSurviveOptimize:
    # each snippet breaks an invariant the query layer checks; the check must
    # still raise with assert statements compiled out
    @pytest.mark.parametrize("code,message", [
        ("from mapex import get_domain, query\n"
         "d = get_domain('sr3')\n"
         "entry = d.relevance.entries[('UAV', 'rescue_victim')]\n"
         "d.relevance.entries[('UAV', 'rescue_victim')] = type(entry)(\n"
         "    entry.agents, entry.features,\n"
         "    (frozenset({('UGV_1', 'rescue_victim')}),))\n"
         "query.relevancy_filter([('UAV', 'rescue_victim')], d.relevance)\n",
         "relevance set lost its generating action"),
        ("from mapex import get_domain, query\n"
         "from mapex.domain import DomainDefinition\n"
         "ids = DomainDefinition.agent_ids.func\n"
         "DomainDefinition.agent_ids = property(lambda self: ids(self) * 2)\n"
         "q = query.Query('when', ('UAV',), 'norf', (('UAV', 'rescue_victim'),))\n"
         "query._condition_space(q, get_domain('sr3'), 'when')\n",
         "36 query variables exceed N * |F|"),
    ], ids=["relevance-set", "width"])
    def test_raises_under_optimize(self, code, message):
        wrapped = ("try:\n" + "".join("    " + ln + "\n" for ln in code.splitlines())
                   + "except AssertionError as exc:\n    print(exc)\n")
        src = str(Path(mapex.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", wrapped], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src),
                             timeout=60)
        assert run.stdout == message + "\n", run.stderr
