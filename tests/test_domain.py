import re

import pytest
from hypothesis import given, strategies as st

from mapex import (
    RelevanceEntry,
    RelevanceKnowledge,
    decode_agent_state,
    encode_agent_state,
    load_domain_file,
    save_domain_file,
    variable_index,
)
from mapex.domain import domain_from_dict, domain_to_dict
from mapex.errors import (
    DomainFormatError,
    KnowledgeGapError,
    SchemaMismatchError,
)
from synth import plain_schema


def feature_record(schema, true_ids=()):
    return {"features": {p.id: p.id in true_ids for p in schema.predicates}}


class TestEncoding:
    def test_all_false_is_zero(self):
        schema = plain_schema(6)
        assert encode_agent_state(feature_record(schema), schema) == 0

    def test_single_first_predicate(self):
        schema = plain_schema(6)
        assert encode_agent_state(feature_record(schema, {"f0"}), schema) == 1

    def test_sr_uav_next_to_victim(self, sr3_domain):
        # hand evaluation on the 3x6 map: UAV at (1,1), victim at (0,2) present
        # (Chebyshev 1), fire at (0,5) distance 4, obstacle at (2,4) distance 3,
        # nothing completed -> only victim_detect holds
        record = {
            "pos": [1, 1],
            "tasks": {
                "victim": {"pos": [0, 2], "present": True},
                "fire": {"pos": [0, 5], "present": True},
                "obstacle": {"pos": [2, 4], "present": True},
            },
            "done": {"victim": False, "fire": False, "obstacle": False},
        }
        bits = encode_agent_state(record, sr3_domain.schema)
        assert bits == 1  # victim_detect is predicate 0
        assert decode_agent_state(bits, sr3_domain.schema) == {
            "victim_detect": True, "victim_complete": False,
            "fire_detect": False, "fire_complete": False,
            "obstacle_detect": False, "obstacle_complete": False,
        }

    def test_missing_feature_value_is_schema_mismatch(self):
        schema = plain_schema(2)
        with pytest.raises(SchemaMismatchError):
            encode_agent_state({"features": {"f0": True}}, schema)

    @given(st.integers(min_value=0, max_value=63))
    def test_bit_roundtrip(self, bits):
        schema = plain_schema(6)
        valuation = decode_agent_state(bits, schema)
        true_ids = {k for k, v in valuation.items() if v}
        assert encode_agent_state(feature_record(schema, true_ids), schema) == bits

    def test_decode_out_of_range(self):
        with pytest.raises(SchemaMismatchError):
            decode_agent_state(64, plain_schema(6))


class TestVariableIndex:
    AGENTS = ["a0", "a1", "a2"]
    FEATURES = [f"f{i}" for i in range(6)]

    def test_first_pair_is_zero(self):
        assert variable_index("a0", "f0", self.AGENTS, self.FEATURES) == 0

    def test_middle_pair(self):
        assert variable_index("a1", "f2", self.AGENTS, self.FEATURES) == 8

    def test_last_pair(self):
        assert variable_index("a2", "f5", self.AGENTS, self.FEATURES) == 17

    def test_bijection_over_pair_domain(self):
        seen = {
            variable_index(a, f, self.AGENTS, self.FEATURES)
            for a in self.AGENTS
            for f in self.FEATURES
        }
        assert seen == set(range(len(self.AGENTS) * len(self.FEATURES)))

    def test_membership_errors(self):
        with pytest.raises(SchemaMismatchError):
            variable_index("nope", "f0", self.AGENTS, self.FEATURES)
        with pytest.raises(SchemaMismatchError):
            variable_index("a0", "nope", self.AGENTS, self.FEATURES)


class TestRelevanceKnowledge:
    def test_sets_contain_their_own_action(self, sr3_domain):
        for (agent, action), entry in sr3_domain.relevance.entries.items():
            for s in entry.action_sets:
                assert (agent, action) in s

    def test_agents_equal_union_of_sets(self, sr3_domain):
        for entry in sr3_domain.relevance.entries.values():
            union = {a for s in entry.action_sets for a, _ in s}
            assert union == set(entry.agents)

    def test_covers_every_alphabet_pair(self, sr3_domain):
        for spec in sr3_domain.agents:
            for action in spec.actions:
                assert (spec.name, action) in sr3_domain.relevance.entries

    def test_violating_superset_invariant_rejected(self, sr3_domain):
        # an action set that drops its own generating pair must be refused
        broken = dict(sr3_domain.relevance.entries)
        broken[("UAV", "rescue_victim")] = RelevanceEntry(
            frozenset({"UGV_1"}),
            frozenset({"victim_detect"}),
            (frozenset({("UGV_1", "rescue_victim")}),),
        )
        with pytest.raises(DomainFormatError):
            RelevanceKnowledge(broken).validate(sr3_domain)

    def test_unregistered_pair_is_knowledge_gap(self):
        with pytest.raises(KnowledgeGapError):
            RelevanceKnowledge({}).get("UAV", "rescue_victim")


class TestAgentLookup:
    def test_names_map_to_declared_positions(self, sr3_domain):
        for i, spec in enumerate(sr3_domain.agents):
            assert sr3_domain.agent_spec(spec.name) is spec
            assert sr3_domain.agent_id(spec.name) == sr3_domain.agent_ids[i]

    @pytest.mark.parametrize("lookup", ["agent_spec", "agent_id"])
    def test_unknown_agent(self, sr3_domain, lookup):
        with pytest.raises(DomainFormatError, match=r"^unknown agent 'UGV_9'$"):
            getattr(sr3_domain, lookup)("UGV_9")


class TestDomainFiles:
    def test_roundtrip(self, tmp_path, sr3_domain):
        path = tmp_path / "sr3.json"
        save_domain_file(sr3_domain, path)
        loaded = load_domain_file(path)
        assert domain_to_dict(loaded) == domain_to_dict(sr3_domain)
        assert loaded.schema.predicate_ids == sr3_domain.schema.predicate_ids
        assert loaded.schema.schema_hash() == sr3_domain.schema.schema_hash()

    def test_unknown_top_level_key_rejected(self, sr3_domain):
        data = domain_to_dict(sr3_domain)
        data["extra"] = 1
        with pytest.raises(DomainFormatError):
            domain_from_dict(data)

    def test_unknown_nested_key_rejected(self, sr3_domain):
        data = domain_to_dict(sr3_domain)
        data["agents"][0]["color"] = "gray"
        with pytest.raises(DomainFormatError):
            domain_from_dict(data)

    def test_missing_key_rejected(self, sr3_domain):
        data = domain_to_dict(sr3_domain)
        del data["relevance"]
        with pytest.raises(DomainFormatError):
            domain_from_dict(data)

    # a pair given as an object, an action set as an int and a pair as a
    # one-letter string raised KeyError, TypeError and IndexError; a list of
    # lists raised AttributeError; a string where a list belongs was read as
    # the list of its letters
    @pytest.mark.parametrize("path,value,where", [
        (("relevance", 0, "action_sets", 0, 0), {"0": "UAV"}, "relevance[0].action_sets[0]"),
        (("relevance", 0, "action_sets", 0), 1, "relevance[0].action_sets[0]"),
        (("relevance", 0, "action_sets", 0, 0), "a", "relevance[0].action_sets[0]"),
        (("relevance", 0, "action_sets", 0, 0), ["UAV"], "relevance[0].action_sets[0]"),
        (("relevance", 0, "action_sets"), "ab", "relevance[0].action_sets"),
        (("relevance", 0, "agents"), "UAV", "relevance[0].agents"),
        (("relevance", 0, "features"), "ab", "relevance[0].features"),
        (("agents",), "ab", "agents"),
        (("agents", 0, "actions"), "idle", "agents[0].actions"),
        (("features",), "ab", "features"),
        (("task_features",), "ab", "task_features"),
        (("relevance",), "ab", "relevance"),
        (("action_phrases",), [["idle"]], "action_phrases"),
    ])
    def test_malformed_shape_rejected(self, sr3_domain, path, value, where):
        data = domain_to_dict(sr3_domain)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(DomainFormatError, match=rf"^{re.escape(where)}: expected "):
            domain_from_dict(data)

    def test_task_subset_validated(self):
        with pytest.raises(DomainFormatError):
            plain_schema(2, task_ids=("nope",))
