import copy
import re

import pytest
from hypothesis import given, strategies as st

from mapex import (
    RelevanceEntry,
    RelevanceKnowledge,
    decode_agent_state,
    domain_ids,
    encode_agent_state,
    get_domain,
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
    @pytest.mark.parametrize("domain_id", domain_ids())
    def test_roundtrip(self, tmp_path, domain_id):
        domain = get_domain(domain_id)
        path = tmp_path / f"{domain_id}.json"
        save_domain_file(domain, path)
        loaded = load_domain_file(path)
        assert domain_to_dict(loaded) == domain_to_dict(domain)
        assert loaded.schema.predicate_ids == domain.schema.predicate_ids
        assert loaded.schema.schema_hash() == domain.schema.schema_hash()

    def test_label_defaults_to_id(self, sr3_domain):
        data = domain_to_dict(sr3_domain)
        del data["features"][2]["label"]
        predicate = domain_from_dict(data).schema.predicates[2]
        assert predicate.label == predicate.id == "fire_detect"

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

    @pytest.mark.parametrize("path,value,line", [
        (("agents", 0, "color"), "gray", "agents[0]: unknown keys ['color']"),
        (("relevance", 0, "action_sets", 0, 0), ["UAV", "move", "x"],
         "relevance[0].action_sets[0]: expected [agent, action] pairs"),
        (("relevance", 0, "action_sets", 0, 0), ["UAV", 1],
         "relevance[0].action_sets[0]: expected a string"),
        (("action_phrases", "move"), "go", "action_phrases[move]: expected an object"),
    ], ids=["unknown-nested-key", "pair-length", "pair-item", "phrases-value"])
    def test_message_names_the_field(self, sr3_domain, path, value, line):
        data = _replaced(domain_to_dict(sr3_domain), path, value)
        with pytest.raises(DomainFormatError) as info:
            domain_from_dict(data)
        assert str(info.value) == line

    def test_missing_nested_key_message(self, sr3_domain):
        data = domain_to_dict(sr3_domain)
        del data["relevance"][0]["features"]
        with pytest.raises(DomainFormatError) as info:
            domain_from_dict(data)
        assert str(info.value) == "relevance[0]: missing keys ['features']"

    def test_shape_fault_reported_before_semantic_fault(self, sr3_domain):
        # the whole file is checked against its shape before any record is built
        data = domain_to_dict(sr3_domain)
        data["features"][1]["id"] = data["features"][0]["id"]
        data["relevance"][13]["agents"] = "UAV"
        with pytest.raises(DomainFormatError, match=r"^relevance\[13\]\.agents: expected a list$"):
            domain_from_dict(data)
        data["relevance"][13]["agents"] = ["UAV"]
        with pytest.raises(DomainFormatError, match=r"^duplicate predicate ids"):
            domain_from_dict(data)

    def test_task_subset_validated(self):
        with pytest.raises(DomainFormatError):
            plain_schema(2, task_ids=("nope",))


def _replaced(data, path, value):
    """A copy of ``data`` with the node at ``path`` (() is the root) set to ``value``."""
    if not path:
        return copy.deepcopy(value)
    data = node = copy.deepcopy(data)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return data


def _nodes(value, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, path + (key,))


class TestSingleFaultFiles:
    """Each node of the sr3 file, the root included, replaced by one value:
    290 nodes times ten values."""

    @pytest.mark.parametrize("value", [
        None, 1, True, "x", [], {}, ["x"], [1], [["a", "b", "c"]], {"k": 1},
    ], ids=repr)
    def test_fault_is_a_domain_format_error(self, sr3_domain, value):
        base = domain_to_dict(sr3_domain)
        for path in _nodes(base):
            try:
                domain_from_dict(_replaced(base, path, value))
            except DomainFormatError:
                continue
            except Exception as exc:
                pytest.fail(f"{path}: {exc!r}")
            # only free text, an empty list or the same version still fits
            assert value in ("x", []) or (path, value) == (("version",), 1), path
