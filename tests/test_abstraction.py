import copy
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mapex

from mapex import (
    PolicyAbstraction,
    build_abstraction,
    load_abstraction,
    read_trace,
    save_abstraction,
    trace,
)
from mapex.abstraction import NORMALIZATIONS
from mapex.envs import domain_ids
from mapex.nlg import PhraseMap, render
from mapex.query import METHODS, Query, answer
from mapex.trace import TraceSample
from mapex.errors import (
    AbstractionFormatError,
    MapexError,
    MultipleInitialStatesError,
    PreconditionError,
    SchemaMismatchError,
    TraceFormatError,
)
from oracles import recount_trace
from synth import (BAD_MODEL_MMDP, MALFORMED_MMDP, plain_schema, random_domain,
                   random_layered_abstraction, rewrite_mmdp)


def rec(*true_ids):
    return {"features": {f"f{i}": f"f{i}" in true_ids for i in range(2)}}


def sample(episode, step, state, action, nxt):
    return TraceSample(episode, step, (state,), (action,), (nxt,))


@pytest.fixture
def tiny_schema():
    return plain_schema(2, task_ids=("f1",))


class TestBuild:
    def test_single_sample(self, tiny_schema):
        m = build_abstraction([sample(0, 0, rec(), "a", rec("f0"))], tiny_schema)
        assert m.n_states == 2
        assert m.n_transitions == 1
        [edge] = m.out_edges[(0,)]
        assert edge.target == (1,)
        assert edge.count == 1
        assert edge.probability == 1.0

    def test_symmetric_split(self, tiny_schema):
        samples = [
            sample(0, 0, rec(), "a", rec("f0")),
            sample(1, 0, rec(), "a", rec("f1")),
        ]
        m = build_abstraction(samples, tiny_schema)
        probs = {e.target: e.probability for e in m.out_edges[(0,)]}
        assert probs == {(1,): 0.5, (2,): 0.5}

    def test_self_loops_recorded(self, tiny_schema):
        m = build_abstraction([sample(0, 0, rec(), "a", rec())], tiny_schema)
        [edge] = m.out_edges[(0,)]
        assert edge.source == edge.target == (0,)

    def test_empty_stream_rejected(self, tiny_schema):
        with pytest.raises(PreconditionError):
            build_abstraction([], tiny_schema)

    def test_no_step_zero_rejected(self, tiny_schema):
        # samples without a step 0 give no initial state; the stream is not empty
        with pytest.raises(PreconditionError,
                           match="^cannot build an abstraction with no sample at step 0, "
                                 "so no initial state$"):
            build_abstraction([sample(0, 3, rec(), "a", rec())], tiny_schema)

    def test_missing_first_state_rejected(self, tiny_schema):
        # the first sample has no previous next state to share an encoding with
        with pytest.raises(TraceFormatError):
            build_abstraction([TraceSample(0, 0, None, ("a",), (rec(),))], tiny_schema)

    def test_dicts_changed_between_samples_count_as_they_then_were(self, tiny_schema):
        # a caller's plain dicts are encoded per sample: the same two dicts,
        # changed in place between samples inside fresh tuples, count as
        # they were when each sample was handed on
        state, nxt = rec(), rec()
        snapshots = []

        def samples():
            for step, flags in enumerate([(1, 0), (1, 1), (0, 1), (0, 0)]):
                nxt["features"].update(zip(("f0", "f1"), map(bool, flags)))
                snapshots.append(sample(0, step, copy.deepcopy(state), "a",
                                        copy.deepcopy(nxt)))
                yield sample(0, step, state, "a", nxt)
                state["features"].update(nxt["features"])

        m = build_abstraction(samples(), tiny_schema)
        assert m.n_transitions == 4
        assert m == build_abstraction(snapshots, tiny_schema)

    def test_shared_records_encoded_once_per_schema(self, sr3_domain, sr3_trace_path,
                                                    monkeypatch):
        calls = []
        encode = trace.encode_agent_state
        monkeypatch.setattr(trace, "encode_agent_state",
                            lambda r, schema: calls.append(r) or encode(r, schema))
        _, samples = read_trace(sr3_trace_path)
        records = {id(r) for s in samples
                   for r in (*s.joint_concrete_state, *s.next_joint_concrete_state)}
        m = build_abstraction(samples, sr3_domain.schema)
        assert len(calls) == len({*map(id, calls)}) == len(records)
        assert build_abstraction(samples, sr3_domain.schema) == m
        assert len(calls) == len(records)  # the bits stay on the records
        equal_schema = dataclasses.replace(sr3_domain.schema)
        assert build_abstraction(samples, equal_schema).counts == m.counts
        assert len(calls) == 2 * len(records)  # another schema encodes again

    def test_counts_order_insensitive(self, sr3_domain, sr3_samples):
        shuffled = list(sr3_samples)
        random.Random(0).shuffle(shuffled)
        a = build_abstraction(sr3_samples, sr3_domain.schema)
        b = build_abstraction(shuffled, sr3_domain.schema)
        assert a.counts == b.counts

    def test_state_action_normalization(self, tiny_schema):
        samples = [
            sample(0, 0, rec(), "a", rec("f0")),
            sample(1, 0, rec(), "b", rec("f1")),
        ]
        m = build_abstraction(samples, tiny_schema, normalization="state-action")
        probs = {(e.action, e.target): e.probability for e in m.out_edges[(0,)]}
        assert probs == {(("a",), (1,)): 1.0, (("b",), (2,)): 1.0}


class TestInitialStates:
    def test_differing_initials_rejected(self, tiny_schema):
        samples = [
            sample(0, 0, rec(), "a", rec("f1")),
            sample(1, 0, rec("f0"), "a", rec("f1")),
        ]
        with pytest.raises(MultipleInitialStatesError):
            build_abstraction(samples, tiny_schema)

    def test_virtual_init_keeps_distribution(self, tiny_schema):
        samples = [
            sample(0, 0, rec(), "a", rec("f1")),
            sample(1, 0, rec("f0"), "a", rec("f1")),
            sample(2, 0, rec(), "a", rec("f1")),
        ]
        m = build_abstraction(samples, tiny_schema, virtual_init=True)
        assert len(m.initial_counts) > 1
        assert m.initial_distribution() == {(0,): 2 / 3, (1,): 1 / 3}


class TestInvariants:
    def test_soundness_and_recount_oracle(self, sr3_domain, sr3_abstraction,
                                          sr3_trace_path):
        # independent recount straight off the trace file
        counts, initials = recount_trace(sr3_trace_path, sr3_domain.schema)
        assert dict(counts) == sr3_abstraction.counts
        assert dict(initials) == sr3_abstraction.initial_counts
        # every stored transition is witnessed at least once
        assert all(c >= 1 for c in sr3_abstraction.counts.values())

    def test_probability_mass_sums_to_one(self, sr3_abstraction):
        for s in sr3_abstraction.states:
            edges = sr3_abstraction.out_edges[s]
            if edges:
                assert abs(sum(e.probability for e in edges) - 1.0) <= 1e-9

    def test_state_space_bound(self, sr3_abstraction):
        bound = (2 ** sr3_abstraction.schema.n_features) ** sr3_abstraction.n_agents
        assert sr3_abstraction.n_states <= bound

    def test_zero_count_rejected(self, tiny_schema):
        with pytest.raises(PreconditionError):
            PolicyAbstraction(tiny_schema, 1, {((0,), ("a",), (1,)): 0}, (0,))

    def test_empty_rejected(self, tiny_schema):
        with pytest.raises(PreconditionError):
            PolicyAbstraction(tiny_schema, 1, {}, (0,))

    @pytest.mark.parametrize("initial_counts,message", [
        ({(0,): 1, (1,): 0}, r"initial count 0 < 1 for \(1,\)"),
        ({(0,): -1, (1,): 1}, r"initial count -1 < 1 for \(0,\)"),
        ({(1,): 1}, r"initial state \(0,\) has no initial count"),
    ], ids=["zero", "negative", "missing-initial"])
    def test_bad_initial_counts_rejected(self, tiny_schema, initial_counts, message):
        with pytest.raises(PreconditionError, match=message):
            PolicyAbstraction(tiny_schema, 1, {((0,), ("a",), (1,)): 1}, (0,),
                              initial_counts=initial_counts)


class TestFiles:
    def test_roundtrip(self, tmp_path, sr3_domain, sr3_abstraction):
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        loaded = load_abstraction(path, sr3_domain.schema)
        assert loaded == sr3_abstraction
        assert loaded.states == sr3_abstraction.states

    @staticmethod
    def records(m):
        return [(s, [(e.source, e.action, e.target, e.count, e.probability)
                     for e in m.out_edges[s]]) for s in m.states]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), normalization=st.sampled_from(NORMALIZATIONS),
           virtual_init=st.booleans())
    def test_roundtrip_keeps_every_record(self, seed, normalization, virtual_init):
        built = random_layered_abstraction(seed)
        initial_counts = ({built.initial_state: 2, built.states[-1]: 1}
                          if virtual_init else None)
        def make(counts):
            return PolicyAbstraction(built.schema, built.n_agents, counts,
                                     built.initial_state, normalization=normalization,
                                     initial_counts=initial_counts)
        m = make(built.counts)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp, "m.mmdp"), Path(tmp, "again.mmdp")
            save_abstraction(m, path)
            loaded = load_abstraction(path, m.schema)
            save_abstraction(loaded, again)
            assert again.read_bytes() == path.read_bytes()
        assert loaded.states == m.states
        assert list(loaded.counts.items()) == list(m.counts.items())
        assert loaded.initial_counts == m.initial_counts
        assert self.records(loaded) == self.records(m)
        # the constructor puts any insertion order into canonical order
        assert self.records(make(dict(reversed(m.counts.items())))) == self.records(m)

    @pytest.mark.parametrize("action", ["pick up", "a,b"], ids=["whitespace", "comma"])
    def test_save_refuses_action_id_not_a_word(self, tmp_path, tiny_schema, action):
        # its line would not read back: "pick up" splits into one field too
        # many, and "a,b" reads as a two-agent joint action
        m = build_abstraction([sample(0, 0, rec(), action, rec("f0"))], tiny_schema)
        path = tmp_path / "m.mmdp"
        with pytest.raises(PreconditionError,
                           match=re.escape(f"cannot save action id {action!r}: it must "
                                           f"be a word, with no whitespace and no comma")):
            save_abstraction(m, path)
        assert not path.exists()

    def test_loaded_model_shares_action_tuples(self, tmp_path):
        # one tuple per distinct action text: sr5 at 30 episodes has 211 in 585 lines
        domain = mapex.get_domain("sr5")
        path = tmp_path / "sr5.mmdp"
        save_abstraction(build_abstraction(mapex.simulate("sr5", episodes=30, seed=42),
                                           domain.schema), path)
        actions = [a for _, a, _ in load_abstraction(path, domain.schema).counts]
        assert len(actions) == 585
        assert len({id(a) for a in actions}) == len(set(actions)) == 211

    def test_zero_padded_state_values_load_as_their_ints(self, tmp_path, sr3_domain,
                                                         sr3_abstraction):
        # every other state row pads its values, so 3 and 03 both occur
        def pad(lines):
            first = next(i for i, ln in enumerate(lines) if ln.startswith("states ")) + 1
            for i in range(first, first + sr3_abstraction.n_states, 2):
                num, bits = lines[i].split(" ")
                lines[i] = f"{num} " + ",".join("0" + b for b in bits.split(","))
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        padded = load_abstraction(rewrite_mmdp(path, tmp_path / "padded.mmdp", pad),
                                  sr3_domain.schema)
        assert padded == sr3_abstraction and padded.states == sr3_abstraction.states

    def test_wide_schema_loads_in_memory_bounded_by_the_file(self, tmp_path):
        # 24 features allow 2^24 agent values; a load must not grow with them
        schema = plain_schema(24, task_ids=("f23",))
        top = (1 << 24) - 1
        m = PolicyAbstraction(schema, 2, {((0, 7), ("a", "b"), (top, 1 << 23)): 2,
                                          ((0, 7), ("b", "b"), (5, 0)): 1,
                                          ((5, 0), ("a", "a"), (top, 1 << 23)): 1}, (0, 7))
        path = tmp_path / "wide.mmdp"
        save_abstraction(m, path)
        tracemalloc.start()
        try:
            loaded = load_abstraction(path, schema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == m and loaded.states == m.states
        assert peak < 256 * 1024

    def test_file_bytes_stable(self, tmp_path, sr3_abstraction):
        p1, p2 = tmp_path / "a.mmdp", tmp_path / "b.mmdp"
        save_abstraction(sr3_abstraction, p1)
        save_abstraction(sr3_abstraction, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_fails_checksum(self, tmp_path, sr3_domain,
                                           sr3_abstraction):
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        lines = path.read_text().splitlines()
        truncated = tmp_path / "bad.mmdp"
        truncated.write_text("\n".join(lines[:-5] + [lines[-1]]) + "\n")
        with pytest.raises(AbstractionFormatError):
            load_abstraction(truncated, sr3_domain.schema)

    def test_corrupted_line_fails_checksum(self, tmp_path, sr3_domain,
                                           sr3_abstraction):
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        lines = path.read_text().splitlines()
        middle = len(lines) // 2
        lines[middle] = lines[middle] + "0"
        bad = tmp_path / "bad.mmdp"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(AbstractionFormatError):
            load_abstraction(bad, sr3_domain.schema)

    def test_wrong_schema_rejected(self, tmp_path, sr3_abstraction):
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        with pytest.raises(SchemaMismatchError):
            load_abstraction(path, plain_schema(6))

    def test_version_rejected(self, tmp_path, sr3_domain, sr3_abstraction):
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        text = path.read_text().replace("mapex-mmdp 1", "mapex-mmdp 2", 1)
        body, _, _ = text.rpartition("checksum ")
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        bad = tmp_path / "v2.mmdp"
        bad.write_text(body + f"checksum {digest}\n")
        with pytest.raises(AbstractionFormatError):
            load_abstraction(bad, sr3_domain.schema)


class TestRoundTripEquality:
    # a saved and loaded model equals the model it was built as in every part
    # a reader sees, and answers every query with the same text

    @staticmethod
    def parts(m):
        index = m.query_index
        return {
            "states": m.states,
            "state_index": list(m.state_index.items()),
            "counts": list(m.counts.items()),
            "out_edges": [(s, [(e.source, e.action, e.target, e.count,
                                e.probability.hex()) for e in edges])
                          for s, edges in m.out_edges.items()],
            "initial_counts": list(m.initial_counts.items()),
            "enabled": list(index.enabled.items()),
            "actions": index.actions,
            "state_masks": index.state_masks,
        }

    @staticmethod
    def answers(m, domain):
        """The rendered text, or the error, of when, why-not and what queries
        of both methods on every relevance entry."""
        phrases = PhraseMap.from_domain(domain)
        state = m.states[len(m.states) // 2]
        texts = []
        for (agent, action), entry in sorted(domain.relevance.entries.items()):
            predicates = tuple(sorted(entry.features)) or domain.schema.predicate_ids[:1]
            for method in METHODS:
                for q in (Query("when", (agent,), method, actions=((agent, action),)),
                          Query("whynot", (agent,), method, actions=((agent, action),),
                                state=state),
                          Query("what", (agent,), method, predicates=predicates)):
                    try:
                        texts.append(render(answer(q, m, domain, max_vars=18), phrases))
                    except MapexError as exc:
                        texts.append(f"{type(exc).__name__}: {exc}")
        return texts

    def check(self, m, tmp_path, domain=None):
        path = tmp_path / "m.mmdp"
        save_abstraction(m, path)
        loaded = load_abstraction(path, m.schema)
        assert self.parts(loaded) == self.parts(m)
        if domain is not None:
            assert self.answers(loaded, domain) == self.answers(m, domain)

    @pytest.mark.parametrize("virtual_init", [False, True], ids=["init", "virtual-init"])
    @pytest.mark.parametrize("domain_id", domain_ids())
    def test_builtin(self, tmp_path, domain_id, virtual_init):
        domain = mapex.get_domain(domain_id)
        m = build_abstraction(mapex.simulate(domain_id, episodes=30, seed=42),
                              domain.schema, virtual_init=virtual_init)
        self.check(m, tmp_path, domain)

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("seed", range(10))
    def test_random_domain(self, tmp_path, seed, normalization):
        domain, lines = random_domain(seed)
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text("".join(json.dumps(ln) + "\n" for ln in lines))
        m = build_abstraction(read_trace(trace_path)[1], domain.schema,
                              normalization=normalization, virtual_init=True)
        self.check(m, tmp_path, domain)

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("seed", range(10))
    def test_random_layered(self, tmp_path, seed, normalization):
        built = random_layered_abstraction(seed)
        m = PolicyAbstraction(built.schema, 2, built.counts, built.initial_state,
                              normalization=normalization)
        self.check(m, tmp_path)


class TestMalformedFiles:
    # well-checksummed files the parser must still reject
    @pytest.mark.parametrize("case", sorted(MALFORMED_MMDP))
    def test_rejected(self, tmp_path, sr3_domain, sr3_abstraction, case):
        edit, message = MALFORMED_MMDP[case]
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        bad = rewrite_mmdp(path, tmp_path / "bad.mmdp", edit)
        with pytest.raises(AbstractionFormatError, match=re.escape(message)):
            load_abstraction(bad, sr3_domain.schema)


class TestMmdpDigests:
    # SHA-256 of the .mmdp that save_abstraction writes for
    # build_abstraction(simulate(d, episodes=30, seed=42)); any change to the
    # counts, the canonical order or the number formatting shows here
    DIGESTS = {
        "sr3": "965c24d6319de70f0f9e7f01caa1eaa4ba23c8fa29a3da943894ee827edf083a",
        "sr4": "43d438f4508a931b8c09a7094792a57b0e03cf3c3e0aaf8546b9145d70de0706",
        "sr5": "62dc013a62eab8870813d6daec13868a92d4c474031dcda0b5b3aa1dbe5c0e83",
        "rware2": "65a1684a3c0e41bc293b1209d721fbdbf5059d01fed9f665a9e3a227f54365d8",
        "rware4": "e27e093480ff8f9f1b3ad60ae3ae28cb28c41750bccbfa9f4e570cce68ef8e27",
        "rware19": "21fb68b009a7b4c90ee64b525389f82084eb7ee8e7034473bd4ce664ec06a8e4",
        "lbf2": "a97c84020f5b34b80bc17be3523cb5b7e9972f38964719d4d528df1acf2f8cd2",
        "lbf4": "dc40c9db2b63db5c934fdd585f85ba8f66e1d5e7d4ff5f9893d04aee83042386",
        "lbf9": "c9b978c9e46ef44abb2e2b35956bb1c7f5f6dac567644c118e22bcc8bf7420ae",
    }

    @pytest.mark.parametrize("domain_id", sorted(DIGESTS))
    def test_mmdp_bytes_pinned(self, domain_id, tmp_path):
        domain = mapex.get_domain(domain_id)
        m = build_abstraction(mapex.simulate(domain_id, episodes=30, seed=42),
                              domain.schema)
        path = tmp_path / f"{domain_id}.mmdp"
        save_abstraction(m, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[domain_id]
        assert load_abstraction(path, domain.schema) == m


class TestSoundnessChecksSurviveOptimize:
    # each snippet breaks an invariant the constructor checks, or the
    # probability mass that the probability column checks as it is computed
    # (a shadowed ``sum`` doubles each denominator's total); the check must
    # still raise with assert statements compiled out
    @pytest.mark.parametrize("code,message", [
        ("PolicyAbstraction(plain_schema(1), 1,\n"
         "    {((0,), ('a',), (1,)): 1, ((1,), ('a',), (2,)): 1}, (0,))\n",
         "state count 3 exceeds the 2^|F|^N bound 2"),
        ("abstraction.sum = lambda values: 2 * builtins.sum(values)\n"
         "PolicyAbstraction(plain_schema(1), 1, {((0,), ('a',), (1,)): 1}, (0,))"
         ".probabilities\n",
         "outgoing probability mass 0.5 != 1 for (0,)"),
        ("abstraction.sum = lambda values: 2 * builtins.sum(values)\n"
         "PolicyAbstraction(plain_schema(1), 1, {((0,), ('a',), (1,)): 1}, (0,),\n"
         "    normalization='state-action').probabilities\n",
         "outgoing probability mass 0.5 != 1 for ((0,), ('a',))"),
    ], ids=["state-bound", "state-mass", "state-action-mass"])
    def test_raises_under_optimize(self, code, message):
        prelude = ("import builtins\n"
                   "from mapex import abstraction\n"
                   "from mapex.abstraction import PolicyAbstraction\n"
                   "from synth import plain_schema\n")
        wrapped = (prelude + "try:\n"
                   + "".join("    " + ln + "\n" for ln in code.splitlines())
                   + "except AssertionError as exc:\n    print(exc)\n")
        run = self.run_optimized(wrapped)
        assert run.stdout == message + "\n", run.stderr

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_MMDP))
    def test_loaded_file_exits_2_under_optimize(self, tmp_path, sr3_abstraction, case):
        edit, message = BAD_MODEL_MMDP[case]
        path = tmp_path / "m.mmdp"
        save_abstraction(sr3_abstraction, path)
        bad = rewrite_mmdp(path, tmp_path / "bad.mmdp", edit)
        run = self.run_optimized(
            "import sys\nfrom mapex.cli import main\n"
            f"sys.exit(main(['summarize', '--mmdp', {str(bad)!r}, '--domain', 'sr3']))\n")
        assert (run.returncode, run.stderr) == (2, f"error: {message}\n")

    @staticmethod
    def run_optimized(code: str) -> subprocess.CompletedProcess:
        src = str(Path(mapex.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        path = os.pathsep.join([src, tests])
        return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
