import copy
import gc
import hashlib
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mapex
from mapex import (
    build_abstraction, get_domain, read_trace, save_abstraction, simulate, write_trace,
)
from mapex.domain import domain_to_dict
from mapex.envs import domain_ids, iter_trace
from mapex.envs import base, search_rescue
from mapex.envs.base import (
    WAIT,
    GenericScriptedPolicy,
    GridConfig,
    GridWorld,
    TaskSpec,
    chebyshev,
    run_episodes,
)
from mapex.errors import (
    PreconditionError,
    TraceFormatError,
    UnknownDomainError,
)
from mapex.trace import Record, TraceSample
from oracles import bfs_first_move

ALL_DOMAINS = [
    ("sr3", 30), ("sr4", 12), ("sr5", 12),
    ("rware2", 20), ("rware4", 12), ("rware19", 6),
    ("lbf2", 20), ("lbf4", 12), ("lbf9", 6),
]


class TestSimulatePreconditions:
    def test_zero_episodes_rejected(self):
        with pytest.raises(PreconditionError):
            list(simulate("sr3", episodes=0))

    def test_zero_max_steps_rejected(self):
        with pytest.raises(PreconditionError):
            list(simulate("sr3", episodes=1, max_steps=0))

    def test_unknown_domain(self):
        with pytest.raises(UnknownDomainError):
            list(simulate("sr6", episodes=1))
        with pytest.raises(UnknownDomainError):
            get_domain("nope")

    def test_unsupported_sr_agent_count(self):
        with pytest.raises(UnknownDomainError):
            get_domain("sr6")


class TestDeterminism:
    @pytest.mark.parametrize("domain_id,episodes", ALL_DOMAINS)
    def test_same_seed_same_stream(self, domain_id, episodes):
        first = list(simulate(domain_id, episodes=episodes, seed=7))
        second = list(simulate(domain_id, episodes=episodes, seed=7))
        assert first == second

    def test_different_seed_differs(self):
        a = list(simulate("sr3", episodes=30, seed=1))
        b = list(simulate("sr3", episodes=30, seed=2))
        assert a != b

    def test_trace_file_bytes_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(p1, "sr3", 3, simulate("sr3", episodes=20, seed=5))
        write_trace(p2, "sr3", 3, simulate("sr3", episodes=20, seed=5))
        assert p1.read_bytes() == p2.read_bytes()


class TestTraceDigests:
    # SHA-256 of write_trace(simulate(d, episodes=30, seed=42)); any change to
    # the scripted policies, their RNG draws or the record layout shows here
    DIGESTS = {
        "sr3": "791db5eacf2def9410da11d844a1fa78ba1238058e03922a28f083b80ba5786b",
        "sr4": "d4acb11bda3371b41540e0594dcb8a76f32a3d13e7c058a0d0d072cc598700d1",
        "sr5": "52df9ff604359f6e66ccfb0efd24b1a22d2a5f5f45dd1772bf66f824a0136442",
        "rware2": "8d6c764002bd7bd013bf4d514011bc2daaecbe5178d24bdb0ead49c5cfe7b48c",
        "rware4": "b26e9103bdd76dc34103f3d21b4a3ed196cb5c0ff80c8b3274a9fa53fa39aefe",
        "rware19": "6515b1ad71993262f5f8637bd169a6bd1476e0ff617cfa8d1c58afe22f12c553",
        "lbf2": "664d0acfac3be3a207ce75f9f882896d02cad28aea32c5a9a2ac2abbe3fc3dbb",
        "lbf4": "84abfba8b5ffd7b0b61b841fbccc9d4c809038e2321c29e6f4536f88db3d216e",
        "lbf9": "c64d0c74c625b3783e39975ebe746874ccc1d20c9e820712450ccd01ffa57386",
    }

    # the same at the explain workloads' sizes of the generic-policy domains,
    # whose runs reach many more task livenesses and routes
    LONG_DIGESTS = {
        ("sr5", 100): "8d0f321840a4bfbc70d9202f8dac2f5999c0e1910c7d87eecf39e29943db1458",
        ("lbf4", 50): "77d5a35df42105dbf8b0f0c77c3c3ad94307407d686c83c9eeb2a22f72070857",
        ("lbf9", 50): "ba749758f011fb42d265b9927d586fa03ac6a7ff5064ece79cd092e06b271cb8",
        ("rware19", 40): "d941b428adc69b7c4e6b2cd415d23eb8029d76770d973b469ef7a5740a07550d",
    }

    @pytest.mark.parametrize("domain_id", sorted(DIGESTS))
    def test_trace_bytes_pinned(self, domain_id, tmp_path):
        path = tmp_path / f"{domain_id}.jsonl"
        write_trace(path, domain_id, get_domain(domain_id).n_agents,
                    simulate(domain_id, episodes=30, seed=42))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[domain_id]

    @pytest.mark.parametrize("domain_id,episodes", sorted(LONG_DIGESTS))
    def test_long_trace_bytes_pinned(self, domain_id, episodes, tmp_path):
        path = tmp_path / f"{domain_id}.jsonl"
        write_trace(path, domain_id, get_domain(domain_id).n_agents,
                    simulate(domain_id, episodes=episodes, seed=42))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.LONG_DIGESTS[domain_id, episodes]


class TestWriteTraceReuse:
    def test_equal_but_distinct_states_written_in_full(self, tmp_path):
        # equal records can encode differently (key order, 0 against 0.0), so
        # only the previous next_state object itself may reuse its text
        first = ({"pos": [0, 1], "done": {"t": False}},)
        reordered = ({"done": {"t": False}, "pos": [0, 1]},)
        as_float = ({"pos": [0.0, 1.0], "done": {"t": False}},)
        assert first == reordered == as_float
        samples = [
            TraceSample(0, 0, first, (WAIT,), first),
            TraceSample(0, 1, reordered, (WAIT,), reordered),
            TraceSample(0, 2, reordered, ("move",), as_float),
            TraceSample(0, 3, first, (WAIT,), first),
            TraceSample(1, 0, first, (WAIT,), as_float),
        ]
        path = tmp_path / "t.jsonl"
        assert write_trace(path, "hand", 1, samples) == len(samples)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [_line(s) for s in samples]
        assert '"step":3,"state":[{"pos":[0,1],' in lines[4]

    def test_action_text_reused_only_for_equal_encodings(self, tmp_path):
        # a list-valued action is unhashable, and 1 == 1.0 == True encode apart
        state = ({"pos": [0, 1]},)
        actions = [("move",), ["move"], ("move",), (1,), (1.0,), (True,), [WAIT], (1,)]
        samples = [TraceSample(0, step, state, action, state)
                   for step, action in enumerate(actions)]
        path = tmp_path / "t.jsonl"
        write_trace(path, "hand", 1, samples)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line.split('"action":')[1].split(',"next_state"')[0]
                for line in lines[1:]] == ['["move"]'] * 3 + ["[1]", "[1.0]", "[true]",
                                           '["wait"]', "[1]"]

    def test_dict_changed_between_samples_is_written_as_it_then_is(self, tmp_path):
        # a caller may reuse one dict, changed in place, inside fresh tuples:
        # its text is made per sample, never remembered by the dict's identity
        record, expected = {"pos": [0, 0], "done": {"t": False}}, []

        def samples():
            for step in range(4):
                record["pos"][1], record["done"]["t"] = step, step == 3
                sample = TraceSample(0, step, (record,), (WAIT,), (record,))
                expected.append(_line(sample))
                yield sample

        path = tmp_path / "t.jsonl"
        assert write_trace(path, "hand", 1, samples()) == 4
        assert path.read_text(encoding="utf-8").splitlines()[1:] == expected
        assert '"pos":[0,3],"done":{"t":true}' in expected[-1]

    @pytest.mark.parametrize("domain_id,episodes", [
        *((d, 30) for d in domain_ids()), ("sr5", 100), ("lbf9", 100), ("rware19", 100)])
    def test_simulated_lines_match_json_dumps(self, domain_id, episodes, tmp_path):
        samples = list(simulate(domain_id, episodes=episodes, seed=42))
        path = tmp_path / "t.jsonl"
        write_trace(path, domain_id, get_domain(domain_id).n_agents, samples)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [_line(s) for s in samples]


def _line(s: TraceSample) -> str:
    """A sample's trace line as the standard library encodes it."""
    return json.dumps({"episode": s.episode_id, "step": s.step,
                       "state": list(s.joint_concrete_state),
                       "action": list(s.joint_action),
                       "next_state": list(s.next_joint_concrete_state)},
                      separators=(",", ":"))


class TestWriteTraceCycleCheck:
    def test_self_containing_record_raises_before_its_line(self, tmp_path):
        # the encoder's cycle check stays on: a record that contains itself
        # is refused, and the lines before it are whole
        loop = {"pos": [0, 0]}
        loop["self"] = loop
        good = ({"pos": [0, 0]},)
        samples = [TraceSample(0, 0, good, (WAIT,), good),
                   TraceSample(0, 1, good, (WAIT,), (loop,))]
        path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match="Circular reference detected"):
            write_trace(path, "hand", 1, samples)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and len(text.splitlines()) == 2
        assert all(json.loads(line) for line in text.splitlines())


class TestDomainDigests:
    # SHA-256 of json.dumps(domain_to_dict(get_domain(d))); any change to the
    # alphabets (and their order), phrases, schema or relevance shows here
    DIGESTS = {
        "sr3": "c843d052c46eda7189e75a7c5fadccc46b421d1931373aefe34b7142b34529ce",
        "sr4": "678ac10c24c649251c08c7a38fe03b7ce58b3bfd7edc1a704680ebd0d4d98f91",
        "sr5": "576f472c52d20a8d06a75df020f912e6ff10d5d02c0d356fe7a5a81100579d33",
        "rware2": "2eb2d0f6fb9703ab77e9ae723756211c5dc411bdb250daf229739d75563310bf",
        "rware4": "2484c190a88a6812e679f3d27d70ce07549504ade1a7a41b10a155d5612724a6",
        "rware19": "39415d9d3336e83592cf54769f400f91177bd8633ea88fa1e9a8cba33e38775d",
        "lbf2": "687feb393d2f1bc8eb7123c71dee48749a6830091a63b642f8cfa73d8f1d9cd2",
        "lbf4": "0346dcd42df5e608d1acc6522aa666124287503696b9b13a7481d72ef2b95235",
        "lbf9": "0235bc9830291553f1e348bf1c9c9973b7e524d0378239e9680c79a09573dd24",
    }

    @pytest.mark.parametrize("domain_id", sorted(DIGESTS))
    def test_domain_definition_pinned(self, domain_id):
        text = json.dumps(domain_to_dict(get_domain(domain_id)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[domain_id]


@st.composite
def grid_worlds(draw):
    """A small GridWorld with walls and tasks, some of them completed through
    ``resolve`` after every cell's BFS tree was cached under full liveness."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(2, 5))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    walls = draw(st.frozensets(st.sampled_from(cells), max_size=len(cells) // 2))
    task_cells = draw(st.lists(st.sampled_from(cells), unique=True, max_size=3))
    completed = draw(st.lists(st.booleans(), min_size=len(task_cells),
                              max_size=len(task_cells)))
    # one agent per task, on a Chebyshev neighbour of its cell, is the
    # task's only combo, so resolve completes exactly the chosen tasks
    starts = tuple(
        draw(st.sampled_from([x for x in cells if chebyshev(x, cell) == 1]))
        for cell in task_cells
    )
    tasks = tuple(TaskSpec(f"t{i}", cell, f"do_{i}", ((f"a{i}",),))
                  for i, cell in enumerate(task_cells))
    config = GridConfig(rows, cols, walls, starts, tasks)
    world = GridWorld(config, [f"a{i}" for i in range(len(tasks))])
    for cell in cells:
        world.first_steps(cell)
    world.resolve([t.action if done else WAIT for t, done in zip(tasks, completed)])
    assert [not world.alive[t.id] for t in tasks] == completed
    return world, cells


class TestTaskCombos:
    # an empty combo completed its task at the first step with no agent
    # acting, and a task with no combo made the policy's draw raise ValueError
    CASES = [(), ((),), (("a",), ())]

    @pytest.mark.parametrize("combos", CASES, ids=["no-combo", "empty-combo",
                                                   "one-empty-combo"])
    def test_each_combo_must_name_an_agent(self, combos):
        with pytest.raises(PreconditionError,
                           match="^task t needs combos, each naming an agent$"):
            TaskSpec("t", (0, 1), "do", combos)

    def test_refused_under_optimize(self):
        code = (
            "from mapex.envs.base import TaskSpec\n"
            "from mapex.errors import PreconditionError\n"
            f"for combos in {self.CASES!r}:\n"
            "    try:\n"
            "        TaskSpec('t', (0, 1), 'do', combos)\n"
            "    except PreconditionError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(mapex.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert run.stdout == "task t needs combos, each naming an agent\n" * 3, run.stderr


class TestBfsTree:
    @given(grid_worlds())
    @settings(max_examples=150, deadline=None)
    def test_tree_matches_per_goal_bfs(self, case):
        world, cells = case
        for start in cells:
            tree = world.first_steps(start)
            assert tree[start] == start
            for goal in cells:
                expected = bfs_first_move(world, start, goal)
                if expected is None:
                    assert goal not in tree, (start, goal)
                else:
                    assert tree[goal] == expected, (start, goal)

    def test_worlds_of_one_config_share_cells_not_liveness(self):
        # worlds of one run, as run_episodes builds them, share its tables
        config = GridConfig(1, 3, frozenset(), ((0, 0),),
                            (TaskSpec("t", (0, 1), "do", (("a",),)),))
        tables = {}
        first, second = GridWorld(config, ["a"], tables), GridWorld(config, ["a"], tables)
        assert first.first_steps((0, 0)) is second.first_steps((0, 0))
        first.resolve(["do"])
        assert first.passable((0, 1)) and not second.passable((0, 1))
        assert first.moves[(0, 0)] == ((0, 1), (0, 0))
        assert second.moves[(0, 0)] == ((0, 0),)
        assert (0, 2) not in second.first_steps((0, 0))
        third = GridWorld(config, ["a"], tables)
        third.resolve(["do"])
        assert third.moves is first.moves
        assert third.first_steps((0, 0)) is first.first_steps((0, 0))
        alone = GridWorld(config, ["a"])
        alone.resolve(["do"])
        assert alone.moves == first.moves and alone.moves is not first.moves
        assert alone.first_steps((0, 0)) is not first.first_steps((0, 0))

    def test_worlds_of_one_run_share_one_tree_per_liveness_and_start(self):
        names, config = search_rescue.grid(5)
        worlds, trees = [], []

        class Spy(GenericScriptedPolicy):
            def step(self, world, plans, rng):
                if not worlds or worlds[-1] is not world:  # an episode's first step
                    worlds.append(world)
                    trees.append(world.first_steps(world.positions[0]))
                return super().step(world, plans, rng)

        samples = list(run_episodes(Spy(config, names), 5, 50, 42))
        assert samples == list(simulate("sr5", episodes=5, seed=42))
        assert len({id(w) for w in worlds}) == 5
        assert all(tree is trees[0] for tree in trees)
        alone = GridWorld(config, names).first_steps(config.starts[0])
        assert alone == trees[0] and alone is not trees[0]

    def test_tree_shared_until_completion(self):
        config = GridConfig(1, 3, frozenset(), ((0, 0),),
                            (TaskSpec("t", (0, 1), "do", (("a",),)),))
        world = GridWorld(config, ["a"])
        tree = world.first_steps((0, 0))
        assert tree == {(0, 0): (0, 0)}
        assert world.first_steps((0, 0)) is tree
        world.resolve([WAIT])
        assert world.first_steps((0, 0)) is tree
        world.resolve(["do"])
        assert world.first_steps((0, 0))[(0, 2)] == (0, 1)

    @given(grid_worlds())
    @settings(max_examples=100, deadline=None)
    def test_route_matches_per_goal_bfs(self, case):
        # the staging cells are the task's reachable Chebyshev neighbours, in
        # sorted order; with none reachable the agent stays
        world, cells = case
        for task in world.config.tasks:
            ring = sorted(x for x in cells if chebyshev(x, task.cell) == 1)
            for start in cells:
                staging = [x for x in ring
                           if bfs_first_move(world, start, x) is not None] or [start]
                for rank in range(9):
                    expected = bfs_first_move(world, start, staging[rank % len(staging)])
                    assert world.route(start, task.cell, rank) == expected, (start, rank)

    def test_route_follows_completion(self):
        config = GridConfig(1, 3, frozenset(), ((0, 0),),
                            (TaskSpec("t", (0, 1), "do", (("a",),)),))
        tables = {}
        world = GridWorld(config, ["a"], tables)
        # only (0, 0) itself is reachable while the task blocks (0, 1)
        assert world.route((0, 0), (0, 1), 1) == (0, 0)
        world.resolve(["do"])
        # staging (0, 0), (0, 2): rank 1 heads through the freed cell
        assert world.route((0, 0), (0, 1), 1) == (0, 1)
        assert GridWorld(config, ["a"], tables).route((0, 0), (0, 1), 1) == (0, 0)


class TestTablesArePureCaches:
    @pytest.mark.parametrize("domain_id", domain_ids())
    def test_worlds_with_own_tables_step_alike(self, domain_id, monkeypatch):
        # worlds sharing one run's tables against worlds that keep their own:
        # the same joint actions and record texts, episode by episode
        def run():
            samples = list(simulate(domain_id, episodes=30, seed=42))
            by_episode = {}
            for s in samples:
                by_episode.setdefault(s.episode_id, []).append(
                    (s.joint_action, [r.text for r in s.joint_concrete_state],
                     [r.text for r in s.next_joint_concrete_state]))
            # which episodes each record object appears in
            owners = {}
            for s in samples:
                for r in s.next_joint_concrete_state:
                    owners.setdefault(id(r), set()).add(s.episode_id)
            return by_episode, max(map(len, owners.values()))

        shared, shared_reach = run()
        monkeypatch.setattr(base, "GridWorld",
                            lambda config, names, tables: GridWorld(config, names))
        own, own_reach = run()
        assert own_reach == 1 < shared_reach  # the worlds really kept their own
        assert len(own) == len(shared) == 30
        for episode in shared:
            assert own[episode] == shared[episode], episode


class TestEpisodeStartLines:
    def test_shared_records_write_as_equal_plain_dicts(self, tmp_path):
        # an episode's first state is joined from its records' texts, like
        # every next_state: escaping comes out as a whole-state encoding's
        plain = ({"pos": [0, 1], "name": 'say "hi"', "note": "caf\u00e9 \u2603"},
                 {"pos": [1, 1], "done": {"t": False}})
        after = ({"pos": [0, 2], "done": {"t": True}}, plain[1])

        def samples(make):
            first, nxt, again = (tuple(map(make, x)) for x in (plain, after, plain))
            return [TraceSample(0, 0, first, (WAIT, "move"), nxt),
                    TraceSample(1, 0, again, (WAIT, WAIT), first)]

        shared, dicts = tmp_path / "shared.jsonl", tmp_path / "dicts.jsonl"
        write_trace(shared, "hand", 2, samples(Record))
        write_trace(dicts, "hand", 2, samples(dict))
        assert shared.read_bytes() == dicts.read_bytes()
        lines = shared.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [_line(s) for s in samples(dict)]
        assert '"name":"say \\"hi\\"","note":"caf\\u00e9 \\u2603"' in lines[1]


class TestSharedRecords:
    def test_records_never_change_once_yielded(self):
        # records share task boards and flag dicts until a completion, which
        # builds new ones: every sample still encodes as it did when yielded
        samples, texts = [], []
        for s in simulate("sr5", episodes=30, seed=42):
            samples.append(s)
            texts.append(json.dumps([s.joint_concrete_state, s.next_joint_concrete_state]))
        assert any(s.joint_concrete_state[0]["tasks"] != s.next_joint_concrete_state[0]["tasks"]
                   for s in samples)  # the run crosses completions
        assert texts == [json.dumps([s.joint_concrete_state, s.next_joint_concrete_state])
                         for s in samples]

    def test_encoded_records_copy_and_pickle_as_plain_dicts(self, sr3_trace_path):
        samples = list(simulate("sr3", episodes=2, seed=42))
        _, read = read_trace(sr3_trace_path)
        for run in (samples, read):
            build_abstraction(run, get_domain("sr3").schema)
            for copied in (pickle.loads(pickle.dumps(run)), copy.deepcopy(run)):
                assert copied == run
                assert {type(r) for s in copied for r in s.next_joint_concrete_state} == {dict}

    @pytest.mark.parametrize("domain_id", ["sr5", "lbf9"])
    def test_equal_records_of_one_run_are_one_object(self, domain_id):
        # a record is equal to another only at the same cell, task liveness
        # (its board) and flags, where the run hands out one shared object
        runs = []
        for _ in range(2):
            by_text, episodes, n = {}, {}, 0
            for s in simulate(domain_id, episodes=30, seed=42):
                for rec in (*s.joint_concrete_state, *s.next_joint_concrete_state):
                    text = json.dumps(rec, sort_keys=True)
                    assert by_text.setdefault(text, rec) is rec
                    episodes.setdefault(text, set()).add(s.episode_id)
                    n += 1
            assert max(map(len, episodes.values())) == 30  # shared across episodes
            assert len(by_text) * 10 < n
            runs.append(by_text)  # alive, so no id is reused in the second run
        assert not {*map(id, runs[0].values())} & {*map(id, runs[1].values())}


def _fields(s: TraceSample) -> list:
    """A sample as the list of its line's decoded values, in the writer's key order."""
    return [s.episode_id, s.step, list(s.joint_concrete_state), list(s.joint_action),
            list(s.next_joint_concrete_state)]


class TestReaderRecords:
    """One reader call hands out one record per distinct agent-record text."""

    @pytest.mark.parametrize("domain_id", domain_ids())
    def test_samples_equal_json_loads_of_their_lines(self, domain_id, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, domain_id, get_domain(domain_id).n_agents,
                    simulate(domain_id, episodes=30, seed=42))
        header, *lines = path.read_text().splitlines()
        samples = iter_trace(path)
        assert next(samples) == json.loads(header)
        assert [*map(_fields, samples)] == [[*json.loads(line).values()] for line in lines]

    def test_equal_record_texts_of_one_call_are_one_object(self, sr3_trace_path):
        calls = []
        for _ in range(2):
            by_text, n = {}, 0
            samples = iter_trace(sr3_trace_path)
            next(samples)
            for s in samples:
                for rec in (*s.joint_concrete_state, *s.next_joint_concrete_state):
                    assert by_text.setdefault(json.dumps(rec), rec) is rec
                    n += 1
            assert len(by_text) * 100 < n
            calls.append(by_text)  # alive, so no id is reused in the second call
        assert not {*map(id, calls[0].values())} & {*map(id, calls[1].values())}

    @pytest.mark.parametrize("domain_id", ["sr5", "lbf9"])
    def test_a_smaller_table_gives_the_same_model(self, domain_id, tmp_path, monkeypatch):
        # the table is cleared whenever it is full, which changes no output
        trace = tmp_path / "t.jsonl"
        write_trace(trace, domain_id, get_domain(domain_id).n_agents,
                    simulate(domain_id, episodes=30, seed=42))

        def model(out):
            samples = iter_trace(trace)
            next(samples)
            save_abstraction(build_abstraction(samples, get_domain(domain_id).schema), out)
            return out.read_bytes()

        full = model(tmp_path / "full.mmdp")
        monkeypatch.setattr("mapex.trace._RECORD_TABLE_SIZE", 3)
        _, samples = read_trace(trace)
        records = {id(r) for s in samples for r in s.next_joint_concrete_state}
        texts = {json.dumps(r) for s in samples for r in s.next_joint_concrete_state}
        assert len(records) > len(texts)  # cleared: equal texts, several objects
        assert model(tmp_path / "small.mmdp") == full


class TestScriptedSr3:
    def test_single_episode_completes_all_tasks(self):
        # seed 42 episode 0 runs the main branch: UAV+UGV_2 rescue, both UGVs
        # remove the obstacle, UAV fights the fire; 11 steps, hand-checked
        samples = list(simulate("sr3", episodes=1, seed=42))
        assert len(samples) == 11
        final = samples[-1].next_joint_concrete_state
        uav, ugv1, ugv2 = final
        assert uav["done"] == {"victim": True, "fire": True, "obstacle": False}
        assert ugv1["done"] == {"victim": False, "fire": False, "obstacle": True}
        assert ugv2["done"] == {"victim": True, "fire": False, "obstacle": True}
        assert all(not rec["tasks"][t]["present"]
                   for rec in final for t in ("victim", "fire", "obstacle"))

    def test_completion_order_victim_obstacle_fire(self):
        samples = list(simulate("sr3", episodes=1, seed=42))

        def completion_step(task):
            for s in samples:
                if any(rec["done"][task] for rec in s.next_joint_concrete_state):
                    return s.step
            raise AssertionError(f"{task} never completed")

        assert completion_step("victim") < completion_step("obstacle")
        assert completion_step("obstacle") < completion_step("fire")

    def test_all_branches_reachable(self):
        # every branch must appear in a modest episode budget
        partners = set()
        for episode in range(60):
            samples = list(simulate("sr3", episodes=episode + 1, seed=42))
            final = [s for s in samples if s.episode_id == episode][-1]
            rescuers = tuple(
                i for i, rec in enumerate(final.next_joint_concrete_state)
                if rec["done"]["victim"]
            )
            partners.add(rescuers)
        assert partners == {(0, 2), (0, 1)}


    @pytest.mark.parametrize("step,entry,message", [
        (0, ((2, 1), "move"), "UAV step 0: scripted at (2, 1), world has (2, 0)"),
        (1, ((0, 0), "move"), "UAV step 0: move (2, 0) -> (0, 0) is not a one-cell step"),
        (3, ((0, 2), "wait"), "UAV step 2: move into blocked (0, 2)"),
        (1, ((1, 0), "wait"), "UAV step 1: wait moves (1, 0) -> (1, 1)"),
    ], ids=["position", "distance", "blocked", "wait-moves"])
    def test_legality_checks_survive_optimize(self, step, entry, message):
        # a script inconsistent with the map must stop the run even with
        # assert statements compiled out; seed 42 episode 0 runs this branch
        code = (
            "from mapex.envs import search_rescue as sr, simulate\n"
            f"sr._SR3_PLANS['uav_first_ugv2']['UAV'][{step}] = {entry!r}\n"
            "try:\n"
            "    list(simulate('sr3', episodes=1, max_steps=50, seed=42))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(mapex.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src),
                             timeout=60)
        assert run.stdout == message + "\n", run.stderr


class TestEpisodeInvariants:
    @pytest.mark.parametrize("domain_id,episodes", ALL_DOMAINS)
    def test_flag_monotonicity_and_atomicity(self, domain_id, episodes):
        domain = get_domain(domain_id)
        task_ids = [t[: -len("_complete")] for t in domain.schema.task_completion_ids]
        by_episode = {}
        for s in simulate(domain_id, episodes=episodes, seed=11):
            by_episode.setdefault(s.episode_id, []).append(s)
        for episode_samples in by_episode.values():
            rising_steps = {t: set() for t in task_ids}
            for s in episode_samples:
                for i in range(domain.n_agents):
                    before = s.joint_concrete_state[i]["done"]
                    after = s.next_joint_concrete_state[i]["done"]
                    for t in task_ids:
                        assert not (before[t] and not after[t]), "completion flag fell"
                        if after[t] and not before[t]:
                            rising_steps[t].add(s.step)
            for t, steps in rising_steps.items():
                # cooperation atomicity: all participants' flags rise together
                assert len(steps) <= 1, f"{t} completed at several steps {steps}"

    @pytest.mark.parametrize("domain_id,episodes", ALL_DOMAINS)
    def test_steps_consecutive_and_chained(self, domain_id, episodes):
        by_episode = {}
        for s in simulate(domain_id, episodes=episodes, seed=3):
            by_episode.setdefault(s.episode_id, []).append(s)
        for episode_samples in by_episode.values():
            for i, s in enumerate(episode_samples):
                assert s.step == i
                if i:
                    prev = episode_samples[i - 1]
                    assert prev.next_joint_concrete_state == s.joint_concrete_state


class TestSrDomainDefinition:
    def test_sr3_schema(self, sr3_domain):
        assert sr3_domain.schema.predicate_ids == (
            "victim_detect", "victim_complete",
            "fire_detect", "fire_complete",
            "obstacle_detect", "obstacle_complete",
        )
        assert sr3_domain.schema.n_features == 6
        assert sr3_domain.schema.task_completion_ids == (
            "victim_complete", "fire_complete", "obstacle_complete",
        )

    def test_sr3_rescue_relevance(self, sr3_domain):
        entry = sr3_domain.relevance.get("UAV", "rescue_victim")
        assert entry.agents == {"UAV", "UGV_1", "UGV_2"}
        assert entry.features == {"victim_detect", "victim_complete"}
        assert set(entry.action_sets) == {
            frozenset({("UAV", "rescue_victim"), ("UGV_1", "rescue_victim")}),
            frozenset({("UAV", "rescue_victim"), ("UGV_2", "rescue_victim")}),
        }

    def test_registered_domains(self):
        assert set(domain_ids()) == {
            "sr3", "sr4", "sr5", "rware2", "rware4", "rware19",
            "lbf2", "lbf4", "lbf9",
        }


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        samples = list(simulate("lbf2", episodes=5, seed=9))
        path = tmp_path / "t.jsonl"
        count = write_trace(path, "lbf2", 2, samples)
        header, loaded = read_trace(path)
        assert count == len(samples) == len(loaded)
        assert header["domain"] == "lbf2"
        assert [s.joint_action for s in loaded] == [
            tuple(s.joint_action) for s in samples
        ]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"episode":0}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_broken_step_sequence(self, tmp_path, sr3_trace_path):
        lines = sr3_trace_path.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        rec = json.loads(lines[2])
        rec["step"] = 5
        bad.write_text("\n".join([lines[0], lines[1], json.dumps(rec)]) + "\n")
        with pytest.raises(TraceFormatError):
            read_trace(bad)

    def test_version_check(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text('{"format":"mapex-trace","version":9}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)


def _compact(rec) -> str:
    return json.dumps(rec, separators=(",", ":"))


def _mmdp(trace, out) -> bytes:
    """The .mmdp bytes of an sr3 trace, built from its streamed samples."""
    samples = iter_trace(trace)
    next(samples)
    save_abstraction(build_abstraction(samples, get_domain("sr3").schema), out)
    return out.read_bytes()


class TestStreamingReader:
    """A compact record whose state text repeats the previous next_state is
    decoded from "action" on; every result equals a full decode's."""

    @pytest.fixture()
    def trace(self, sr3_trace_path):
        header, *records = sr3_trace_path.read_text().splitlines()
        return header, [json.loads(r) for r in records]

    @staticmethod
    def write(path, header, records, dump=_compact):
        path.write_text("\n".join([header, *map(dump, records)]) + "\n")
        return path

    def test_writer_output_decodes_each_state_once(self, sr3_trace_path, monkeypatch):
        # only the header takes a full decode
        loads = json.loads
        full = []
        monkeypatch.setattr(json, "loads", lambda text: full.append(text) or loads(text))
        _, samples = read_trace(sr3_trace_path)
        assert len(full) == 1
        assert all(s.joint_concrete_state is p.next_joint_concrete_state
                   for p, s in zip(samples, samples[1:]) if s.step)

    def test_nested_next_state_key(self, trace, tmp_path, sr3_trace_path):
        # the next_state's text is the span raw_decode consumed, so a nested
        # "next_state" key (even inside a string) cannot end it early
        header, records = trace
        k = next(i for i, r in enumerate(records) if r["step"] == 3)
        extra = {"next_state": [{"pos": [0, 0]}], "note": '],"next_state":[1]}'}
        records[k]["next_state"][0]["next_state"] = extra
        records[k + 1]["state"][0]["next_state"] = extra
        bad = self.write(tmp_path / "nested.jsonl", header, records)
        _, samples = read_trace(bad)
        assert samples[k + 1].joint_concrete_state is samples[k].next_joint_concrete_state
        assert samples[k].next_joint_concrete_state[0]["next_state"] == extra
        assert _mmdp(bad, tmp_path / "a.mmdp") == _mmdp(sr3_trace_path, tmp_path / "b.mmdp")

    def test_one_byte_off_does_not_chain(self, trace, tmp_path):
        header, records = trace
        k = next(i for i, r in enumerate(records) if r["step"] == 3)
        line = _compact(records[k])
        at = line.index('"state":[{"pos":[') + len('"state":[{"pos":[')
        off = line[:at] + str((int(line[at]) + 1) % 10) + line[at + 1:]
        lines = [header, *map(_compact, records)]
        lines[k + 1] = off
        bad = tmp_path / "off.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(bad)
        assert str(exc.value) == (
            f"{bad}:{k + 2}: episode {records[k]['episode']} state at step 3 does "
            f"not chain from the previous next_state")

    def test_repeated_state_text_keeps_episode_and_step(self, trace, tmp_path):
        header, records = trace
        ep0 = [r for r in records if r["episode"] == 0]
        last = ep0[-1]
        fresh = {**last, "episode": 1, "step": 0, "state": last["next_state"]}
        _, samples = read_trace(self.write(tmp_path / "fresh.jsonl", header, ep0 + [fresh]))
        assert (samples[-1].episode_id, samples[-1].step) == (1, 0)
        skipped = {**fresh, "episode": 0, "step": last["step"] + 2}
        bad = self.write(tmp_path / "skip.jsonl", header, ep0 + [skipped])
        with pytest.raises(TraceFormatError) as exc:
            read_trace(bad)
        assert str(exc.value) == (f"{bad}:{len(ep0) + 2}: episode 0 step {last['step'] + 2}, "
                                  f"expected {last['step'] + 1}")

    def test_nan_chains_in_every_layout(self, trace, tmp_path):
        # json decodes every NaN to one float object, so equal text gives
        # equal states (NaN != NaN, but containers compare by identity first)
        header, records = trace
        k = next(i for i, r in enumerate(records) if r["step"] == 3)
        records[k]["next_state"][0]["x"] = records[k + 1]["state"][0]["x"] = float("nan")
        compact = self.write(tmp_path / "compact.jsonl", header, records)
        spaced = self.write(tmp_path / "spaced.jsonl", header, records, json.dumps)
        assert read_trace(compact) == read_trace(spaced)

    def test_other_layouts_read_alike(self, trace, tmp_path, sr3_trace_path):
        header, records = trace
        spaced = self.write(tmp_path / "spaced.jsonl", header, records,
                            lambda r: json.dumps(dict(reversed(r.items()))))
        assert (_mmdp(spaced, tmp_path / "a.mmdp")
                == _mmdp(sr3_trace_path, tmp_path / "b.mmdp"))

    def test_interleaved_episodes(self, trace, tmp_path):
        header, records = trace
        first, second = ([r for r in records if r["episode"] == e] for e in (0, 1))
        rest = [r for r in records if r["episode"] > 1]
        woven = [r for pair in zip(first, second) for r in pair]
        n = len(woven) // 2
        woven += first[n:] + second[n:]
        a = self.write(tmp_path / "woven.jsonl", header, woven + rest)
        b = self.write(tmp_path / "seq.jsonl", header, first + second + rest)
        assert _mmdp(a, tmp_path / "a.mmdp") == _mmdp(b, tmp_path / "b.mmdp")

    @pytest.mark.parametrize("edit,message", [
        (lambda line: line + " x", None),
        (lambda line: line.replace('"action":["', '"action":["a b","', 1),
         "action must be a list of strings without commas or spaces"),
        (lambda line: line[:line.index(',"next_state":')] + ',"next_state":7}',
         "record missing fields"),
        (lambda line: line[:line.index(',"next_state":')] + "}", "record missing fields"),
    ], ids=["trailing-text", "action-with-space", "number-next-state", "no-next-state"])
    def test_faults_after_a_repeated_state(self, trace, tmp_path, edit, message):
        header, records = trace
        k = next(i for i, r in enumerate(records) if r["step"] == 4)
        lines = [header, *map(_compact, records)]
        lines[k + 1] = edit(lines[k + 1])
        if message is None:
            with pytest.raises(json.JSONDecodeError) as exc:
                json.loads(lines[k + 1])
            message = f"bad record: {exc.value}"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(bad)
        assert str(exc.value) == f"{bad}:{k + 2}: {message}"

    # each fault as an edit of the decoded record, a text appended to its line,
    # and the message; None is json.loads's own message for the line, and
    # DEEP stands for an action nested too deep to decode
    FAULTS = {
        "trailing-text": (lambda r: None, " x", None),
        "action-with-space": (lambda r: r["action"].insert(0, "a b"), "",
                              "action must be a list of strings without commas or spaces"),
        "number-next-state": (lambda r: r.update(next_state=7), "", "record missing fields"),
        "no-next-state": (lambda r: r.pop("next_state"), "", "record missing fields"),
        "action-cut": (lambda r: r["action"].pop(), "",
                       "state, action and next_state must hold 3 agents, as the header says"),
        "next-state-cut": (lambda r: r["next_state"].pop(), "",
                           "state, action and next_state must hold 3 agents, "
                           "as the header says"),
        "string-action": (lambda r: r.update(action="ab"), "",
                          "action must be a list of strings without commas or spaces"),
        "number-action": (lambda r: r.update(action=5), "", "record missing fields"),
        "deep-action": (lambda r: r.update(action="DEEP"), "", None),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("dump", [_compact, json.dumps], ids=["writer", "spaced"])
    def test_fault_reads_alike_in_both_layouts(self, trace, tmp_path, fault, dump):
        # the writer's layout takes the compact decode where it can, json.dumps's
        # spacing the full decode; both must give the same error at the same line
        header, records = trace
        k = next(i for i, r in enumerate(records) if r["step"] == 4)
        edit, suffix, message = self.FAULTS[fault]
        edit(records[k])
        lines = [header, *map(dump, records)]
        lines[k + 1] = lines[k + 1].replace('"DEEP"', "[" * 100_000 + "]" * 100_000) + suffix
        assert records[k]["state"] == records[k - 1]["next_state"]  # a repeated state
        if message is None:
            with pytest.raises((ValueError, RecursionError)) as exc:
                json.loads(lines[k + 1])
            message = f"bad record: {exc.value}"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(bad)
        assert str(exc.value) == f"{bad}:{k + 2}: {message}"

    # each case as an edit of the agent list that is record k's next_state
    # and record k + 1's state, and an edit of record k + 1's line
    AGENT_CASES = {
        "list-of-dicts": (  # two records alike up to the "},{" inside them
            lambda agents: agents.__setitem__(slice(2), [{"items": [{"a": 1}, {"b": 2}]},
                                                         {"items": [{"a": 1}, {"c": 3}]}]),
            str),
        "self-and-text-keys": (lambda agents: agents[1].update({"self": 1, "text": "x"}), str),
        "spaced-inside-a-record": (lambda agents: None,
                                   lambda line: line.replace('"pos":[', '"pos": [')),
        "spaced-between-records": (lambda agents: None,
                                   lambda line: line.replace('},{"pos"', '}, {"pos"')),
        "non-dict-agent": (
            lambda agents: agents.__setitem__(2, [{"pos": [0, 0]}, {"pos": [1, 1]}]), str),
        "cut-record": (lambda agents: None, lambda line: line.replace("}", "", 1)),
    }

    @pytest.mark.parametrize("case", sorted(AGENT_CASES))
    @pytest.mark.parametrize("dump", [_compact, json.dumps], ids=["writer", "spaced"])
    def test_agent_records_read_alike_in_both_layouts(self, trace, tmp_path, case, dump):
        # every layout reads as a full decode of each line does: the same
        # samples, or json.loads's error at the same line
        header, records = trace
        k = next(i for i, r in enumerate(records) if r["step"] == 4)
        edit, edit_line = self.AGENT_CASES[case]
        edit(records[k]["next_state"])
        edit(records[k + 1]["state"])
        lines = [header, *map(dump, records)]
        lines[k + 2] = edit_line(lines[k + 2])
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        try:
            full = [[*json.loads(line).values()] for line in lines[1:]]
        except ValueError as exc:
            with pytest.raises(TraceFormatError) as err:
                read_trace(path)
            assert str(err.value) == f"{path}:{k + 3}: bad record: {exc}"
        else:
            assert [*map(_fields, read_trace(path)[1])] == full

    def test_clean_trace_reads_alike_in_both_layouts(self, trace, tmp_path):
        header, records = trace
        compact = self.write(tmp_path / "compact.jsonl", header, records)
        spaced = self.write(tmp_path / "spaced.jsonl", header, records, json.dumps)
        assert read_trace(compact) == read_trace(spaced)

    @pytest.mark.parametrize("line", [0, 1], ids=["header", "record"])
    def test_integer_over_the_digit_limit(self, trace, tmp_path, line):
        # int() refuses more than 4300 digits with a ValueError, not a JSONDecodeError
        header, records = trace
        lines = [header, _compact(records[0])]
        lines[line] = lines[line].replace("1", "9" * 5000, 1)
        bad = tmp_path / "big.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        where = ": bad header" if line == 0 else ":2: bad record"
        with pytest.raises(TraceFormatError, match=f"{where}: Exceeds the limit"):
            read_trace(bad)

    def test_abandoned_iterator_leaves_no_open_file(self, sr3_trace_path):
        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                samples = iter_trace(sr3_trace_path)
                next(samples), next(samples)
                del samples
                gc.collect()
        finally:
            sys.unraisablehook = hook
        assert unraisable == []
