import hashlib
import math

import pytest

from mapex import (
    PolicyAbstraction,
    build_abstraction,
    get_domain,
    most_probable_path,
    render_chart,
    simulate,
    summarize,
)
from mapex.errors import PreconditionError, UnreachableGoalError
from oracles import best_path_product
from synth import big_layered_abstraction, plain_schema, random_layered_abstraction


def single_agent_mmdp(counts, initial=(0,), task_ids=("f1",), n_features=2):
    schema = plain_schema(n_features, task_ids=task_ids)
    return PolicyAbstraction(schema, 1, counts, initial)


class TestMostProbablePath:
    def test_linear_chain(self):
        # s0 -> s1 -> s2, all probability one; f1 (bit 2) marks the goal
        m = single_agent_mmdp({
            ((0,), ("a",), (1,)): 1,
            ((1,), ("a",), (2,)): 1,
        })
        path = most_probable_path(m)
        assert path.states == ((0,), (1,), (2,))
        assert path.actions == (("a",), ("a",))
        assert path.log_probability == 0.0

    def test_diamond_prefers_heavier_branch(self):
        m = single_agent_mmdp({
            ((0,), ("a",), (1,)): 9,
            ((0,), ("b",), (4,)): 1,
            ((1,), ("a",), (2,)): 1,
            ((4,), ("a",), (2,)): 1,
        }, n_features=3, task_ids=("f1",))
        path = most_probable_path(m)
        assert path.states == ((0,), (1,), (2,))
        assert math.isclose(path.probability, 0.9)

    @staticmethod
    def noisy_tie(via_a):
        """(0,) -b-> (2,) and (0,) -a-> (1,) -a-> ``via_a`` are equally likely
        (1/18 = 1/3 * 1/6), but the route through (1,) is float-shorter."""
        return single_agent_mmdp({
            ((0,), ("a",), (1,)): 6,
            ((0,), ("b",), (2,)): 1,
            ((0,), ("c",), (0,)): 11,
            ((1,), ("a",), via_a): 1,
            ((1,), ("c",), (1,)): 5,
        })

    def test_float_noise_does_not_break_predecessor_ties(self):
        assert -math.log(6 / 18) - math.log(1 / 6) < -math.log(1 / 18)
        # the float-shorter route has the larger predecessor key: (1, a)
        # against (0, b)
        path = most_probable_path(self.noisy_tie((2,)))
        assert path.states == ((0,), (2,))
        assert path.actions == (("b",),)
        assert path.log_probability == math.log(1 / 18)

    def test_float_noise_does_not_break_goal_ties(self):
        # goal (3,) is float-nearer than goal (2,); the smaller index settles
        path = most_probable_path(self.noisy_tie((3,)))
        assert path.states == ((0,), (2,))

    def test_matches_bruteforce_on_random_mmdps(self):
        for seed in range(12):
            m = random_layered_abstraction(seed)
            expected = best_path_product(m)
            path = most_probable_path(m)
            assert expected is not None
            assert abs(path.probability - expected) <= 1e-12

    def test_matches_bruteforce_from_weighted_initial_states(self):
        # no built-in model starts from more than one abstract state; these do,
        # and the best start is not always the most frequent one
        lighter_start = False
        for seed in range(12):
            m = random_layered_abstraction(seed, n_initial=3 + seed % 3)
            assert len(m.initial_counts) == 3 + seed % 3
            path = most_probable_path(m)
            assert abs(path.probability - best_path_product(m)) <= 1e-12
            lighter_start |= m.initial_counts[path.states[0]] < max(m.initial_counts.values())
        assert lighter_start

    def test_no_goal_states_at_all(self):
        # (1,) has only f0 set, so no state satisfies the f1 task predicate
        with pytest.raises(UnreachableGoalError) as exc:
            most_probable_path(single_agent_mmdp({((0,), ("a",), (1,)): 1}))
        assert exc.value.frontier_size == 0

    def test_unreachable_but_present_goal(self):
        m = single_agent_mmdp({
            ((0,), ("a",), (1,)): 1,
            ((2,), ("a",), (3,)): 1,   # goal region disconnected from (0,)
        })
        with pytest.raises(UnreachableGoalError) as exc:
            most_probable_path(m)
        assert exc.value.frontier_size == 2

    def test_virtual_init_weights_initial_distribution(self):
        schema = plain_schema(2, task_ids=("f1",))
        m = PolicyAbstraction(
            schema, 1,
            {
                ((0,), ("a",), (2,)): 1,
                ((1,), ("a",), (2,)): 1,
            },
            (0,),
            initial_counts={(0,): 1, (1,): 3},
        )
        path = most_probable_path(m)
        assert path.states[0] == (1,)
        assert math.isclose(path.probability, 0.75)


class TestPathPins:
    # the most probable path of every built-in at seed 42: its length, the repr
    # of its log probability, and the first 16 hex digits of the sha256 of the
    # reprs of its states and actions
    PINS = {
        ("lbf2", 30, False): (6, "-6.026569051416515", "e6d67c04432dd547"),
        ("lbf2", 30, True): (6, "-6.026569051416515", "e6d67c04432dd547"),
        ("lbf2", 100, False): (6, "-6.405897249018411", "d0a71a3d2611a2ab"),
        ("lbf2", 100, True): (6, "-6.405897249018411", "d0a71a3d2611a2ab"),
        ("lbf4", 30, False): (7, "-5.938854596835685", "e880e48efc7863f6"),
        ("lbf4", 30, True): (7, "-5.938854596835685", "e880e48efc7863f6"),
        ("lbf4", 100, False): (5, "-7.5965178612242585", "566519ea71553feb"),
        ("lbf4", 100, True): (5, "-7.5965178612242585", "566519ea71553feb"),
        ("lbf9", 30, False): (15, "-5.049856007249537", "30a94ca487e2b41f"),
        ("lbf9", 30, True): (15, "-5.049856007249537", "30a94ca487e2b41f"),
        ("lbf9", 100, False): (4, "-5.934894195619588", "e8f430bca20ec4b7"),
        ("lbf9", 100, True): (4, "-5.934894195619588", "e8f430bca20ec4b7"),
        ("rware19", 30, False): (7, "-3.4011973816621555", "5da2474bc8a8a437"),
        ("rware19", 30, True): (7, "-3.4011973816621555", "5da2474bc8a8a437"),
        ("rware19", 100, False): (7, "-4.624972813284271", "5da2474bc8a8a437"),
        ("rware19", 100, True): (7, "-4.624972813284271", "5da2474bc8a8a437"),
        ("rware2", 30, False): (6, "-4.3125822410286245", "b879840da62a7be2"),
        ("rware2", 30, True): (6, "-4.3125822410286245", "b879840da62a7be2"),
        ("rware2", 100, False): (6, "-4.558907874333919", "b879840da62a7be2"),
        ("rware2", 100, True): (6, "-4.558907874333919", "b879840da62a7be2"),
        ("rware4", 30, False): (5, "-4.980012433882273", "b37b244c7f61e966"),
        ("rware4", 30, True): (5, "-4.980012433882273", "b37b244c7f61e966"),
        ("rware4", 100, False): (5, "-6.214419250804369", "bdf5cfa39855ea3e"),
        ("rware4", 100, True): (5, "-6.214419250804369", "bdf5cfa39855ea3e"),
        ("sr3", 30, False): (8, "-2.4849066497880004", "d8301e224f8c542b"),
        ("sr3", 30, True): (8, "-2.4849066497880004", "d8301e224f8c542b"),
        ("sr3", 100, False): (8, "-2.494956985641502", "d8301e224f8c542b"),
        ("sr3", 100, True): (8, "-2.494956985641502", "d8301e224f8c542b"),
        ("sr4", 30, False): (7, "-8.956307967628227", "d7e4b3b4383324dc"),
        ("sr4", 30, True): (7, "-8.956307967628227", "d7e4b3b4383324dc"),
        ("sr4", 100, False): (7, "-12.43969444113201", "d7e4b3b4383324dc"),
        ("sr4", 100, True): (7, "-12.43969444113201", "d7e4b3b4383324dc"),
        ("sr5", 30, False): (6, "-7.426549072397304", "5f6d1a903dee0058"),
        ("sr5", 30, True): (6, "-7.426549072397304", "5f6d1a903dee0058"),
        ("sr5", 100, False): (7, "-9.974411890872828", "cebf5f0b25ad0ab1"),
        ("sr5", 100, True): (7, "-9.974411890872828", "cebf5f0b25ad0ab1"),
    }

    @pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: "{}-{}-{}".format(
        c[0], c[1], "virtual" if c[2] else "single"))
    def test_builtin_path_pinned(self, case):
        domain_id, episodes, virtual_init = case
        m = build_abstraction(simulate(domain_id, episodes=episodes, seed=42),
                              get_domain(domain_id).schema, virtual_init=virtual_init)
        path = most_probable_path(m)
        digest = hashlib.sha256(f"{path.states!r}\n{path.actions!r}".encode()).hexdigest()
        assert (len(path), repr(path.log_probability), digest[:16]) == self.PINS[case]

    @pytest.mark.parametrize("build, message", [
        (lambda: build_abstraction(simulate("sr5", episodes=3, max_steps=2, seed=42),
                                   get_domain("sr5").schema),
         "no goal state reachable from the initial state (search settled 0 states)"),
        (lambda: single_agent_mmdp({((0,), ("a",), (1,)): 1, ((2,), ("a",), (3,)): 1}),
         "no goal state reachable from the initial state (search settled 2 states)"),
    ], ids=["no-goal", "goal-out-of-reach"])
    def test_refused_model_pinned(self, build, message):
        with pytest.raises(UnreachableGoalError) as exc:
            most_probable_path(build())
        assert str(exc.value) == message


class TestSummarize:
    def test_sr3_chart_matches_worked_example(self, sr3_domain, sr3_abstraction):
        chart = summarize(sr3_abstraction)
        assert len(chart.columns) == 3
        uav, ugv1, ugv2 = range(3)
        t1, t2, t3 = chart.columns
        assert t1[uav] == {"victim_complete"} and t1[ugv2] == {"victim_complete"}
        assert t1[ugv1] == frozenset()
        assert t2[ugv1] == {"obstacle_complete"} and t2[ugv2] == {"obstacle_complete"}
        assert t2[uav] == frozenset()
        assert t3[uav] == {"fire_complete"}
        assert t3[ugv1] == t3[ugv2] == frozenset()

    def test_no_completions_gives_empty_chart(self):
        # no task predicates: the initial state is already a goal
        schema = plain_schema(2, task_ids=())
        m = PolicyAbstraction(schema, 1, {((0,), ("a",), (1,)): 1}, (0,))
        chart = summarize(m)
        assert chart.columns == ()

    def test_simultaneous_completions_share_a_column(self):
        # hand-built: both flags f0, f1 rise at the same step
        schema = plain_schema(2, task_ids=("f0", "f1"))
        m = PolicyAbstraction(schema, 1, {
            ((0,), ("a",), (3,)): 1,
        }, (0,))
        chart = summarize(m)
        assert len(chart.columns) == 1
        assert chart.columns[0][0] == {"f0", "f1"}

    def test_initial_state_satisfactions_count(self):
        # f1 already true at t=0 -> reported in the first column
        schema = plain_schema(2, task_ids=("f1",))
        m = PolicyAbstraction(schema, 1, {((2,), ("a",), (2,)): 1}, (2,))
        chart = summarize(m)
        assert len(chart.columns) == 1
        assert chart.columns[0][0] == {"f1"}

    def test_rising_edge_not_rereported(self, sr3_abstraction):
        chart = summarize(sr3_abstraction)
        seen = set()
        for column in chart.columns:
            for agent, tasks in enumerate(column):
                for t in tasks:
                    assert (agent, t) not in seen, "persistent flag re-reported"
                    seen.add((agent, t))

    def test_chart_cells_are_rising_edges_on_path(self, sr3_abstraction):
        path = most_probable_path(sr3_abstraction)
        chart = summarize(sr3_abstraction, path=path)
        schema = sr3_abstraction.schema
        rising = []
        for t, state in enumerate(path.states):
            y = []
            for i in range(3):
                tasks = set()
                for pred in schema.task_completion_ids:
                    bit = schema.index_of(pred)
                    now = state[i] >> bit & 1
                    before = path.states[t - 1][i] >> bit & 1 if t else 0
                    if now and not before:
                        tasks.add(pred)
                y.append(frozenset(tasks))
            if any(y):
                rising.append(tuple(y))
        assert chart.columns == tuple(rising)


class TestRenderChart:
    def test_sr3_grid_layout(self, sr3_domain, sr3_abstraction):
        chart = summarize(sr3_abstraction)
        names = tuple(a.name for a in sr3_domain.agents)
        text = render_chart(chart, "chart", names)
        lines = text.splitlines()
        assert lines[0].split() == ["agent", "T1", "T2", "T3"]
        assert lines[1].split() == ["UAV", "victim", "fire"]
        assert lines[2].split() == ["UGV_1", "obstacle"]
        assert lines[3].split() == ["UGV_2", "victim", "obstacle"]

    def test_csv_matches_chart_content(self, sr3_domain, sr3_abstraction):
        chart = summarize(sr3_abstraction)
        names = tuple(a.name for a in sr3_domain.agents)
        csv = render_chart(chart, "csv", names)
        assert csv.splitlines()[0] == "agent,T1,T2,T3"
        assert "UGV_2,victim,obstacle," in csv

    def test_empty_chart_header_only(self):
        schema = plain_schema(2, task_ids=())
        m = PolicyAbstraction(schema, 1, {((0,), ("a",), (1,)): 1}, (0,))
        text = render_chart(summarize(m), "chart", ("solo",))
        assert text == "agent\nsolo\n"

    def test_nineteen_agent_chart_shape(self):
        from mapex import build_abstraction, get_domain, simulate
        domain = get_domain("rware19")
        m = build_abstraction(simulate("rware19", episodes=8, seed=4), domain.schema)
        chart = summarize(m)
        text = render_chart(chart, "chart", tuple(a.name for a in domain.agents))
        lines = text.splitlines()
        assert len(lines) == 1 + 19
        assert len(lines[0].split()) == 1 + len(chart.columns)

    def test_unknown_format_rejected(self, sr3_abstraction):
        with pytest.raises(PreconditionError):
            render_chart(summarize(sr3_abstraction), "png")


class TestLatency:
    def test_thousand_state_summarization_under_a_second(self):
        import time
        m = big_layered_abstraction(1000)
        assert m.n_states >= 1000
        start = time.perf_counter()
        chart = summarize(m)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert chart is not None
