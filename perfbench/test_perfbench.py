"""Self-tests of the benchmark: tiny runs of every workload pass, and
corrupted outputs make the independent checks fail.

    python3 -m pytest perfbench -q
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from mapex import build_abstraction, get_domain, simulate, write_trace  # noqa: E402
from mapex.abstraction import PolicyAbstraction  # noqa: E402
from mapex.query import LiteralDNF, Query, answer_what, answer_when  # noqa: E402
from mapex.summarize import most_probable_path  # noqa: E402

TINY = {
    "pipeline": workloads.Workload("pipeline", {"sr3": 20, "lbf2": 10}, "withrf",
                                   workloads.WITHRF_MAX_VARS, False),
    "explain-withrf": workloads.Workload("explain-withrf", {"sr3": 50, "lbf2": 10},
                                         "withrf", workloads.WITHRF_MAX_VARS, True),
    "explain-norf": workloads.Workload("explain-norf", {"sr3": 50, "rware2": 10},
                                       "norf", workloads.NORF_MAX_VARS, True),
}


def test_workload_set_matches_entry_point():
    import run
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes(name, trace, tmp_path):
    result = workloads.run(TINY[name], seed=3, seconds=0, trace=trace,
                           workdir=str(tmp_path / "work"),
                           spans_path=str(tmp_path / "spans.jsonl"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    if trace:
        assert os.path.getsize(tmp_path / "spans.jsonl") > 0
        for name_ in ("envs.simulate_ms", "abstraction.load_ms", "query.what_ms",
                      "nlg.render_ms", "summarize.path_ms", "cli.self_ms",
                      "trace.overhead_pct"):
            assert name_ in metrics
        assert metrics["boolmin.minimize_ms"]["value"] > 0
    else:
        for name_ in ("setup_s", "peak_rss_mb", "answer_ms.p50", "answers_per_s",
                      "summary_ms.p50", "pipeline_samples_per_s"):
            assert metrics[name_]["value"] > 0


@pytest.fixture(scope="module")
def sr3(tmp_path_factory):
    domain = get_domain("sr3")
    path = str(tmp_path_factory.mktemp("sr3") / "sr3.jsonl")
    write_trace(path, "sr3", domain.n_agents, simulate("sr3", episodes=100, seed=42))
    m = build_abstraction(simulate("sr3", episodes=100, seed=42), domain.schema)
    return domain, m, path


def test_model_checks_pass_and_catch_a_dropped_transition(sr3):
    domain, m, path = sr3
    assert checks.check_model(m, path, domain) > 0
    counts = dict(m.counts)
    counts.pop(sorted(counts)[0])
    dropped = PolicyAbstraction(m.schema, m.n_agents, counts, m.initial_state,
                                initial_counts=m.initial_counts)
    with pytest.raises(checks.CheckFailure, match="recount"):
        checks.check_model(dropped, path, domain)


def test_path_checks_catch_a_wrong_step(sr3):
    _, m, _ = sr3
    path = most_probable_path(m)
    checks.check_path(m, path)
    other = next(s for s in m.states if s not in path.states)
    wrong = dataclasses.replace(path, states=(path.states[0], other) + path.states[2:])
    with pytest.raises(checks.CheckFailure):
        checks.check_path(m, wrong)


def _when(domain, m):
    q = Query("when", ("UAV",), "withrf", (("UAV", "rescue_victim"),))
    return answer_when(q, m, domain)


def test_condition_checks_catch_a_flipped_literal(sr3):
    domain, m, _ = sr3
    answer = _when(domain, m)
    checks.check_condition_answer(answer, m, domain)
    first = sorted(answer.dnf.clauses[0])
    agent, pred, pol = first[0]
    flipped = frozenset([(agent, pred, not pol)] + first[1:])
    bad = dataclasses.replace(
        answer, dnf=LiteralDNF((flipped,) + answer.dnf.clauses[1:]))
    with pytest.raises(checks.CheckFailure, match="DNF"):
        checks.check_condition_answer(bad, m, domain)


def test_dnf_text_checks_catch_a_flipped_literal(sr3):
    domain, m, _ = sr3
    answer = _when(domain, m)
    from mapex.nlg import format_dnf
    text = format_dnf(answer)
    problem = checks.ConditionProblem(answer.query, m, domain)
    checks.check_condition(problem, checks.parse_dnf(text))
    flipped = text.replace("(!", "(", 1) if "(!" in text else text.replace("(", "(!", 1)
    with pytest.raises(checks.CheckFailure):
        checks.check_condition(problem, checks.parse_dnf(flipped))


def test_condition_checks_catch_a_non_minimal_answer(sr3):
    domain, m, _ = sr3
    answer = _when(domain, m)
    problem = checks.ConditionProblem(answer.query, m, domain)
    clauses = checks.answer_clauses(answer)
    ones, _ = problem.ones_zeros()
    key = min(ones)
    # an extra full-width clause for one target: still sound, one too many
    extra = {(a, f, bool(key >> k & 1))
             for k, (a, f) in enumerate((a, f) for a in problem.agents
                                        for f in problem.features)}
    with pytest.raises(checks.CheckFailure, match="minimum"):
        checks.check_condition(problem, clauses + [extra])


def test_exhaustive_minimum_of_xor():
    assert checks.exhaustive_min_clauses({0b01, 0b10}, {0b00, 0b11}, 2, 3) == 2
    assert checks.exhaustive_min_clauses({0b01, 0b11}, {0b00, 0b10}, 2, 3) == 1


def test_what_checks_catch_a_wrong_action(sr3):
    domain, m, _ = sr3
    q = Query("what", ("UAV",), "withrf", predicates=("victim_detect",))
    answer = answer_what(q, m, domain)
    checks.check_what_answer(answer, m, domain)
    wrong = dataclasses.replace(answer, actions={"UAV": "fight_fire"})
    with pytest.raises(checks.CheckFailure):
        checks.check_what_answer(wrong, m, domain)


def test_rounds_catch_a_changed_output():
    op = workloads.Op("answer:x", "answer", "sr3")
    rec = workloads.Rounds([op])
    rec.record(op, "same", None, 0.1)
    rec.record(op, "same", None, 0.1)
    with pytest.raises(checks.CheckFailure, match="first round"):
        rec.record(op, "different", None, 0.1)


def test_entry_point_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
