"""Random domain files end to end through ``cli.main``: ``abstract`` (with
virtual init), ``summarize`` and every kind and method of ``explain`` end in
exit 0, 2 or 3, with one stderr line on 2 and 3.  The model is checked
against a recount of the trace, and the summary against brute force: the
path's probability against every simple path, and each chart column against
a per-task recomputation of the rises.  A when or why-not answer is checked
against the partition oracle and, when small, the minimal-cover oracle."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mapex import (load_abstraction, most_probable_path, render_chart, save_domain_file,
                   summarize)
from mapex.cli import main
from mapex.nlg import PhraseMap, render
from mapex.query import KINDS, METHODS, Query, answer, relevancy_filter
import oracles
from oracles import best_path_product, recount_trace
from synth import random_domain


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def task_rises(path, schema):
    """The chart's columns, task by task: a task enters an agent's cell where
    its bit holds and did not hold one step before (nothing holds before the
    path starts)."""
    columns = []
    for t, state in enumerate(path.states):
        column = []
        for i, value in enumerate(state):
            cell = set()
            for task in schema.task_completion_ids:
                bit = schema.index_of(task)
                held = t > 0 and path.states[t - 1][i] >> bit & 1
                if value >> bit & 1 and not held:
                    cell.add(task)
            column.append(frozenset(cell))
        if any(column):
            columns.append(tuple(column))
    return tuple(columns)


def explain_query(kind, method, domain, m, rng):
    """A random query of ``kind`` and ``method``, and its ``explain`` flags."""
    specs = rng.sample(domain.agents, rng.randint(1, len(domain.agents)))
    agents = tuple(a.name for a in specs)
    argv = ["--type", kind, "--method", method, "--agents", ",".join(agents)]
    if kind == "what":
        ids = domain.schema.predicate_ids
        predicates = tuple(rng.sample(ids, rng.randint(1, len(ids))))
        return (Query(kind, agents, method, predicates=predicates),
                argv + ["--predicates", ",".join(predicates)])
    actions = tuple((a.name, rng.choice(a.actions)) for a in specs)
    argv += ["--actions", ",".join(action for _, action in actions)]
    if kind == "when":
        return Query(kind, agents, method, actions=actions), argv
    index = rng.randrange(m.n_states)
    return (Query(kind, agents, method, actions=actions, state=m.states[index]),
            argv + ["--state", str(index)])


def check_condition_answer(query, m, domain, out):
    """A when or why-not answer the CLI printed, against the oracles: its
    target/non-target partition and, on at most 4 variables (the brute-force
    limit), a minimal answer's clause count."""
    result = answer(query, m, domain)
    assert out.startswith(render(result, PhraseMap.from_domain(domain)) + "\n")
    criterion = (frozenset(query.actions) if query.method == "norf"
                 else relevancy_filter(query.actions, domain.relevance)[2])
    taking, not_taking = oracles.partition(criterion, m, domain)
    expected = (taking, not_taking) if query.kind == "when" else ({query.state}, taking)
    assert (set(result.target_states), set(result.nontarget_states)) == expected
    space = result.space
    if space.n_variables <= 4 and result.minimal:
        ones = {space.minterm(s, m.schema) for s in result.target_states}
        zeros = {space.minterm(s, m.schema) for s in result.nontarget_states} - ones
        assert result.n_clauses == oracles.minimal_cover_size(ones, zeros,
                                                              space.n_variables)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_domain_end_to_end(seed):
    domain, trace = random_domain(seed)
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        domain_path, trace_path, mmdp = (str(Path(tmp) / name) for name in
                                         ("domain.json", "trace.jsonl", "m.mmdp"))
        save_domain_file(domain, domain_path)
        Path(trace_path).write_text("".join(json.dumps(line) + "\n" for line in trace))
        code, _, err = run(["abstract", "--trace", trace_path, "--domain", domain_path,
                            "--out", mmdp, "--virtual-init"])
        assert (code, err) == (0, "")
        m = load_abstraction(mmdp, domain.schema)
        assert (m.counts, m.initial_counts) == recount_trace(trace_path, domain.schema)

        code, out, err = run(["summarize", "--mmdp", mmdp, "--domain", domain_path,
                              "--format", "csv"])
        best = best_path_product(m, max_len=m.n_states)
        if best is None:
            assert code == 2 and len(err.splitlines()) == 1, err
            assert err.startswith("error: ")
        else:
            assert (code, err) == (0, "")
            path = most_probable_path(m)
            assert path.states[0] in m.initial_counts
            assert abs(path.probability - best) <= 1e-12
            chart = summarize(m, path)
            assert chart.columns == task_rises(path, domain.schema)
            assert out == render_chart(chart, "csv", tuple(a.name for a in domain.agents))

        for kind in KINDS:
            for method in METHODS:
                query, argv = explain_query(kind, method, domain, m, rng)
                code, out, err = run(["explain", "--mmdp", mmdp, "--domain", domain_path,
                                      *argv])
                assert code in (0, 2, 3), (argv, code, err)
                if code:
                    assert len(err.splitlines()) == 1 and out == "", (argv, err)
                else:
                    assert err == "" and out.endswith("\n"), (argv, out)
                    if kind != "what" and not out.startswith("notice: "):
                        check_condition_answer(query, m, domain, out)
