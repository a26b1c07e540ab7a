"""Random domain files end to end through ``cli.main``: ``abstract`` (with
virtual init), ``summarize`` and every kind and method of ``explain`` end in
exit 0, 2 or 3, with one stderr line on 2 and 3.  The model is checked
against a recount of the trace, and the summary against brute force: the
path's probability against every simple path, and each chart column against
a per-task recomputation of the rises."""

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
from mapex.query import KINDS, METHODS
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


def explain_argv(kind, method, domain, m, rng):
    agents = rng.sample(domain.agents, rng.randint(1, len(domain.agents)))
    argv = ["--type", kind, "--method", method, "--agents", ",".join(a.name for a in agents)]
    if kind == "what":
        ids = domain.schema.predicate_ids
        return argv + ["--predicates", ",".join(rng.sample(ids, rng.randint(1, len(ids))))]
    argv += ["--actions", ",".join(rng.choice(a.actions) for a in agents)]
    if kind == "whynot":
        argv += ["--state", str(rng.randrange(m.n_states))]
    return argv


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
                argv = explain_argv(kind, method, domain, m, rng)
                code, out, err = run(["explain", "--mmdp", mmdp, "--domain", domain_path,
                                      *argv])
                assert code in (0, 2, 3), (argv, code, err)
                if code:
                    assert len(err.splitlines()) == 1 and out == "", (argv, err)
                else:
                    assert err == "" and out.endswith("\n"), (argv, out)
