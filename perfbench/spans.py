"""Spans recorded around the calls into each mapex layer, for the traced run.

The traced run replays every CLI command as the same public library calls,
one span per call, and checks that the replay produces the same bytes as the
command.  ``boolmin.minimize`` is also wrapped while tracing, because
``answer_whynot`` calls it from inside the query layer.  Spans stay in
memory until ``Tracer.write`` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

from mapex import boolmin
from mapex.abstraction import build_abstraction, load_abstraction, save_abstraction
from mapex.envs import DEFAULT_MAX_STEPS, get_domain, read_trace, simulate, write_trace
from mapex.nlg import PhraseMap, format_dnf, render
from mapex.query import ConditionAnswer, LiteralDNF, answer_what, answer_whynot, when_partition
from mapex.summarize import most_probable_path, render_chart, summarize

# per-layer time metric -> the span whose summed durations are its busy time
LAYER_TIMES = {
    "envs.simulate_ms": "envs.simulate",
    "envs.write_trace_ms": "envs.write_trace",
    "envs.read_trace_ms": "envs.read_trace",
    "abstraction.build_ms": "abstraction.build",
    "abstraction.save_ms": "abstraction.save",
    "abstraction.load_ms": "abstraction.load",
    "domain.get_domain_ms": "domain.get_domain",
    "summarize.path_ms": "summarize.path",
    "summarize.chart_ms": "summarize.chart",
    "query.partition_ms": "query.partition",
    "query.project_ms": "query.project",
    "query.whynot_ms": "query.whynot",
    "query.what_ms": "query.what",
    "boolmin.minimize_ms": "boolmin.minimize",
    "nlg.render_ms": "nlg.render",
}
LAYER_COUNTS = (
    "envs.samples",
    "abstraction.states",
    "abstraction.transitions",
    "abstraction.mmdp_bytes",
    "summarize.path_len",
    "query.targets",
    "query.nontargets",
    "query.vars",
    "boolmin.ones",
    "boolmin.zeros",
    "boolmin.implicants",
    "nlg.chars",
)


class Tracer:
    """In-memory spans (name, start, end, parent, operation id) and counts.

    ``phase`` groups spans into the set-up and the traced rounds, so that a
    layer's busy time can be reported per set-up plus per round.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.op = None
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.factors: dict[str, float] = {}   # phase -> host speed factor
        self.read_trace_peak = 0

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "phase": self.phase,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[self.phase][name] += n

    @contextmanager
    def tracing_boolmin(self):
        """Wrap ``boolmin.minimize`` so calls made inside the query layer
        are spanned and counted too."""
        original = boolmin.minimize

        def traced(ones, zeros, n_vars, **kwargs):
            ones, zeros = list(ones), list(zeros)
            with self.span("boolmin.minimize"):
                result = original(ones, zeros, n_vars, **kwargs)
            self.count("boolmin.ones", len(ones))
            self.count("boolmin.zeros", len(zeros))
            self.count("boolmin.implicants", len(result))
            return result

        boolmin.minimize = traced
        try:
            yield
        finally:
            boolmin.minimize = original

    def busy_ms(self) -> dict[str, dict[str, float]]:
        """phase -> span name -> summed duration in ms, at nominal host speed."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            factor = self.factors.get(s["phase"], 1.0)
            out[s["phase"]][s["name"]] += (s["end"] - s["start"]) * 1000.0 * factor
        return out

    def cli_self_ms(self) -> dict[str, float]:
        """phase -> time of the summarize and explain commands minus their
        replayed library calls (the direct children of ``replay`` spans), at
        nominal host speed.  ``simulate`` streams its samples into the trace
        writer while the replay holds them in a list to time the two apart,
        so simulate and abstract commands are left out."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if not (s["op"] or "").startswith(("summarize:", "explain:")):
                continue
            parent = self.spans[s["parent"]]["name"] if s["parent"] is not None else None
            if s["name"] == "cli.command":
                sign = 1.0
            elif parent == "replay":
                sign = -1.0
            else:
                continue
            factor = self.factors.get(s["phase"], 1.0)
            out[s["phase"]] += sign * (s["end"] - s["start"]) * 1000.0 * factor
        return out

    def layer_metrics(self, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Each layer's busy time and work count for one set-up plus one round
        (the median over traced rounds)."""
        busy = self.busy_ms()
        rounds = [p for p in busy if p != "setup"] or ["setup"]

        def per_setup_plus_round(get):
            setup = get("setup") if "setup" in busy else 0.0
            return setup + statistics.median(get(p) for p in rounds)

        metrics = {}
        for metric, span in LAYER_TIMES.items():
            metrics[metric] = (per_setup_plus_round(lambda p: busy[p].get(span, 0.0)), "ms")
        for name in LAYER_COUNTS:
            unit = "B" if name.endswith("_bytes") else "count"
            metrics[name] = (per_setup_plus_round(lambda p: self.counts[p][name]), unit)
        cli_self = self.cli_self_ms()
        metrics["cli.self_ms"] = (per_setup_plus_round(lambda p: cli_self.get(p, 0.0)), "ms")
        metrics["envs.read_trace_peak_mb"] = (self.read_trace_peak / 2**20, "MB")
        metrics["trace.overhead_pct"] = (overhead_pct, "%")
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# replays: each CLI command as the public library calls it makes
# ---------------------------------------------------------------------------

def replay_simulate(tr: Tracer, cmd, out_path) -> str:
    with tr.span("domain.get_domain"):
        domain = get_domain(cmd.domain)
    with tr.span("envs.simulate"):
        samples = list(simulate(cmd.domain, episodes=cmd.episodes,
                                max_steps=DEFAULT_MAX_STEPS, seed=cmd.seed))
    with tr.span("envs.write_trace"):
        n = write_trace(out_path, cmd.domain, domain.n_agents, samples)
    tr.count("envs.samples", n)
    return f"wrote {n} samples to {cmd.out}\n"


def measure_read_peak(tr: Tracer, trace_path) -> None:
    """tracemalloc peak of one extra ``read_trace``, kept out of the spans
    because tracemalloc slows the read it measures."""
    tracemalloc.start()
    try:
        read_trace(trace_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tr.read_trace_peak = max(tr.read_trace_peak, peak)


def replay_abstract(tr: Tracer, cmd, out_path) -> str:
    with tr.span("domain.get_domain"):
        domain = get_domain(cmd.domain)
    with tr.span("envs.read_trace"):
        _, samples = read_trace(cmd.trace)
    with tr.span("abstraction.build"):
        m = build_abstraction(samples, domain.schema)
    with tr.span("abstraction.save"):
        save_abstraction(m, out_path)
    tr.count("abstraction.states", m.n_states)
    tr.count("abstraction.transitions", m.n_transitions)
    with open(out_path, "rb") as fh:
        tr.count("abstraction.mmdp_bytes", len(fh.read()))
    return f"abstraction: {m.n_states} states, {m.n_transitions} transitions -> {cmd.out}\n"


def replay_load(tr: Tracer, domain_id: str, mmdp):
    """(domain, model) as ``summarize`` and ``explain`` load them."""
    with tr.span("domain.get_domain"):
        domain = get_domain(domain_id)
    with tr.span("abstraction.load"):
        return domain, load_abstraction(mmdp, domain.schema)


def traced_summary(tr: Tracer, m, agent_names, fmt="chart") -> str:
    with tr.span("summarize.path"):
        path = most_probable_path(m)
    with tr.span("summarize.chart"):
        text = render_chart(summarize(m, path=path), fmt, agent_names)
    tr.count("summarize.path_len", len(path))
    return text


def replay_summarize(tr: Tracer, cmd) -> str:
    domain, m = replay_load(tr, cmd.domain, cmd.mmdp)
    text = traced_summary(tr, m, tuple(a.name for a in domain.agents), cmd.fmt)
    return text if text.endswith("\n") else text + "\n"


def traced_answer(tr: Tracer, query, m, domain, phrases, max_vars, emit_dnf=False) -> str:
    """One answer plus its rendering, each layer in its own span."""
    if query.kind == "when":
        with tr.span("query.partition"):
            space, targets, nontargets = when_partition(query, m, domain)
        with tr.span("query.project"):
            ones = {space.minterm(s, m.schema) for s in targets}
            zeros = {space.minterm(s, m.schema) for s in nontargets}
        tr.count("query.targets", len(targets))
        tr.count("query.nontargets", len(nontargets))
        tr.count("query.vars", space.n_variables)
        implicants = boolmin.minimize(sorted(ones), sorted(zeros - ones),
                                      space.n_variables, max_vars=max_vars)
        dnf = LiteralDNF(tuple(
            frozenset(space.literal(v, pol) for v, pol in imp.literals())
            for imp in implicants
        ))
        answer = ConditionAnswer(query, dnf, space, targets, nontargets)
    elif query.kind == "whynot":
        with tr.span("query.whynot"):
            answer = answer_whynot(query, m, domain, max_vars=max_vars)
    else:
        with tr.span("query.what"):
            answer = answer_what(query, m, domain)
    with tr.span("nlg.render"):
        text = render(answer, phrases)
        if emit_dnf and query.kind != "what":
            text += "\nDNF: " + format_dnf(answer)
    tr.count("nlg.chars", len(text))
    return text


def replay_explain(tr: Tracer, cmd) -> str:
    domain, m = replay_load(tr, cmd.domain, cmd.mmdp)
    text = traced_answer(tr, cmd.query, m, domain, PhraseMap.from_domain(domain),
                         cmd.max_vars, emit_dnf=True)
    return text + "\n"

