"""The three benchmark workloads: set-up, interleaved timed rounds, metrics
and output checks.

Each workload is one process, one thread and a closed loop with one caller.
A round runs the workload's whole operation set once, in a seeded order that
changes every round and never runs an operation twice in a row; garbage is
collected before each round.  An answer's latency is its median over rounds;
the few, short summaries are pooled over all their runs.  A rate is the work
done divided by the time of the operations that did it, summed over all
rounds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from mapex import cli
from mapex.abstraction import load_abstraction
from mapex.envs import get_domain
from mapex.nlg import PhraseMap, render
from mapex.query import Query, answer_what, answer_when, answer_whynot
from mapex.query import compatible, relevancy_filter
from mapex.summarize import most_probable_path, render_chart, summarize

import checks
import spans

# Every workload simulates with the project's default seed, so each run
# measures the same models; the run's seed picks why-not states and the
# order of operations (see README.md).
SIM_SEED = 42
EXPLAIN_EPISODES = {
    "sr3": 200, "sr4": 30, "sr5": 100,
    "rware2": 20, "rware4": 20, "rware19": 40,
    "lbf2": 20, "lbf4": 50, "lbf9": 50,
}
# The largest domain of each family.
PIPELINE_EPISODES = {"sr5": 30, "lbf9": 30, "rware19": 30}
# Wide enough for the sr5 (30) and lbf9 (36 variables) norf problems.
NORF_MAX_VARS = 64
WITHRF_MAX_VARS = 24

SETUPS = 3
MIN_ROUNDS = 3
# A percentile is reported only with at least ten operations beyond it.
P90_MIN_SAMPLES = 100


# Host speed.  A shared host's speed can drift by tens of percent within a
# minute, alike for every pure-Python computation.  So a fixed reference loop
# is timed between operations, and every time reported is scaled by
# REFERENCE_MS / (the loop's median time over the same round or set-up): it
# reads as the time at a host that runs the loop in REFERENCE_MS.
REFERENCE_MS = 5.0
# Sample the reference after at least this much operation time.
REFERENCE_EVERY_S = 0.05


def reference_loop():
    table = {}
    for i in range(3000):
        key = ((i * 7919) % 1013, i & 7)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())[:5]


class HostSpeed:
    """Reference-loop samples; ``factor`` scales raw seconds to nominal speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0      # wall time spent sampling
        self._pending = 0.0   # operation time since the last sample

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self._pending = 0.0

    def after(self, seconds: float) -> None:
        """Note an operation's time; sample when enough has passed."""
        self._pending += seconds
        if self._pending >= REFERENCE_EVERY_S:
            self.sample()

    def factor(self, since: int = 0) -> float:
        return REFERENCE_MS / 1000.0 / statistics.median(self.samples[since:])


class BenchError(Exception):
    """The benchmark could not run its workload (not an output mismatch)."""


@dataclass(frozen=True)
class Workload:
    name: str
    episodes: dict
    method: str
    max_vars: int
    in_memory: bool   # answers served by library calls, not the CLI


WORKLOADS = {
    "pipeline": Workload("pipeline", PIPELINE_EPISODES, "withrf", WITHRF_MAX_VARS,
                         False),
    "explain-withrf": Workload("explain-withrf", EXPLAIN_EPISODES, "withrf",
                               WITHRF_MAX_VARS, True),
    "explain-norf": Workload("explain-norf", EXPLAIN_EPISODES, "norf", NORF_MAX_VARS,
                             True),
}


# ---------------------------------------------------------------------------
# queries, from public domain data only
# ---------------------------------------------------------------------------

def task_actions(domain):
    """(agent, action) pairs whose relevance entry names features."""
    return [key for key, e in sorted(domain.relevance.entries.items()) if e.features]


def first_cooperative_action(domain):
    """The first task action that needs more than one agent (the default
    norf problem of each domain)."""
    return next(key for key in task_actions(domain)
                if len(domain.relevance.entries[key].agents) > 1)


def cooperation_sets(domain):
    """Distinct admissible action sets of all task actions, in entry order."""
    sets = []
    for key in task_actions(domain):
        for s in domain.relevance.entries[key].action_sets:
            if s not in sets:
                sets.append(s)
    return sets


def whynot_states(m, domain, pairs):
    """States with enabled actions, none compatible with the queried pairs
    under either method, so a why-not question about them has an answer."""
    norf = frozenset(pairs)
    _, _, withrf = relevancy_filter(pairs, domain.relevance)
    out = []
    for s in m.states:
        enabled = m.enabled_actions(s)
        if enabled and not any(
            compatible(a, norf, domain) or compatible(a, withrf, domain) for a in enabled
        ):
            out.append(s)
    return out


def make_queries(domain, m, method, max_vars, rng):
    """when: every task action (withrf) or the first cooperative one (norf);
    whynot: every cooperation set, at a seeded eligible state; what: every
    agent with every non-completion predicate.  Problems wider than
    ``max_vars`` (norf on large teams) are left out."""
    queries = []
    if domain.n_agents * domain.schema.n_features <= max_vars or method == "withrf":
        whens = task_actions(domain) if method == "withrf" else [first_cooperative_action(domain)]
        for agent, action in whens:
            queries.append(Query("when", (agent,), method, ((agent, action),)))
        order = {a.name: i for i, a in enumerate(domain.agents)}
        for s in cooperation_sets(domain):
            pairs = tuple(sorted(s, key=lambda p: order[p[0]]))
            states = whynot_states(m, domain, pairs)
            if states:
                queries.append(Query("whynot", tuple(a for a, _ in pairs), method, pairs,
                                     state=rng.choice(states)))
    completion = set(domain.schema.task_completion_ids)
    for agent in domain.agents:
        for p in domain.schema.predicate_ids:
            if p not in completion:
                queries.append(Query("what", (agent.name,), method, predicates=(p,)))
    return queries


def query_key(domain_id, q) -> str:
    if q.kind == "what":
        detail = ",".join(q.predicates)
    else:
        detail = ",".join(f"{a}:{act}" for a, act in q.actions)
        if q.state is not None:
            detail += "@" + ",".join(map(str, q.state))
    return f"{domain_id}/{q.kind}/{q.method}/{','.join(q.agents)}/{detail}"


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    kind: str
    domain: str
    episodes: int = 0
    seed: int = 0
    trace: str = ""
    mmdp: str = ""
    out: str = ""
    query: Query | None = None
    max_vars: int = WITHRF_MAX_VARS
    fmt: str = "chart"

    def argv(self) -> list[str]:
        if self.kind == "simulate":
            return ["simulate", "--domain", self.domain, "--episodes", str(self.episodes),
                    "--seed", str(self.seed), "--out", self.out]
        if self.kind == "abstract":
            return ["abstract", "--trace", self.trace, "--domain", self.domain,
                    "--out", self.out]
        if self.kind == "summarize":
            return ["summarize", "--mmdp", self.mmdp, "--domain", self.domain,
                    "--format", self.fmt]
        q = self.query
        argv = ["explain", "--mmdp", self.mmdp, "--domain", self.domain,
                "--type", q.kind, "--agents", ",".join(q.agents), "--method", q.method,
                "--max-vars", str(self.max_vars)]
        if q.kind == "what":
            return argv + ["--predicates", ",".join(q.predicates)]
        argv += ["--actions", ",".join(act for _, act in q.actions), "--emit-dnf"]
        if q.kind == "whynot":
            argv += ["--state", ",".join(map(str, q.state))]
        return argv

    @property
    def key(self) -> str:
        if self.kind == "explain":
            return "explain:" + query_key(self.domain, self.query)
        if self.kind == "summarize":
            return f"summarize:{self.domain}:{self.fmt}"
        return f"{self.kind}:{self.domain}"


def run_cli(cmd: Command) -> str:
    """Run one command in-process through ``mapex.cli.main``; its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cmd.argv())
    if code != 0:
        raise BenchError(f"mapex {' '.join(cmd.argv())} exited with {code}")
    return buf.getvalue()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def file_output(cmd: Command):
    """The file a command writes, or None."""
    return cmd.out if cmd.kind in ("simulate", "abstract") else None


def replay(tr: spans.Tracer, cmd: Command, out) -> str:
    """The command as library calls, writing its file to ``out``; its stdout."""
    if cmd.kind == "simulate":
        return spans.replay_simulate(tr, cmd, out)
    if cmd.kind == "abstract":
        return spans.replay_abstract(tr, cmd, out)
    if cmd.kind == "summarize":
        return spans.replay_summarize(tr, cmd)
    return spans.replay_explain(tr, cmd)


def run_command(cmd: Command, tr: spans.Tracer | None, scratch: str,
                measure_peak: bool = False):
    """Run a command (and, when tracing, its replay); (stdout, digest, seconds)."""
    if tr is not None:
        tr.op = cmd.key
        with tr.span("cli.command"):
            start = time.perf_counter()
            text = run_cli(cmd)
            elapsed = time.perf_counter() - start
        out = os.path.join(scratch, os.path.basename(cmd.out)) if file_output(cmd) else None
        with tr.span("replay"):
            replayed = replay(tr, cmd, out)
        digest = file_digest(cmd.out) if out else None
        if replayed != text or (out and file_digest(out) != digest):
            raise checks.CheckFailure(f"replay of {cmd.key} differs from the command")
        if measure_peak:
            spans.measure_read_peak(tr, cmd.trace)
        return text, digest, elapsed
    start = time.perf_counter()
    text = run_cli(cmd)
    elapsed = time.perf_counter() - start
    return text, (file_digest(cmd.out) if file_output(cmd) else None), elapsed


# ---------------------------------------------------------------------------
# set-up: simulate and abstract every domain through the CLI, load the models
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """Models, queries and the figures of one set-up's commands."""

    domains: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    queries: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    samples: int = 0
    simulate_s: float = 0.0
    abstract_s: float = 0.0
    trace_bytes: int = 0
    seconds: float = 0.0


def prepare(wl: Workload, seed: int, workdir: str, tr=None) -> Prepared:
    """The README's first commands per domain (simulate, abstract, summarize),
    then load the models and make the queries.
    ``seconds`` and the command times are scaled to nominal host speed."""
    clock = HostSpeed()
    clock.sample()
    sampled_before = clock.spent
    start = time.perf_counter()
    p = Prepared()
    scratch = os.path.join(workdir, "replay")
    os.makedirs(scratch, exist_ok=True)
    for d, episodes in wl.episodes.items():
        trace = os.path.join(workdir, f"{d}.jsonl")
        mmdp = os.path.join(workdir, f"{d}.mmdp")
        sim = Command("simulate", d, episodes=episodes, seed=SIM_SEED, out=trace)
        text, digest, elapsed = run_command(sim, tr, scratch)
        p.outputs[sim.key] = (text, digest)
        clock.sample()
        p.samples += int(text.split()[1])
        p.simulate_s += elapsed
        p.trace_bytes += os.path.getsize(trace)
        ab = Command("abstract", d, trace=trace, out=mmdp)
        text, digest, elapsed = run_command(ab, tr, scratch, measure_peak=True)
        clock.sample()
        p.outputs[ab.key] = (text, digest)
        p.abstract_s += elapsed
        summary = Command("summarize", d, mmdp=mmdp)
        p.outputs[summary.key] = run_command(summary, tr, scratch)[:2]
        if tr is not None:
            tr.op = f"load:{d}"
            domain, m = spans.replay_load(tr, d, mmdp)
        else:
            domain = get_domain(d)
            m = load_abstraction(mmdp, domain.schema)
        p.domains[d], p.models[d], p.traces[d] = domain, m, trace
        rng = random.Random(f"mapex-bench:{seed}:{d}")
        p.queries[d] = make_queries(domain, m, wl.method, wl.max_vars, rng)
    wall = time.perf_counter() - start - (clock.spent - sampled_before)
    clock.sample()
    factor = clock.factor()
    if tr is not None:
        tr.factors["setup"] = factor
    p.seconds, p.simulate_s, p.abstract_s = (
        wall * factor, p.simulate_s * factor, p.abstract_s * factor)
    return p


# ---------------------------------------------------------------------------
# operations and rounds
# ---------------------------------------------------------------------------

@dataclass
class Op:
    key: str
    kind: str        # simulate | abstract | summary | answer
    domain: str
    command: Command | None = None
    query: Query | None = None
    fmt: str = "chart"   # summary format


def pipeline_groups(wl: Workload, p: Prepared, workdir: str) -> list[list[Op]]:
    """Per domain, the README session: simulate, abstract, then summarize (as
    chart and as CSV) and explain."""
    kinds = {"simulate": "simulate", "abstract": "abstract", "summarize": "summary",
             "explain": "answer"}
    groups = []
    for d, episodes in wl.episodes.items():
        trace = os.path.join(workdir, f"{d}.jsonl")
        mmdp = os.path.join(workdir, f"{d}.mmdp")
        cmds = [
            Command("simulate", d, episodes=episodes, seed=SIM_SEED, out=trace),
            Command("abstract", d, trace=trace, out=mmdp),
            Command("summarize", d, mmdp=mmdp, fmt="chart"),
            Command("summarize", d, mmdp=mmdp, fmt="csv"),
        ] + [Command("explain", d, mmdp=mmdp, query=q, max_vars=wl.max_vars)
             for q in p.queries[d]]
        groups.append([Op(c.key, kinds[c.kind], d, command=c) for c in cmds])
    return groups


def explain_ops(p: Prepared) -> list[Op]:
    ops = []
    for d, queries in p.queries.items():
        ops += [Op(f"summary:{d}:{fmt}", "summary", d, fmt=fmt) for fmt in ("chart", "csv")]
        ops += [Op("answer:" + query_key(d, q), "answer", d, query=q) for q in queries]
    return ops


def round_order(wl: Workload, ops, rng: random.Random, previous_last):
    """This round's order: shuffled, never starting with the last operation of
    the previous round.  Pipeline sessions keep simulate -> abstract first
    and shuffle the domains and the summarize and explain commands."""
    if wl.in_memory:
        order = list(ops)
        rng.shuffle(order)
        if len(order) > 1 and order[0] is previous_last:
            order.append(order.pop(0))
        return order
    groups = list(ops)
    rng.shuffle(groups)
    order = []
    for g in groups:
        tail = g[2:]
        rng.shuffle(tail)
        order += g[:2] + tail
    return order


class Runner:
    """Runs operations of one workload, untraced or traced."""

    def __init__(self, wl: Workload, p: Prepared, workdir: str):
        self.wl, self.p = wl, p
        self.scratch = os.path.join(workdir, "replay")
        os.makedirs(self.scratch, exist_ok=True)
        self.phrases = {d: PhraseMap.from_domain(dom) for d, dom in p.domains.items()}

    def answer(self, op: Op):
        q, d = op.query, op.domain
        m, domain = self.p.models[d], self.p.domains[d]
        if q.kind == "when":
            a = answer_when(q, m, domain, max_vars=self.wl.max_vars)
        elif q.kind == "whynot":
            a = answer_whynot(q, m, domain, max_vars=self.wl.max_vars)
        else:
            a = answer_what(q, m, domain)
        return a, render(a, self.phrases[d])

    def summary(self, op: Op):
        m, domain = self.p.models[op.domain], self.p.domains[op.domain]
        path = most_probable_path(m)
        text = render_chart(summarize(m, path=path), op.fmt,
                            tuple(a.name for a in domain.agents))
        return path, text

    def run(self, op: Op):
        """(output to compare across rounds, detail for the checks, seconds)."""
        if op.command is not None:
            text, digest, elapsed = run_command(op.command, None, self.scratch)
            return (text, digest), None, elapsed
        start = time.perf_counter()
        detail, text = self.answer(op) if op.kind == "answer" else self.summary(op)
        return text, detail, time.perf_counter() - start

    def run_traced(self, op: Op, tr: spans.Tracer):
        if op.command is not None:
            text, digest, _ = run_command(op.command, tr, self.scratch)
            return text, digest
        tr.op = op.key
        d = op.domain
        m, domain = self.p.models[d], self.p.domains[d]
        if op.kind == "answer":
            return spans.traced_answer(tr, op.query, m, domain, self.phrases[d],
                                       self.wl.max_vars)
        return spans.traced_summary(tr, m, tuple(a.name for a in domain.agents), op.fmt)


@dataclass
class Rounds:
    """Per-operation seconds of every untraced round, plus reference outputs."""

    ops: list
    elapsed: dict = field(default_factory=dict)     # key -> [seconds per round]
    reference: dict = field(default_factory=dict)   # key -> first round's output
    details: dict = field(default_factory=dict)     # key -> first round's detail
    untraced_busy: list = field(default_factory=list)
    traced_busy: list = field(default_factory=list)
    attempted: int = 0

    def record(self, op: Op, output, detail, seconds) -> None:
        """One untraced run of ``op``; ``seconds`` at nominal host speed."""
        self.attempted += 1
        self.elapsed.setdefault(op.key, []).append(seconds)
        self.expect(op, output)
        if op.key not in self.details:
            self.details[op.key] = detail

    def expect(self, op: Op, output) -> None:
        if op.key not in self.reference:
            self.reference[op.key] = output
        elif self.reference[op.key] != output:
            raise checks.CheckFailure(f"{op.key}: output differs from the first round's")


def run_rounds(wl, runner: Runner, ops, seconds, seed, tr=None) -> Rounds:
    """Untraced rounds until ``seconds`` pass (at least MIN_ROUNDS); with a
    tracer, traced rounds alternate with the untraced ones."""
    flat = [op for g in ops for op in g] if not wl.in_memory else ops
    rec = Rounds(flat)
    rng = random.Random(f"mapex-bench-order:{seed}")
    clock = HostSpeed()
    last = None
    start = time.perf_counter()
    k = 0
    while (len(rec.untraced_busy) < MIN_ROUNDS
           or (tr is not None and len(rec.traced_busy) < MIN_ROUNDS)
           or time.perf_counter() - start < seconds):
        traced = tr is not None and k % 2 == 1
        order = round_order(wl, ops, rng, last)
        gc.collect()
        first = len(clock.samples)
        clock.sample()
        busy = 0.0
        if traced:
            tr.phase = f"round{k}"
            with tr.tracing_boolmin():
                for op in order:
                    t0 = time.perf_counter()
                    output = runner.run_traced(op, tr)
                    elapsed = time.perf_counter() - t0
                    busy += elapsed
                    clock.after(elapsed)
                    rec.attempted += 1
                    rec.expect(op, output)
            clock.sample()
            tr.factors[tr.phase] = clock.factor(first)
            rec.traced_busy.append(busy * clock.factor(first))
        else:
            done = []
            for op in order:
                output, detail, elapsed = runner.run(op)
                busy += elapsed
                clock.after(elapsed)
                done.append((op, output, detail, elapsed))
            clock.sample()
            factor = clock.factor(first)
            for op, output, detail, elapsed in done:
                rec.record(op, output, detail, elapsed * factor)
            rec.untraced_busy.append(busy * factor)
        last = order[-1]
        k += 1
    return rec


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_setup(p: Prepared) -> None:
    for d, m in p.models.items():
        domain = p.domains[d]
        checks.check_model(m, p.traces[d], domain)
        text, _ = p.outputs[f"summarize:{d}:chart"]
        checks.check_chart_text(text, m, most_probable_path(m),
                                tuple(a.name for a in domain.agents))


def check_explain(p: Prepared, rec: Rounds) -> None:
    for op in rec.ops:
        m, domain = p.models[op.domain], p.domains[op.domain]
        detail, text = rec.details[op.key], rec.reference[op.key]
        if op.kind == "summary":
            checks.check_path(m, detail)
            checks.check_chart_text(text, m, detail, tuple(a.name for a in domain.agents),
                                    op.fmt)
        elif op.query.kind == "what":
            checks.check_what_answer(detail, m, domain)
            checks.check_sentence(text, op.query, m, domain)
        else:
            checks.check_condition_answer(detail, m, domain)
            checks.check_sentence(text, op.query, m, domain, checks.answer_clauses(detail))


def check_pipeline(p: Prepared, rec: Rounds) -> None:
    models = {}
    for op in rec.ops:
        cmd, d = op.command, op.domain
        domain = p.domains[d]
        text, _ = rec.reference[op.key]
        if cmd.kind == "simulate":
            mmdp = os.path.splitext(cmd.out)[0] + ".mmdp"
            m = models[d] = load_abstraction(mmdp, domain.schema)
            samples = checks.check_model(m, cmd.out, domain)
            checks.require(text == f"wrote {samples} samples to {cmd.out}\n",
                           f"{op.key}: unexpected output {text!r}")
            checks.require(m == p.models[d], f"{d}: session model differs from set-up's")
            continue
        m = models[d]
        if cmd.kind == "abstract":
            checks.require(
                text == f"abstraction: {m.n_states} states, {m.n_transitions} "
                        f"transitions -> {cmd.out}\n",
                f"{op.key}: unexpected output {text!r}")
        elif cmd.kind == "summarize":
            path = most_probable_path(m)
            checks.check_path(m, path)
            checks.check_chart_text(text, m, path, tuple(a.name for a in domain.agents),
                                    cmd.fmt)
        elif cmd.query.kind == "what":
            checks.check_sentence(text.rstrip("\n"), cmd.query, m, domain)
        else:
            lines = text.rstrip("\n").split("\n")
            checks.require(len(lines) == 2 and lines[1].startswith("DNF: "),
                           f"{op.key}: expected a sentence and a DNF line")
            clauses = checks.parse_dnf(lines[1][len("DNF: "):])
            checks.check_condition(checks.ConditionProblem(cmd.query, m, domain), clauses)
            checks.check_sentence(lines[0], cmd.query, m, domain, clauses)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _latencies(rec: Rounds, kind: str) -> list[float]:
    """Each operation's median over rounds, in ms."""
    return [statistics.median(rec.elapsed[op.key]) * 1000.0
            for op in rec.ops if op.kind == kind]


def _all_runs(rec: Rounds, kind: str) -> list[float]:
    """Every timed run of every operation of ``kind``, in ms."""
    return [t * 1000.0 for op in rec.ops if op.kind == kind for t in rec.elapsed[op.key]]


def _total(rec: Rounds, kind: str | None = None) -> float:
    return sum(sum(rec.elapsed[op.key]) for op in rec.ops
               if kind is None or op.kind == kind)


def end_to_end(wl: Workload, setups: list, rec: Rounds) -> dict:
    rounds = len(rec.untraced_busy)
    if wl.in_memory:
        samples = sum(s.samples for s in setups)
        sim_s = sum(s.simulate_s for s in setups)
        abstract_s = sum(s.abstract_s for s in setups)
        session_s = sim_s + abstract_s
        trace_bytes, round_samples = setups[-1].trace_bytes, setups[-1].samples
    else:
        round_samples = sum(int(rec.reference[op.key][0].split()[1])
                            for op in rec.ops if op.kind == "simulate")
        samples = round_samples * rounds
        sim_s, abstract_s = _total(rec, "simulate"), _total(rec, "abstract")
        session_s = _total(rec)
        trace_bytes = sum(os.path.getsize(op.command.out)
                          for op in rec.ops if op.kind == "simulate")
    answers = _latencies(rec, "answer")
    metrics = {
        "setup_s": (statistics.median(s.seconds for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pipeline_samples_per_s": (samples / session_s, "samples/s"),
        "simulate_samples_per_s": (samples / sim_s, "samples/s"),
        "ingest_samples_per_s": (samples / abstract_s, "samples/s"),
        "trace_bytes_per_sample": (trace_bytes / round_samples, "B"),
        "answer_ms.p50": (statistics.median(answers), "ms"),
        "answers_per_s": (len(answers) * rounds / _total(rec, "answer"), "req/s"),
        # few and sub-millisecond on the explain workloads: median of all runs
        "summary_ms.p50": (statistics.median(_all_runs(rec, "summary")), "ms"),
    }
    if len(answers) >= P90_MIN_SAMPLES:
        metrics["answer_ms.p90"] = (statistics.quantiles(answers, n=10)[8], "ms")
    return metrics


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str,
        spans_path: str | None = None) -> dict:
    """One benchmark run; the result object printed as the last line."""
    setups = []
    tr = spans.Tracer() if trace else None
    setup_dir = os.path.join(workdir, "setup")
    os.makedirs(setup_dir, exist_ok=True)
    for _ in range(1 if trace else SETUPS):
        gc.collect()
        p = prepare(wl, seed, setup_dir, tr)
        if setups and p.outputs != setups[0].outputs:
            raise checks.CheckFailure("set-up outputs differ between repetitions")
        setups.append(p)
    runner = Runner(wl, p, workdir)
    if wl.in_memory:
        ops = explain_ops(p)
    else:
        session_dir = os.path.join(workdir, "session")
        os.makedirs(session_dir, exist_ok=True)
        ops = pipeline_groups(wl, p, session_dir)
    # keep the set-up's objects out of the collections made during rounds
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        rec = run_rounds(wl, runner, ops, seconds, seed, tr)
        rounds_s = time.perf_counter() - start
    finally:
        gc.unfreeze()
    start = time.perf_counter()
    check_setup(p)
    if wl.in_memory:
        check_explain(p, rec)
    else:
        check_pipeline(p, rec)
    print(f"{wl.name}: {len(setups)} set-up(s) of {len(wl.episodes)} domains, "
          f"{len(rec.untraced_busy)}+{len(rec.traced_busy)} rounds of {len(rec.ops)} "
          f"operations in {rounds_s:.1f} s, checks {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    attempted = rec.attempted + 3 * len(wl.episodes) * len(setups)
    if trace:
        overhead = (statistics.median(rec.traced_busy)
                    / statistics.median(rec.untraced_busy) - 1.0) * 100.0
        metrics = tr.layer_metrics(overhead)
        if spans_path:
            tr.write(spans_path)
    else:
        metrics = end_to_end(wl, setups, rec)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
