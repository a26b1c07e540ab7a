"""Command-line front end wiring the pipeline:

    simulate -> abstract -> summarize / explain, plus a bench harness that
    times every query type and method on one domain.

Flag precedence: explicit command line > MAPEX_* environment variables >
--config JSON file > built-in defaults.  Exit codes: 0 success, 2 usage or
precondition errors, 3 when an explanation hit the timeout or the minimizer's
variable guardrail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Sequence

from . import boolmin
from .abstraction import build_abstraction, load_abstraction, save_abstraction
from .domain import DomainDefinition, JointState, load_domain_file
from .envs import DEFAULT_MAX_STEPS, get_domain, read_trace, simulate, write_trace
from .errors import (
    ContradictionNotice,
    MapexError,
    MinimizationTimeout,
    TooManyVariablesError,
)
from .nlg import PhraseMap, format_dnf, render
from .query import Query, answer, partition, relevancy_filter
from .summarize import most_probable_path, render_chart, summarize

ENV_PREFIX = "MAPEX_"

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_TIMEOUT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapex",
        description="Abstract multi-agent policy traces and explain them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file supplying defaults for any flag")

    p = sub.add_parser("simulate", help="run a scripted domain policy to a trace file")
    add_common(p)
    p.add_argument("--domain", help="domain id, e.g. sr3")
    p.add_argument("--episodes", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="trace file path")

    p = sub.add_parser("abstract", help="build an abstraction from a trace file")
    add_common(p)
    p.add_argument("--trace", help="trace file path")
    p.add_argument("--domain")
    p.add_argument("--out", help="abstraction file path")
    p.add_argument("--normalize", choices=["state", "state-action"])
    p.add_argument("--virtual-init", action="store_true", default=None,
                   help="allow several initial abstract states")

    p = sub.add_parser("summarize", help="most-probable-path task chart")
    add_common(p)
    p.add_argument("--mmdp", help="abstraction file path")
    p.add_argument("--domain")
    p.add_argument("--format", choices=["chart", "csv"])
    p.add_argument("--out", help="output path or '-' for stdout")

    p = sub.add_parser("explain", help="answer a when / whynot / what query")
    add_common(p)
    p.add_argument("--mmdp")
    p.add_argument("--domain")
    p.add_argument("--type", dest="kind", choices=["when", "whynot", "what"])
    p.add_argument("--agents", help="comma-separated agent names")
    p.add_argument("--actions", help="comma-separated action ids (when/whynot)")
    p.add_argument("--state", help="state index or inline per-agent bits (whynot)")
    p.add_argument("--predicates", help="comma-separated predicate ids (what)")
    p.add_argument("--method", choices=["norf", "withrf"])
    p.add_argument("--timeout", type=float,
                   help="seconds before aborting minimization (must be > 0)")
    p.add_argument("--max-vars", type=int, help="minimizer variable guardrail")
    p.add_argument("--emit-dnf", action="store_true", default=None,
                   help="also print the raw DNF")
    p.add_argument("--out", help="output path or '-' for stdout")

    p = sub.add_parser("bench", help="per-query timing table for one domain")
    add_common(p)
    p.add_argument("--domain")
    p.add_argument("--episodes", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--timeout", type=float, help="seconds per query (must be > 0)")
    p.add_argument("--max-vars", type=int)
    p.add_argument("--csv", help="also write rows to this CSV file")

    p = sub.add_parser("boolmin-debug", help=argparse.SUPPRESS)
    add_common(p)
    p.add_argument("--table", help="truth table file: first line V, then '<bits> 0|1'")
    return parser


_DEFAULTS = {
    "episodes": 100,
    "max_steps": DEFAULT_MAX_STEPS,
    "seed": 42,
    "format": "chart",
    "method": "withrf",
    "normalize": "state",
    "timeout": 3600.0,
    "max_vars": boolmin.MAX_VARIABLES,
    "out": "-",
    "virtual_init": False,
    "emit_dnf": False,
}


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise MapexError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MapexError(f"config file {path} must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


# argparse dest -> flag name, where they differ
_FLAG_ALIASES = {"kind": "type"}


class _Options:
    """Post-parse flag resolution: CLI > environment > config > defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, name: str, required: bool = False):
        value = getattr(self.args, name, None)
        names = [name]
        if name in _FLAG_ALIASES:
            names.append(_FLAG_ALIASES[name])
        if value is None:
            for key in names:
                env = os.environ.get(ENV_PREFIX + key.upper())
                if env is not None:
                    value = env
                    break
        if value is None:
            for key in names:
                if key in self.config:
                    value = self.config[key]
                    break
        if value is None:
            value = _DEFAULTS.get(name)
        if value is None and required:
            flag = _FLAG_ALIASES.get(name, name).replace("_", "-")
            raise MapexError(f"missing required option --{flag}")
        return value

    def get_int(self, name: str, required: bool = False):
        return self._convert(name, required, int, "an integer")

    def get_float(self, name: str, required: bool = False):
        return self._convert(name, required, float, "a number")

    def _convert(self, name: str, required: bool, kind, what: str):
        v = self.get(name, required)
        try:
            return None if v is None else kind(v)
        except (TypeError, ValueError):
            flag = _FLAG_ALIASES.get(name, name).replace("_", "-")
            raise MapexError(f"--{flag} must be {what}, got {v!r}") from None

    def get_timeout(self) -> float:
        """--timeout in seconds; 0, negative and NaN are rejected, not
        read as "no timeout"."""
        v = self.get_float("timeout")
        if not v > 0:
            raise MapexError(f"--timeout must be a positive number of seconds, got {v}")
        return v

    def get_max_vars(self) -> int:
        """--max-vars, the minimizer's variable guardrail; below 1 it would
        refuse every problem, so it is rejected instead."""
        v = self.get_int("max_vars")
        if v < 1:
            raise MapexError(f"--max-vars must be a positive integer, got {v}")
        return v

    def get_bool(self, name: str) -> bool:
        v = self.get(name)
        if isinstance(v, str):
            return v.lower() in ("1", "true", "yes", "on")
        return bool(v)


def _csv_list(text: str | None) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _parse_state(text: str, m) -> JointState:
    try:
        if "," in text:
            return tuple(int(x) for x in text.split(","))
        index = int(text)
    except ValueError:
        index = -1
    if not 0 <= index < m.n_states:
        raise MapexError(
            f"--state {text!r} is neither a state index below {m.n_states} "
            f"nor comma-separated per-agent bits"
        )
    return m.states[index]


def _cmd_simulate(opts: _Options) -> int:
    domain_id = str(opts.get("domain", required=True))
    out = str(opts.get("out", required=True))
    if out == "-":
        raise MapexError("simulate needs --out <path>")
    domain = get_domain(domain_id)
    samples = simulate(
        domain_id,
        episodes=opts.get_int("episodes"),
        max_steps=opts.get_int("max_steps"),
        seed=opts.get_int("seed"),
    )
    n = write_trace(out, domain_id, domain.n_agents, samples)
    print(f"wrote {n} samples to {out}")
    return EXIT_OK


def _resolve_domain(value: str) -> DomainDefinition:
    """Registry id (sr3, rware19, ...) or a path to a domain definition file."""
    if os.path.exists(value):
        return load_domain_file(value)
    return get_domain(value)


def _check_agents(what: str, n_agents, domain: DomainDefinition) -> None:
    if n_agents != domain.n_agents:
        raise MapexError(f"{what} has {n_agents} agents but domain {domain.id} "
                         f"has {domain.n_agents}")


def _cmd_abstract(opts: _Options) -> int:
    domain = _resolve_domain(str(opts.get("domain", required=True)))
    trace_path = str(opts.get("trace", required=True))
    out = str(opts.get("out", required=True))
    header, samples = read_trace(trace_path)
    _check_agents(f"trace {trace_path}", header.get("agents"), domain)
    m = build_abstraction(
        samples,
        domain.schema,
        normalization=str(opts.get("normalize")),
        virtual_init=opts.get_bool("virtual_init"),
    )
    save_abstraction(m, out)
    print(f"abstraction: {m.n_states} states, {m.n_transitions} transitions -> {out}")
    return EXIT_OK


def _load_mmdp(opts: _Options) -> tuple[DomainDefinition, Any]:
    domain = _resolve_domain(str(opts.get("domain", required=True)))
    path = str(opts.get("mmdp", required=True))
    m = load_abstraction(path, domain.schema)
    _check_agents(f"abstraction {path}", m.n_agents, domain)
    return domain, m


def _cmd_summarize(opts: _Options) -> int:
    domain, m = _load_mmdp(opts)
    chart = summarize(m)
    text = render_chart(
        chart, str(opts.get("format")), tuple(a.name for a in domain.agents)
    )
    _write_output(text, str(opts.get("out")))
    return EXIT_OK


def _build_query(opts: _Options, domain: DomainDefinition, m) -> Query:
    kind = str(opts.get("kind", required=True))
    method = str(opts.get("method"))
    agents = _csv_list(str(opts.get("agents", required=True)))
    actions = _csv_list(opts.get("actions") or "")
    if kind in ("when", "whynot"):
        if len(actions) == 1 and len(agents) > 1:
            actions = actions * len(agents)
        if len(actions) != len(agents):
            raise MapexError(
                "--actions must name one action per agent (or a single action "
                "shared by all queried agents)"
            )
        pairs = tuple(zip(agents, actions))
    else:
        pairs = ()
    state = None
    if kind == "whynot":
        state_text = opts.get("state", required=True)
        state = _parse_state(str(state_text), m)
    predicates = tuple(_csv_list(opts.get("predicates") or ""))
    return Query(
        kind=kind,
        agents=tuple(agents),
        method=method,
        actions=pairs,
        state=state,
        predicates=predicates,
    )


def _cmd_explain(opts: _Options) -> int:
    domain, m = _load_mmdp(opts)
    query = _build_query(opts, domain, m)
    phrases = PhraseMap.from_domain(domain)
    deadline = time.monotonic() + opts.get_timeout()
    max_vars = opts.get_max_vars()
    out = str(opts.get("out"))
    try:
        result = answer(query, m, domain, deadline=deadline, max_vars=max_vars)
    except ContradictionNotice as exc:
        _write_output(f"notice: {exc}", out)
        return EXIT_OK
    except TooManyVariablesError as exc:
        print(
            f"could not explain within resource limits: {exc}\n"
            f"partial progress: 0 prime implicants "
            f"({exc.n_vars} variables > guardrail {exc.limit})",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    except MinimizationTimeout as exc:
        print(
            f"could not explain within resource limits: {exc}",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    lines = [render(result, phrases)]
    if opts.get_bool("emit_dnf") and query.kind in ("when", "whynot"):
        lines.append("DNF: " + format_dnf(result))
    if query.kind in ("when", "whynot") and not result.minimal:
        lines.append(_unproven_note(result.lower_bound))
    _write_output("\n".join(lines), out)
    return EXIT_OK


def _unproven_note(lower_bound: int) -> str:
    return (f"note: may not be the shortest answer; any answer needs at least "
            f"{lower_bound} clauses")


# ---------------------------------------------------------------------------
# bench: per-domain table mirroring the usual scalability report layout
# ---------------------------------------------------------------------------

def _bench_queries(domain: DomainDefinition) -> dict[str, dict[str, Any]]:
    """Default query set per domain: the first cooperative task's action."""
    tasks = [(k, e) for k, e in sorted(domain.relevance.entries.items()) if e.features]
    if not tasks:
        raise MapexError(f"domain {domain.id} has no task actions to bench")
    (agent, action), entry = next((t for t in tasks if len(t[1].agents) > 1), tasks[0])
    partners = sorted(entry.agents)
    # prefer a condition-style feature (detect) over a completion flag
    completion = set(domain.schema.task_completion_ids)
    candidates = sorted(entry.features - completion) or sorted(entry.features)
    detect = candidates[0] if candidates else None
    return {
        "when": {"agents": (agent,), "actions": ((agent, action),)},
        "whynot": {
            "agents": tuple(partners),
            "actions": tuple((p, action) for p in partners
                             if action in domain.agent_spec(p).actions),
        },
        "what": {"agents": (agent,), "predicates": (detect,)},
    }


def _incompatible_state(m, domain: DomainDefinition, actions) -> JointState:
    """First state (canonical order) with enabled actions, none compatible with
    the queried actions under either method, so the default why-not query has
    something to ask about."""
    _, _, withrf_criterion = relevancy_filter(actions, domain.relevance)
    _, never = partition([frozenset(actions), *withrf_criterion], m, domain)
    return min(never, default=m.initial_state)  # m.states is sorted


def _cmd_bench(opts: _Options) -> int:
    domain_id = str(opts.get("domain", required=True))
    domain = get_domain(domain_id)
    episodes = opts.get_int("episodes")
    seed = opts.get_int("seed")
    timeout = opts.get_timeout()
    max_vars = opts.get_max_vars()

    samples = simulate(
        domain_id, episodes=episodes, max_steps=opts.get_int("max_steps"), seed=seed
    )
    m = build_abstraction(samples, domain.schema)
    path = most_probable_path(m)
    chart = summarize(m, path=path)
    chart_size = f"{domain.n_agents}x{len(chart.columns)}"

    spec = _bench_queries(domain)
    whynot_state = _incompatible_state(m, domain, spec["whynot"]["actions"])
    rows = []
    for kind in ("when", "whynot", "what"):
        for method in ("norf", "withrf"):
            q = Query(
                kind=kind,
                agents=spec[kind]["agents"],
                method=method,
                actions=spec[kind].get("actions", ()),
                state=whynot_state if kind == "whynot" else None,
                predicates=spec[kind].get("predicates", ()),
            )
            deadline = time.monotonic() + timeout
            start = time.perf_counter()
            status, clauses = "ok", ""
            try:
                a = answer(q, m, domain, deadline=deadline, max_vars=max_vars)
                if kind == "what":
                    clauses = str(sum(
                        len(v) if isinstance(v, tuple) else (0 if v is None else 1)
                        for v in a.actions.values()
                    ))
                else:
                    clauses = str(a.n_clauses)
                    status = "ok" if a.minimal else "not-minimal"
            except MinimizationTimeout:
                status = "timeout"
            except TooManyVariablesError:
                status = "too-large"
            except ContradictionNotice:
                status = "contradiction"
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            rows.append({
                "domain": domain_id,
                "agents": domain.n_agents,
                "states": m.n_states,
                "transitions": m.n_transitions,
                "path_len": len(path),
                "chart": chart_size,
                "query": kind,
                "method": method,
                "clauses": clauses,
                "time_ms": f"{elapsed_ms:.1f}",
                "status": status,
            })

    header = ["query", "method", "|E|", "time_ms", "status"]
    print(
        f"domain={domain_id} N={domain.n_agents} |S|={m.n_states} "
        f"|T|={m.n_transitions} |rho|={len(path)} |Z|={chart_size}"
    )
    table = [header] + [
        [r["query"], r["method"], r["clauses"] or "-", r["time_ms"], r["status"]]
        for r in rows
    ]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    for row in table:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())

    csv_path = opts.get("csv")
    if csv_path:
        cols = ["domain", "agents", "states", "transitions", "path_len",
                "chart", "query", "method", "clauses", "time_ms", "status"]
        with open(str(csv_path), "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for r in rows:
                fh.write(",".join(str(r[c]) for c in cols) + "\n")
    return EXIT_OK


def _cmd_boolmin_debug(opts: _Options) -> int:
    path = str(opts.get("table", required=True))
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    if not rows or len(rows[0]) != 1 or not rows[0][0].isdecimal():
        raise MapexError(f"truth table {path}: first line must be the variable count")
    n_vars = int(rows[0][0])
    ones, zeros = [], []
    for row in rows[1:]:
        if (len(row) != 2 or row[1] not in ("0", "1")
                or not set(row[0]) <= {"0", "1"} or int(row[0], 2) >> n_vars):
            raise MapexError(
                f"truth table {path}: row {' '.join(row)!r} is not "
                f"'<bits> 0|1' over {n_vars} variables"
            )
        (ones if row[1] == "1" else zeros).append(int(row[0], 2))
    result = boolmin.minimize(ones, zeros, n_vars, max_vars=opts.get_max_vars())
    if not result:
        print("FALSE")
    else:
        terms = []
        for imp in result:
            lits = [f"{'' if pol else '!'}x{v}" for v, pol in imp.literals()]
            terms.append(" & ".join(lits) if lits else "TRUE")
        print(" | ".join(terms))
    if not result.minimal:
        print(_unproven_note(result.lower_bound))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "abstract": _cmd_abstract,
    "summarize": _cmd_summarize,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "boolmin-debug": _cmd_boolmin_debug,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args)
        return _COMMANDS[args.command](opts)
    except MinimizationTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except MapexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: input file is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
