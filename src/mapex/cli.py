"""Command-line front end wiring the pipeline:

    simulate -> abstract -> summarize / explain, plus a bench harness that
    times every query type and method on one domain.

Each flag is declared once in ``_FLAGS`` (converter, default, help), and
``_COMMANDS`` lists the flags each command takes.  A flag's value comes from
the command line, else MAPEX_<FLAG>, else the --config JSON file, else its
default, and one converter checks it whatever its source: a bad value is the
same one ``error:`` line and exit 2 from any of them.  A --config key must
name some command's flag.  simulate and abstract write files, so they need a
real --out path.  Exit codes: 0 success, 2 usage or precondition errors, 3
when explain or boolmin-debug hit the timeout or the minimizer's variable
guardrail (--max-vars).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, NamedTuple, Sequence

from . import boolmin
from .abstraction import NORMALIZATIONS, build_abstraction, load_abstraction, save_abstraction
from .domain import DomainDefinition, JointState, load_domain_file
from .envs import DEFAULT_MAX_STEPS, get_domain, read_trace, simulate, write_trace
from .errors import (
    ContradictionNotice,
    MapexError,
    MinimizationTimeout,
    TooManyVariablesError,
)
from .nlg import PhraseMap, format_dnf, render
from .query import KINDS, METHODS, Query, answer, partition, relevancy_filter
from .summarize import CHART_FORMATS, most_probable_path, render_chart, summarize

ENV_PREFIX = "MAPEX_"

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_TIMEOUT = 3

# A converter takes a value from any source (a command-line or MAPEX_* string,
# a --config JSON value) and returns it checked, or raises ValueError saying
# what the flag must be.


def _text(v: Any) -> str:
    if not isinstance(v, str):
        raise ValueError(f"a string, got {v!r}")
    return v


def _number(kind: type, what: str, positive: bool = False) -> Callable[[Any], Any]:
    """A converter to int or float from a JSON number or a string of one,
    never from a boolean (nor, for int, from a float)."""
    def convert(v: Any):
        try:
            if isinstance(v, bool) or not isinstance(v, (str, int, kind)):
                raise ValueError
            n = kind(v)
        except (ValueError, OverflowError):
            raise ValueError(f"{what}, got {v!r}") from None
        if positive and not n > 0:  # NaN is not > 0 either
            raise ValueError(f"{what}, got {n}")
        return n
    return convert


def _switch(v: Any) -> bool:
    word = str(v).lower() if isinstance(v, (bool, str)) else None
    if word in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        return word in ("1", "true", "yes", "on")
    raise ValueError(f"one of 1/true/yes/on/0/false/no/off, got {v!r}")


class _Flag(NamedTuple):
    convert: Callable[[Any], Any]
    default: Any  # None: may stay unset; _REQUIRED: unset is an error
    help: str
    metavar: str | None = None


_REQUIRED = object()
_integer = _number(int, "an integer")


def _choice(default: Any, help: str, *options: str) -> _Flag:
    def convert(v: Any) -> str:
        if v not in options:
            raise ValueError(f"one of {', '.join(options)}, got {v!r}")
        return v
    return _Flag(convert, default, help, "{" + ",".join(options) + "}")


# Every flag but --config (a config key may spell '_' as '-')
_FLAGS = {
    "domain": _Flag(_text, _REQUIRED, "built-in domain id (e.g. sr3) or a "
                    "domain definition file (simulate and bench: ids only)"),
    "episodes": _Flag(_integer, 100, "episodes to simulate"),
    "max_steps": _Flag(_integer, DEFAULT_MAX_STEPS, "step limit per episode"),
    "seed": _Flag(_integer, 42, "random seed"),
    "trace": _Flag(_text, _REQUIRED, "trace file path"),
    "mmdp": _Flag(_text, _REQUIRED, "abstraction file path"),
    "out": _Flag(_text, "-", "output path; '-' is stdout, which simulate and "
                 "abstract refuse"),
    "normalize": _choice("state", "count normalization", *NORMALIZATIONS),
    "virtual_init": _Flag(_switch, False, "allow several initial abstract states"),
    "format": _choice("chart", "chart layout", *CHART_FORMATS),
    "type": _choice(_REQUIRED, "query type", *KINDS),
    "agents": _Flag(_text, _REQUIRED, "comma-separated agent names"),
    "actions": _Flag(_text, None, "comma-separated action ids (when/whynot)"),
    "state": _Flag(_text, None, "state index or inline per-agent bits (whynot)"),
    "predicates": _Flag(_text, None, "comma-separated predicate ids (what)"),
    "method": _choice("withrf", "query method", *METHODS),
    # 0 or less would mean "no timeout" / "refuse every problem": refused
    "timeout": _Flag(_number(float, "a positive number of seconds", positive=True),
                     3600.0, "seconds before aborting minimization"),
    "max_vars": _Flag(_number(int, "a positive integer", positive=True),
                      boolmin.MAX_VARIABLES, "minimizer variable guardrail"),
    "emit_dnf": _Flag(_switch, False, "also print the raw DNF"),
    "csv": _Flag(_text, None, "also write rows to this CSV file"),
    "table": _Flag(_text, _REQUIRED, "truth table file: first line V, then "
                   "'<bits> 0|1'"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapex",
        description="Abstract multi-agent policy traces and explain them.",
    )
    visible = ",".join(c for c, (_, help, _) in _COMMANDS.items() if help)
    sub = parser.add_subparsers(dest="command", required=True, metavar=f"{{{visible}}}")
    for command, (_, help, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help) if help else sub.add_parser(command)
        p.add_argument("--config", help="JSON file supplying defaults for any flag")
        for name in names:
            flag = _FLAGS[name]
            option = "--" + name.replace("_", "-")
            if flag.convert is _switch:
                p.add_argument(option, action="store_true", default=None, help=flag.help)
            else:
                p.add_argument(option, metavar=flag.metavar, help=flag.help)
    return parser


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
    # another command's flag is allowed, so one file can serve several commands
    unknown = [k for k in data if k.replace("-", "_") not in _FLAGS]
    if unknown:
        raise MapexError(f"config file {path} names no flag: {', '.join(unknown)}")
    return {k.replace("-", "_"): v for k, v in data.items()}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command's flags, each from its first source and converted."""
    config = _load_config(args.config)
    resolved = argparse.Namespace(command=args.command)
    for name in _COMMANDS[args.command][2]:
        flag = _FLAGS[name]
        sources = (getattr(args, name), os.environ.get(ENV_PREFIX + name.upper()),
                   config.get(name), flag.default)
        value = next((v for v in sources if v is not None), None)
        option = "--" + name.replace("_", "-")
        if value is _REQUIRED:
            raise MapexError(f"missing required option {option}")
        if value is not None:
            try:
                value = flag.convert(value)
            except ValueError as exc:
                raise MapexError(f"{option} must be {exc}") from None
        setattr(resolved, name, value)
    return resolved


def _csv_list(text: str | None) -> list[str]:
    return [part.strip() for part in (text or "").split(",") if part.strip()]


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


def _file_out(o: argparse.Namespace) -> str:
    """--out of a command that writes a file, which stdout cannot stand in for."""
    if o.out == "-":
        raise MapexError(f"{o.command} needs --out <path>")
    return o.out


def _cmd_simulate(o: argparse.Namespace) -> int:
    out = _file_out(o)
    domain = get_domain(o.domain)
    samples = simulate(o.domain, episodes=o.episodes, max_steps=o.max_steps, seed=o.seed)
    n = write_trace(out, o.domain, domain.n_agents, samples)
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


def _cmd_abstract(o: argparse.Namespace) -> int:
    out = _file_out(o)
    domain = _resolve_domain(o.domain)
    header, samples = read_trace(o.trace)
    _check_agents(f"trace {o.trace}", header.get("agents"), domain)
    m = build_abstraction(
        samples, domain.schema, normalization=o.normalize, virtual_init=o.virtual_init
    )
    save_abstraction(m, out)
    print(f"abstraction: {m.n_states} states, {m.n_transitions} transitions -> {out}")
    return EXIT_OK


def _load_mmdp(o: argparse.Namespace) -> tuple[DomainDefinition, Any]:
    domain = _resolve_domain(o.domain)
    m = load_abstraction(o.mmdp, domain.schema)
    _check_agents(f"abstraction {o.mmdp}", m.n_agents, domain)
    return domain, m


def _cmd_summarize(o: argparse.Namespace) -> int:
    domain, m = _load_mmdp(o)
    chart = summarize(m)
    text = render_chart(chart, o.format, tuple(a.name for a in domain.agents))
    _write_output(text, o.out)
    return EXIT_OK


def _build_query(o: argparse.Namespace, m) -> Query:
    agents = _csv_list(o.agents)
    actions = _csv_list(o.actions)
    if o.type in ("when", "whynot"):
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
    if o.type == "whynot":
        if o.state is None:
            raise MapexError("missing required option --state")
        state = _parse_state(o.state, m)
    return Query(
        kind=o.type,
        agents=tuple(agents),
        method=o.method,
        actions=pairs,
        state=state,
        predicates=tuple(_csv_list(o.predicates)),
    )


def _cmd_explain(o: argparse.Namespace) -> int:
    domain, m = _load_mmdp(o)
    query = _build_query(o, m)
    phrases = PhraseMap.from_domain(domain)
    deadline = time.monotonic() + o.timeout
    try:
        result = answer(query, m, domain, deadline=deadline, max_vars=o.max_vars)
    except ContradictionNotice as exc:
        _write_output(f"notice: {exc}", o.out)
        return EXIT_OK
    lines = [render(result, phrases)]
    if o.emit_dnf and query.kind in ("when", "whynot"):
        lines.append("DNF: " + format_dnf(result))
    if query.kind in ("when", "whynot") and not result.minimal:
        lines.append(_unproven_note(result.lower_bound))
    _write_output("\n".join(lines), o.out)
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


def _cmd_bench(o: argparse.Namespace) -> int:
    domain = get_domain(o.domain)
    samples = simulate(o.domain, episodes=o.episodes, max_steps=o.max_steps, seed=o.seed)
    m = build_abstraction(samples, domain.schema)
    path = most_probable_path(m)
    chart = summarize(m, path=path)
    chart_size = f"{domain.n_agents}x{len(chart.columns)}"

    spec = _bench_queries(domain)
    whynot_state = _incompatible_state(m, domain, spec["whynot"]["actions"])
    rows = []
    for kind in KINDS:
        for method in METHODS:
            q = Query(
                kind=kind,
                agents=spec[kind]["agents"],
                method=method,
                actions=spec[kind].get("actions", ()),
                state=whynot_state if kind == "whynot" else None,
                predicates=spec[kind].get("predicates", ()),
            )
            deadline = time.monotonic() + o.timeout
            start = time.perf_counter()
            status, clauses = "ok", ""
            try:
                a = answer(q, m, domain, deadline=deadline, max_vars=o.max_vars)
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
                "domain": o.domain,
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
        f"domain={o.domain} N={domain.n_agents} |S|={m.n_states} "
        f"|T|={m.n_transitions} |rho|={len(path)} |Z|={chart_size}"
    )
    table = [header] + [
        [r["query"], r["method"], r["clauses"] or "-", r["time_ms"], r["status"]]
        for r in rows
    ]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    for row in table:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())

    if o.csv:
        cols = ["domain", "agents", "states", "transitions", "path_len",
                "chart", "query", "method", "clauses", "time_ms", "status"]
        with open(o.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for r in rows:
                fh.write(",".join(str(r[c]) for c in cols) + "\n")
    return EXIT_OK


def _cmd_boolmin_debug(o: argparse.Namespace) -> int:
    path = o.table
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
    result = boolmin.minimize(ones, zeros, n_vars, max_vars=o.max_vars)
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


# command -> (function, help or None to leave it out of --help, the flags it takes)
_COMMANDS = {
    "simulate": (_cmd_simulate, "run a scripted domain policy to a trace file",
                 ("domain", "episodes", "max_steps", "seed", "out")),
    "abstract": (_cmd_abstract, "build an abstraction from a trace file",
                 ("trace", "domain", "out", "normalize", "virtual_init")),
    "summarize": (_cmd_summarize, "most-probable-path task chart",
                  ("mmdp", "domain", "format", "out")),
    "explain": (_cmd_explain, "answer a when / whynot / what query",
                ("mmdp", "domain", "type", "agents", "actions", "state", "predicates",
                 "method", "timeout", "max_vars", "emit_dnf", "out")),
    "bench": (_cmd_bench, "per-query timing table for one domain",
              ("domain", "episodes", "max_steps", "seed", "timeout", "max_vars", "csv")),
    "boolmin-debug": (_cmd_boolmin_debug, None, ("table", "max_vars")),
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args))
    except TooManyVariablesError as exc:
        print(
            f"could not explain within resource limits: {exc}\n"
            f"partial progress: 0 prime implicants "
            f"({exc.n_vars} variables > guardrail {exc.limit})",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    except MinimizationTimeout as exc:
        print(f"could not explain within resource limits: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (MapexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: input file is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
