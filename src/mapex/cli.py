"""Command-line front end wiring the pipeline:

    simulate -> abstract -> summarize / explain, plus a bench harness that
    times every query type and method on one domain.

Each flag is declared once in ``_FLAGS`` (converter, default, help), and
``_COMMANDS`` lists the flags each command takes.  argv is read from these
tables alone: the command, then ``--name value``, ``--name=value`` or a bare
switch, each name exactly --config or one of the command's flags (``-`` read
as ``_``), and -h/--help prints help built from them.  A flag's value comes
from the command line, else MAPEX_<FLAG>, else the --config JSON file, else
its default, and one converter checks it whatever its source.  A bad value,
command or flag is one ``error:`` line and exit 2.  A --config key must name
some command's flag.  simulate and abstract write files, so they need a real
--out path.  Exit codes: 0 success, 2 usage or precondition errors, 3 when
explain or boolmin-debug hit the timeout or the minimizer's variable
guardrail (--max-vars).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

from . import boolmin
from .abstraction import NORMALIZATIONS, build_abstraction, load_abstraction, save_abstraction
from .domain import DomainDefinition, JointState, load_domain_file
from .envs import DEFAULT_MAX_STEPS, get_domain, simulate
from .errors import (
    ContradictionNotice,
    MapexError,
    MinimizationTimeout,
    TooManyVariablesError,
)
from .nlg import PhraseMap, format_dnf, render
from .query import KINDS, METHODS, Query, answer, partition, relevancy_filter
from .summarize import CHART_FORMATS, most_probable_path, render_chart, summarize, text_grid
from .trace import iter_trace, write_trace

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


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, big ints, deep nesting
            raise MapexError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MapexError(f"config file {path} must hold a JSON object")
    # another command's flag is allowed, so one file can serve several commands
    unknown = [k for k in data if k.replace("-", "_") not in _FLAGS]
    if unknown:
        raise MapexError(f"config file {path} names no flag: {', '.join(unknown)}")
    return {k.replace("-", "_"): v for k, v in data.items()}


def _read_argv(argv: Sequence[str]) -> tuple[str | None, dict[str, Any] | None]:
    """The command and its command-line flags by name; -h/--help gives None
    for the flags, and for the command too when it comes first."""
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        return None, None
    if command not in _COMMANDS:
        raise MapexError(f"the command must be one of {', '.join(_VISIBLE)}, "
                         f"got {repr(command) if command else 'none'}")
    given, tokens = {}, iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        option, eq, value = token.partition("=")
        name = option[2:].replace("-", "_")
        if not option.startswith("--") or name not in ("config", *_COMMANDS[command][2]):
            raise MapexError(f"unrecognized argument {token!r} (see mapex {command} --help)")
        if not eq and name != "config" and _FLAGS[name].convert is _switch:
            value = True
        elif not eq and (value := next(tokens, "--")).startswith("--"):
            raise MapexError(f"{token} needs a value")
        given[name] = value
    return command, given


def _help(command: str | None) -> str:
    """--help from the tables: the visible commands, or one command's flags.
    Each grid row starts with an empty column, so the two-space gap indents it."""
    if command is None:
        return (f"usage: mapex {{{','.join(_VISIBLE)}}} [--flag value ...]\n\n"
                "Abstract multi-agent policy traces and explain them.\n\n"
                + text_grid([["", *item] for item in _VISIBLE.items()]))
    rows = [["", "--config CONFIG", "JSON file supplying defaults for any flag"]]
    for name in _COMMANDS[command][2]:
        flag = _FLAGS[name]
        metavar = "" if flag.convert is _switch else f" {flag.metavar or name.upper()}"
        rows.append(["", f"--{name.replace('_', '-')}{metavar}", flag.help])
    about = _COMMANDS[command][1]
    return (f"usage: mapex {command} [--flag value ...]\n\n"
            + (f"{about}\n\n" if about else "") + text_grid(rows))


def _resolve(command: str, given: dict[str, Any]) -> SimpleNamespace:
    """The command's flags, each from its first source and converted."""
    config = _load_config(given.get("config"))
    resolved = SimpleNamespace(command=command)
    for name in _COMMANDS[command][2]:
        flag = _FLAGS[name]
        sources = (given.get(name), os.environ.get(ENV_PREFIX + name.upper()),
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


def _file_out(o: SimpleNamespace) -> str:
    """--out of a command that writes a file, which stdout cannot stand in for."""
    if o.out == "-":
        raise MapexError(f"{o.command} needs --out <path>")
    return o.out


def _cmd_simulate(o: SimpleNamespace) -> int:
    out = _file_out(o)
    domain = get_domain(o.domain)
    samples = simulate(o.domain, episodes=o.episodes, max_steps=o.max_steps, seed=o.seed)
    n = write_trace(out, o.domain, domain.n_agents, samples)
    print(f"wrote {n} samples to {out}")
    return EXIT_OK


def _resolve_domain(value: str) -> DomainDefinition:
    """Registry id (sr3, rware19, ...) or a path to a domain definition file."""
    # a directory named after an id (say sr3/) must not shadow it
    if os.path.isfile(value):
        return load_domain_file(value)
    return get_domain(value)


def _check_agents(what: str, n_agents, domain: DomainDefinition) -> None:
    if n_agents != domain.n_agents:
        raise MapexError(f"{what} has {n_agents} agents but domain {domain.id} "
                         f"has {domain.n_agents}")


def _cmd_abstract(o: SimpleNamespace) -> int:
    out = _file_out(o)
    domain = _resolve_domain(o.domain)
    samples = iter_trace(o.trace)  # yields the header first, before any sample
    header = next(samples)
    _check_agents(f"trace {o.trace}", header.get("agents"), domain)
    if (recorded := header.get("domain")) != domain.id:
        raise MapexError(f"trace {o.trace} is from domain {recorded!r}, not {domain.id}")
    m = build_abstraction(
        samples, domain.schema, normalization=o.normalize, virtual_init=o.virtual_init
    )
    save_abstraction(m, out)
    print(f"abstraction: {m.n_states} states, {m.n_transitions} transitions -> {out}")
    return EXIT_OK


def _load_mmdp(o: SimpleNamespace) -> tuple[DomainDefinition, Any]:
    domain = _resolve_domain(o.domain)
    m = load_abstraction(o.mmdp, domain.schema)
    _check_agents(f"abstraction {o.mmdp}", m.n_agents, domain)
    return domain, m


def _cmd_summarize(o: SimpleNamespace) -> int:
    domain, m = _load_mmdp(o)
    chart = summarize(m)
    text = render_chart(chart, o.format, tuple(a.name for a in domain.agents))
    _write_output(text, o.out)
    return EXIT_OK


def _build_query(o: SimpleNamespace, m) -> Query:
    agents = _csv_list(o.agents)
    actions = _csv_list(o.actions)
    if len(actions) == 1 and len(agents) > 1:
        actions = actions * len(agents)
    if o.type != "what" and len(actions) != len(agents):
        raise MapexError("--actions must name one action per agent (or a single action "
                         "shared by all queried agents)")
    if o.type == "whynot" and o.state is None:
        raise MapexError("missing required option --state")
    return Query(o.type, tuple(agents), o.method,
                 actions=tuple(zip(agents, actions)) if o.type != "what" else (),
                 state=_parse_state(o.state, m) if o.type == "whynot" else None,
                 predicates=tuple(_csv_list(o.predicates)))


def _cmd_explain(o: SimpleNamespace) -> int:
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

def _bench_queries(domain: DomainDefinition, m) -> list[Query]:
    """The six default queries in table order (KINDS x METHODS), all on the
    first cooperative task's action.  The why-not asks about the first state
    (canonical order) with enabled actions, none compatible with the queried
    actions under either method."""
    tasks = [(k, e) for k, e in sorted(domain.relevance.entries.items()) if e.features]
    if not tasks:
        raise MapexError(f"domain {domain.id} has no task actions to bench")
    (agent, action), entry = next((t for t in tasks if len(t[1].agents) > 1), tasks[0])
    partners = tuple(sorted(entry.agents))
    # prefer a condition-style feature (detect) over a completion flag
    completion = set(domain.schema.task_completion_ids)
    detect = min(entry.features - completion or entry.features)
    pairs = tuple((p, action) for p in partners if action in domain.agent_spec(p).actions)
    _, _, withrf_criterion = relevancy_filter(pairs, domain.relevance)
    _, never = partition([frozenset(pairs), *withrf_criterion], m, domain)
    state = min(never, default=m.initial_state)  # m.states is sorted
    queries = (Query("when", (agent,), actions=((agent, action),)),
               Query("whynot", partners, actions=pairs, state=state),
               Query("what", (agent,), predicates=(detect,)))
    return [replace(query, method=method) for query in queries for method in METHODS]


def _cmd_bench(o: SimpleNamespace) -> int:
    domain = get_domain(o.domain)
    samples = simulate(o.domain, episodes=o.episodes, max_steps=o.max_steps, seed=o.seed)
    m = build_abstraction(samples, domain.schema)
    path = most_probable_path(m)
    chart = summarize(m, path=path)
    chart_size = f"{domain.n_agents}x{len(chart.columns)}"
    model = [o.domain, domain.n_agents, m.n_states, m.n_transitions, len(path), chart_size]

    rows = []  # in CSV column order
    for q in _bench_queries(domain, m):
        deadline = time.monotonic() + o.timeout
        start = time.perf_counter()
        status, clauses = "ok", ""
        try:
            a = answer(q, m, domain, deadline=deadline, max_vars=o.max_vars)
            if q.kind == "what":
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
        rows.append([*model, q.kind, q.method, clauses, f"{elapsed_ms:.1f}", status])

    print("domain={} N={} |S|={} |T|={} |rho|={} |Z|={}".format(*model))
    sys.stdout.write(text_grid([["query", "method", "|E|", "time_ms", "status"]] + [
        [kind, method, clauses or "-", ms, status]
        for *_, kind, method, clauses, ms, status in rows]))
    if o.csv:
        with open(o.csv, "w", encoding="utf-8") as fh:
            fh.write("domain,agents,states,transitions,path_len,chart,"
                     "query,method,clauses,time_ms,status\n")
            fh.writelines(",".join(map(str, r)) + "\n" for r in rows)
    return EXIT_OK


def _cmd_boolmin_debug(o: SimpleNamespace) -> int:
    path = o.table
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    if not rows or len(rows[0]) != 1 or not rows[0][0].isdecimal():
        raise MapexError(f"truth table {path}: first line must be the variable count")
    n_vars = int(rows[0][0])
    ones, zeros = [], []
    for row in rows[1:]:
        if (len(row) != 2 or row[1] not in ("0", "1")
                or len(row[0]) != n_vars or not set(row[0]) <= {"0", "1"}):
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
_VISIBLE = {command: help for command, (_, help, _) in _COMMANDS.items() if help}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, given = _read_argv(sys.argv[1:] if argv is None else argv)
        if given is None:
            sys.stdout.write(_help(command))
            return EXIT_OK
        return _COMMANDS[command][0](_resolve(command, given))
    except TooManyVariablesError as exc:
        print(f"could not explain within resource limits: {exc}; partial progress: "
              f"0 prime implicants ({exc.n_vars} variables > guardrail {exc.limit})",
              file=sys.stderr)
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


if __name__ == "__main__":
    raise SystemExit(main())
