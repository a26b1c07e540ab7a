import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mapex import (abstraction, boolmin, build_abstraction, get_domain, load_abstraction,
                   render_chart, save_abstraction, simulate, summarize)
from mapex import cli
from mapex.cli import main
from mapex.domain import domain_to_dict
from synth import (BAD_MODEL_MMDP, BAD_MODEL_MMDP_V2, MALFORMED_MMDP, MALFORMED_MMDP_V2,
                   rewrite_mmdp, save_v1)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Trace + abstraction files produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    trace = root / "sr3.jsonl"
    mmdp = root / "sr3.mmdp"
    assert main(["simulate", "--domain", "sr3", "--episodes", "150",
                 "--seed", "42", "--out", str(trace)]) == 0
    assert main(["abstract", "--trace", str(trace), "--domain", "sr3",
                 "--out", str(mmdp)]) == 0
    return root, trace, mmdp


def v1_copy(mmdp, out, domain_id="sr3"):
    """The model of ``mmdp`` saved by the version 1 writer at ``out``."""
    save_v1(load_abstraction(mmdp, get_domain(domain_id).schema), out)
    return out


class TestSimulate:
    def test_identical_runs_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["simulate", "--domain", "sr3", "--episodes", "40",
                         "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_domain_exits_2(self, tmp_path):
        code = main(["simulate", "--domain", "mars", "--episodes", "1",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("flag,message", [
        ("--episodes", "episodes must be >= 1, got 0"),
        ("--max-steps", "max_steps must be >= 1, got 0"),
    ])
    def test_refused_count_keeps_the_out_file(self, tmp_path, capsys, flag, message):
        # the counts are checked before the trace file is opened
        out = tmp_path / "keep.jsonl"
        out.write_bytes(b"keep me\n")
        assert main(["simulate", "--domain", "lbf9", flag, "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert out.read_bytes() == b"keep me\n"

    def test_bad_flag_exits_2(self, capsys):
        assert main(["simulate", "--nope"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestArgv:
    """argv is read from cli's own tables: a bad command line is one
    ``error:`` line and exit 2, and the hidden command is never offered."""

    @pytest.mark.parametrize("argv", [
        ["bogus"], ["simulate", "--episods", "3"], [],
        ["simulate", "--domain"], ["simulate", "stray"],
        ["simulate", "--domain", "--episodes", "3"],
    ], ids=["unknown-command", "misspelt-flag", "no-command", "no-value",
            "stray-word", "flag-as-value"])
    def test_bad_command_line_is_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "boolmin-debug" not in err[0]

    def test_names_are_exact(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "--domain", "sr3", "--epi", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unrecognized argument '--epi' (see mapex simulate --help)"]
        assert main(["simulate", "--domain", "sr3", "--max_steps", "5",
                     "--episodes", "1", "--out", str(out)]) == 0

    def test_name_equals_value(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "--domain=sr3", "--episodes=3", f"--out={out}"]) == 0
        assert capsys.readouterr().out.startswith("wrote ") and out.exists()

    @pytest.mark.parametrize("argv", [["--max-vars", "-1"], ["--max-vars=-1"]])
    def test_negative_value_reaches_its_converter(self, tmp_path, capsys, argv):
        table = tmp_path / "tt.txt"
        table.write_text("2\n11 1\n")
        assert main(["boolmin-debug", "--table", str(table), *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --max-vars must be a positive integer, got -1"]

    def test_readme_examples_name_only_known_flags(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("mapex ")]
        assert len(commands) >= 7
        for line in commands:
            command, given = cli._read_argv(shlex.split(line)[1:])
            assert command in cli._COMMANDS and given, line


class TestPipelineComposability:
    def test_file_pipeline_matches_in_process(self, pipeline, tmp_path, capsys):
        _, _, mmdp = pipeline
        assert main(["summarize", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--format", "chart"]) == 0
        cli_chart = capsys.readouterr().out
        domain = get_domain("sr3")
        m = build_abstraction(
            simulate("sr3", episodes=150, seed=42), domain.schema
        )
        lib_chart = render_chart(
            summarize(m), "chart", tuple(a.name for a in domain.agents)
        )
        assert cli_chart == lib_chart

    def test_directory_named_like_a_domain_id(self, pipeline, tmp_path, monkeypatch,
                                               capsys):
        _, _, mmdp = pipeline
        monkeypatch.chdir(tmp_path)
        argv = ["summarize", "--mmdp", str(mmdp), "--domain", "sr3"]
        assert main(argv) == 0
        chart = capsys.readouterr().out
        (tmp_path / "sr3").mkdir()
        assert main(argv) == 0
        assert capsys.readouterr().out == chart

    def test_replaced_file_is_read_again(self, tmp_path, capsys):
        # nothing read from a path outlives a call: the second call, on the same
        # path and modification time, prints the new file's chart
        domain = get_domain("sr4")
        paths = []
        for seed in (42, 1):
            paths.append(tmp_path / f"sr4-{seed}.mmdp")
            save_abstraction(build_abstraction(
                simulate("sr4", episodes=5, seed=seed), domain.schema), paths[-1])
        charts = []
        for path in paths:
            assert main(["summarize", "--mmdp", str(path), "--domain", "sr4"]) == 0
            charts.append(capsys.readouterr().out)
        assert charts[0] != charts[1]
        shared = tmp_path / "sr4.mmdp"
        for path, chart in zip(paths, charts):
            stamp = shared.stat().st_mtime_ns if shared.exists() else None
            shared.write_bytes(path.read_bytes())
            if stamp is not None:
                os.utime(shared, ns=(stamp, stamp))
            assert main(["summarize", "--mmdp", str(shared), "--domain", "sr4"]) == 0
            assert capsys.readouterr().out == chart

    def test_blank_line_between_records(self, pipeline, tmp_path, capsys):
        _, trace, mmdp = pipeline
        header, *records = trace.read_text().splitlines()
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n".join([header, *records[:2], "", *records[2:]]) + "\n")
        out = tmp_path / "m.mmdp"
        assert main(["abstract", "--trace", str(spaced), "--domain", "sr3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == mmdp.read_bytes()

    def test_summarize_to_file(self, pipeline, tmp_path):
        _, _, mmdp = pipeline
        out = tmp_path / "chart.csv"
        assert main(["summarize", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("agent,T1")


class TestExplain:
    def test_when_sentence(self, pipeline, capsys):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when", "--agents", "UAV",
                     "--actions", "rescue_victim", "--method", "withrf"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("UAV rescues the victim when ")

    def test_emit_dnf(self, pipeline, capsys):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when", "--agents", "UAV",
                     "--actions", "rescue_victim", "--emit-dnf"]) == 0
        assert "DNF: (UAV.victim_detect" in capsys.readouterr().out

    def test_whynot_with_inline_state(self, pipeline, capsys):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "whynot", "--agents", "UGV_1,UGV_2",
                     "--actions", "remove_obstacle", "--state", "1,0,0"]) == 0
        assert "because" in capsys.readouterr().out

    def test_whynot_with_state_index(self, pipeline, capsys):
        _, _, mmdp = pipeline
        # canonical state 0 is the all-zero initial state
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "whynot", "--agents", "UGV_1,UGV_2",
                     "--actions", "remove_obstacle", "--state", "0"]) == 0

    def test_contradiction_notice_exits_0(self, pipeline, capsys):
        _, _, mmdp = pipeline
        domain = get_domain("sr3")
        m = build_abstraction(simulate("sr3", episodes=150, seed=42), domain.schema)
        removal = next(
            s for s in m.states
            if any(a[1] == "remove_obstacle" and a[2] == "remove_obstacle"
                   for a in m.enabled_actions(s))
        )
        state = ",".join(str(b) for b in removal)
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "whynot", "--agents", "UGV_1,UGV_2",
                     "--actions", "remove_obstacle", "--state", state]) == 0
        assert "DO take this action" in capsys.readouterr().out

    def test_what_query(self, pipeline, capsys):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "what", "--agents", "UAV",
                     "--predicates", "victim_detect"]) == 0
        assert "most likely to rescue the victim" in capsys.readouterr().out

    def test_norf_guardrail_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "lbf9.jsonl"
        mmdp = tmp_path / "lbf9.mmdp"
        assert main(["simulate", "--domain", "lbf9", "--episodes", "6",
                     "--seed", "1", "--out", str(trace)]) == 0
        assert main(["abstract", "--trace", str(trace), "--domain", "lbf9",
                     "--out", str(mmdp)]) == 0
        code = main(["explain", "--mmdp", str(mmdp), "--domain", "lbf9",
                     "--type", "when", "--agents", "F_1",
                     "--actions", "collect_food_1", "--method", "norf",
                     "--timeout", "5"])
        assert code == 3
        assert "partial progress" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--type", "when", "--agents", "UAV", "--actions", "rescue_victim,fight_fire"],
         "--actions must name one action per agent (or a single action shared by all "
         "queried agents)"),
        (["--type", "whynot", "--agents", "UAV", "--actions", "rescue_victim"],
         "missing required option --state"),
        (["--type", "what", "--agents", "UAV", "--predicates", "nope"],
         "unknown predicate id 'nope'"),
    ], ids=["action-per-agent", "whynot-without-state", "unknown-predicate"])
    def test_bad_query_is_one_error_line(self, pipeline, capsys, flags, message):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("timeout, primes", [(1, 0), (3, 1)])
    def test_timeout_exits_3(self, pipeline, capsys, fake_clock, timeout, primes):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when", "--agents", "UAV", "--actions", "rescue_victim",
                     "--timeout", str(timeout)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"could not explain within resource limits: minimization timed out during "
            f"prime generation; partial progress: {primes} prime implicant(s) found\n")
        # one tick sets the deadline; the poll after ``timeout`` more ticks stops
        assert next(fake_clock) == timeout + 2

    @pytest.mark.parametrize("state", ["999", "abc"])
    def test_bad_state_exits_2(self, pipeline, capsys, state):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "whynot", "--agents", "UGV_1,UGV_2",
                     "--actions", "remove_obstacle", "--state", state]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --state")

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_non_positive_timeout_exits_2(self, pipeline, capsys, timeout):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when", "--agents", "UAV",
                     "--actions", "rescue_victim", "--timeout", timeout]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --timeout must be a positive number of seconds, "
                       f"got {float(timeout)}"]

    @pytest.mark.parametrize("flags, name", [
        (["--type", "when", "--agents", "UAV,UAV", "--actions", "rescue_victim,move"],
         "agent 'UAV'"),
        (["--type", "what", "--agents", "UAV", "--predicates", "victim_detect,victim_detect"],
         "predicate 'victim_detect'"),
    ], ids=["agent", "predicate"])
    def test_name_given_twice_exits_2(self, pipeline, capsys, flags, name):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} is named twice in the query\n"

    def test_missing_required_flag_exits_2(self, pipeline):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when"]) == 2


class TestExplainReadsColumns:
    # every command reads a model through its transition columns: explain,
    # abstract and summarize build no per-edge Transition object, which only
    # the out_edges view makes
    QUERIES = [
        ["--type", "when", "--agents", "UAV", "--actions", "rescue_victim"],
        ["--type", "whynot", "--agents", "UGV_1,UGV_2", "--actions", "remove_obstacle",
         "--state", "0"],
        ["--type", "what", "--agents", "UAV", "--predicates", "victim_detect"],
    ]

    class EdgeBuilt(Exception):
        pass

    def test_explain_builds_no_transition(self, pipeline, tmp_path, capsys, monkeypatch):
        _, trace, mmdp = pipeline
        saved = tmp_path / "m.mmdp"
        argvs = [["explain", "--mmdp", str(mmdp), "--domain", "sr3", "--method", method,
                  *query] for query in self.QUERIES for method in ("withrf", "norf")]
        argvs += [["abstract", "--trace", str(trace), "--domain", "sr3", "--out", str(saved)],
                  *(["summarize", "--mmdp", str(mmdp), "--domain", "sr3", "--format", fmt]
                    for fmt in ("chart", "csv"))]
        expected = []
        for argv in argvs:
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)

        def edge(*args):
            raise self.EdgeBuilt(args)

        monkeypatch.setattr(abstraction, "Transition", edge)
        for argv, out in zip(argvs, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == out
        assert saved.read_bytes() == mmdp.read_bytes()
        with pytest.raises(self.EdgeBuilt):
            load_abstraction(mmdp, get_domain("sr3").schema).out_edges


class TestMalformedInputFiles:
    @pytest.mark.parametrize("reader", ["abstract-trace", "summarize-mmdp",
                                        "domain-file", "boolmin-table"])
    def test_non_utf8_file_exits_2(self, pipeline, tmp_path, capsys, reader):
        _, _, mmdp = pipeline
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe" + "not utf-8".encode("utf-16-le"))
        argv = {
            "abstract-trace": ["abstract", "--trace", str(bad), "--domain", "sr3",
                               "--out", str(tmp_path / "m.mmdp")],
            "summarize-mmdp": ["summarize", "--mmdp", str(bad), "--domain", "sr3"],
            "domain-file": ["summarize", "--mmdp", str(mmdp), "--domain", str(bad)],
            "boolmin-table": ["boolmin-debug", "--table", str(bad)],
        }[reader]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: input file is not UTF-8 text")

    def test_domain_file_integer_over_the_digit_limit(self, pipeline, tmp_path, capsys):
        _, _, mmdp = pipeline
        data = domain_to_dict(get_domain("sr3"))
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(data).replace('"version": 1', '"version": ' + "9" * 5000))
        assert main(["summarize", "--mmdp", str(mmdp), "--domain", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: invalid JSON in {bad}: ")

    @pytest.mark.parametrize("where", ["trace-header", "trace-record", "domain-file",
                                       "config-file"])
    def test_json_nested_too_deep_exits_2(self, pipeline, tmp_path, capsys, where):
        # a RecursionError is no ValueError: it ended in a traceback and exit 1
        _, trace, mmdp = pipeline
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(RecursionError) as exc:
            json.loads(deep)
        bad = tmp_path / "deep.json"
        header, *records = trace.read_text().splitlines()
        abstract = ["abstract", "--trace", str(bad), "--domain", "sr3",
                    "--out", str(tmp_path / "m.mmdp")]
        if where == "trace-header":
            bad.write_text("\n".join([deep, *records]) + "\n")
            argv, line = abstract, f"{bad}: bad header: {exc.value}"
        elif where == "trace-record":
            # line 5 is in the writer's layout, after a repeated state
            before, end = records[3].split('"action":')[0], records[3].index(',"next_state":')
            records[3] = f'{before}"action":{deep}{records[3][end:]}'
            bad.write_text("\n".join([header, *records]) + "\n")
            argv, line = abstract, f"{bad}:5: bad record: {exc.value}"
        elif where == "domain-file":
            bad.write_text(deep)
            argv = ["summarize", "--mmdp", str(mmdp), "--domain", str(bad)]
            line = f"invalid JSON in {bad}: {exc.value}"
        else:
            bad.write_text(deep)
            argv = ["explain", "--config", str(bad)]
            line = f"config file {bad} is not valid JSON: {exc.value}"
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["abstract", "--trace", str(empty), "--domain", "sr3",
                     "--out", str(tmp_path / "m.mmdp")]) == 2
        assert capsys.readouterr().err == f"error: {empty}: empty trace file\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["agents"][1].update(name="UAV"),
         "duplicate agent names: ['UAV', 'UAV', 'UGV_2']"),
        (lambda d: d["relevance"].append(d["relevance"][0]),
         "duplicate relevance entry for ('UAV', 'fight_fire')"),
    ], ids=["agent-name", "relevance-entry"])
    def test_domain_file_repeats_exits_2(self, pipeline, tmp_path, capsys, edit, message):
        _, _, mmdp = pipeline
        data = domain_to_dict(get_domain("sr3"))
        edit(data)
        bad = tmp_path / "repeat.json"
        bad.write_text(json.dumps(data))
        assert main(["summarize", "--mmdp", str(mmdp), "--domain", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("action", ["rescue victim", "rescue,victim"],
                             ids=["whitespace", "comma"])
    def test_domain_file_action_id_not_a_word_exits_2(self, pipeline, tmp_path, capsys,
                                                       action):
        # a model file writes a joint action comma-joined in a space-split line
        _, _, mmdp = pipeline
        bad = tmp_path / "action.json"
        text = json.dumps(domain_to_dict(get_domain("sr3")))
        bad.write_text(text.replace('"rescue_victim"', json.dumps(action)))
        assert main(["summarize", "--mmdp", str(mmdp), "--domain", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: action id {action!r} of agent 'UAV' must be a word, "
            f"with no whitespace and no comma\n")

    @pytest.mark.parametrize("old, new, message", [
        ('"UAV"', '"U,AV"', "agent name 'U,AV'"),
        ('"victim_detect"', '"victim,detect"', "predicate id 'victim,detect'"),
        ('"label": "fire"', '"label": "fire,smoke"', "label 'fire,smoke'"),
    ], ids=["agent", "predicate", "label"])
    def test_domain_file_name_with_comma_exits_2(self, pipeline, tmp_path, capsys,
                                                 old, new, message):
        # --agents and --predicates split on commas, and a CSV chart joins on them
        _, _, mmdp = pipeline
        bad = tmp_path / "comma.json"
        bad.write_text(json.dumps(domain_to_dict(get_domain("sr3"))).replace(old, new))
        assert main(["summarize", "--mmdp", str(mmdp), "--domain", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} must not contain a comma\n"

    def test_crlf_mmdp_loads_as_saved(self, pipeline, tmp_path, capsys):
        # text mode reads \r\n line ends as \n, so the checksum still holds
        _, _, mmdp = pipeline
        crlf = tmp_path / "crlf.mmdp"
        crlf.write_bytes(mmdp.read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for path in (mmdp, crlf):
            for argv in (["summarize"],
                         ["explain", "--type", "what", "--agents", "UAV",
                          "--predicates", "victim_detect"]):
                assert main([*argv, "--mmdp", str(path), "--domain", "sr3"]) == 0
                outputs.append(capsys.readouterr())
        assert outputs[:2] == outputs[2:]
        schema = get_domain("sr3").schema
        assert load_abstraction(crlf, schema) == load_abstraction(mmdp, schema)

    def test_mmdp_without_checksum_exits_2(self, pipeline, tmp_path, capsys):
        _, _, mmdp = pipeline
        bad = tmp_path / "bare.mmdp"
        bad.write_text("".join(mmdp.read_text().splitlines(keepends=True)[:-1]))
        assert main(["summarize", "--mmdp", str(bad), "--domain", "sr3"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: missing checksum line\n"

    @pytest.mark.parametrize("case", sorted(MALFORMED_MMDP))
    def test_malformed_mmdp_exits_2(self, pipeline, tmp_path, capsys, case):
        _, _, mmdp = pipeline
        edit, message = MALFORMED_MMDP[case]
        bad = rewrite_mmdp(v1_copy(mmdp, tmp_path / "v1.mmdp"), tmp_path / "bad.mmdp", edit)
        assert main(["summarize", "--mmdp", str(bad), "--domain", "sr3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MMDP_V2))
    def test_malformed_mmdp_v2_exits_2(self, pipeline, tmp_path, capsys, case):
        _, _, mmdp = pipeline
        edit, message = MALFORMED_MMDP_V2[case]
        bad = rewrite_mmdp(mmdp, tmp_path / "bad.mmdp", edit)
        assert main(["summarize", "--mmdp", str(bad), "--domain", "sr3"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]

    @pytest.mark.parametrize("entries,count", [("0:1,1:0", 0), ("0:-1,1:1", -1)],
                             ids=["zero", "negative"])
    def test_initial_count_below_one_exits_2(self, pipeline, tmp_path, capsys,
                                             entries, count):
        _, _, mmdp = pipeline

        def edit(lines):
            lines[5:7] = ["initial 0", f"init-counts {entries}"]

        bad = rewrite_mmdp(mmdp, tmp_path / "bad.mmdp", edit)
        assert main(["summarize", "--mmdp", str(bad), "--domain", "sr3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: initial count {count} < 1 for ")

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_MMDP))
    def test_bad_model_exits_2(self, pipeline, tmp_path, capsys, case):
        # the constructor's own checks: the line names the transition, not the file
        _, _, mmdp = pipeline
        edit, message = BAD_MODEL_MMDP[case]
        bad = rewrite_mmdp(v1_copy(mmdp, tmp_path / "v1.mmdp"), tmp_path / "bad.mmdp", edit)
        assert main(["summarize", "--mmdp", str(bad), "--domain", "sr3"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_MMDP_V2))
    def test_bad_model_v2_exits_2(self, pipeline, tmp_path, capsys, case):
        _, _, mmdp = pipeline
        edit, message = BAD_MODEL_MMDP_V2[case]
        bad = rewrite_mmdp(mmdp, tmp_path / "bad.mmdp", edit)
        assert main(["summarize", "--mmdp", str(bad), "--domain", "sr3"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("field", ["tasks", "done", "pos"])
    def test_agent_record_missing_field_exits_2(self, pipeline, tmp_path, capsys,
                                                 field):
        _, trace, _ = pipeline
        header, first, *rest = trace.read_text().splitlines()
        rec = json.loads(first)
        del rec["state"][0][field]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([header, json.dumps(rec), *rest]) + "\n")
        assert main(["abstract", "--trace", str(bad), "--domain", "sr3",
                     "--out", str(tmp_path / "m.mmdp")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: episode 0 step 0: malformed agent record "
                       f"(KeyError: '{field}')"]


class TestAgentCount:
    # sr3 and sr4 share a schema, so only the agent count tells their files apart
    @pytest.mark.parametrize("argv", [
        ["summarize"],
        ["explain", "--type", "when", "--agents", "UGV_3",
         "--actions", "remove_obstacle", "--method", "norf"],
        ["explain", "--type", "what", "--agents", "UGV_3",
         "--predicates", "obstacle_detect"],
    ], ids=["summarize", "when", "what"])
    def test_mmdp_of_another_team_exits_2(self, pipeline, capsys, argv):
        _, _, mmdp = pipeline
        assert main([argv[0], "--mmdp", str(mmdp), "--domain", "sr4", *argv[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: abstraction {mmdp} has 3 agents but domain sr4 has 4"]

    def test_trace_of_another_team_exits_2(self, pipeline, tmp_path, capsys):
        _, trace, _ = pipeline
        out = tmp_path / "m.mmdp"
        assert main(["abstract", "--trace", str(trace), "--domain", "sr5",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: trace {trace} has 3 agents but domain sr5 has 5"]
        assert not out.exists()

    def test_header_is_checked_before_any_sample(self, pipeline, tmp_path, capsys):
        _, trace, _ = pipeline
        lines = trace.read_text().splitlines()
        lines[5] = "{bad"
        bad, out = tmp_path / "bad.jsonl", tmp_path / "m.mmdp"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["abstract", "--trace", str(bad), "--domain", "sr5",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: trace {bad} has 3 agents but domain sr5 has 5"]
        assert not out.exists()

    def test_trace_of_another_domain_exits_2(self, tmp_path, capsys):
        # sr4 and lbf4 both have 4 agents; a broken line shows no sample is read
        trace, out = tmp_path / "sr4.jsonl", tmp_path / "m.mmdp"
        assert main(["simulate", "--domain", "sr4", "--episodes", "2",
                     "--out", str(trace)]) == 0
        trace.write_text(trace.read_text() + "{bad\n")
        capsys.readouterr()
        assert main(["abstract", "--trace", str(trace), "--domain", "lbf4",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: trace {trace} is from domain 'sr4', not lbf4"]
        assert not out.exists()

    def test_first_fault_in_file_order(self, pipeline, tmp_path, capsys):
        # the samples stream into the model, so a bad agent record in the
        # first sample is found before a broken last line
        _, trace, _ = pipeline
        header, first, *rest = trace.read_text().splitlines()
        rec = json.loads(first)
        del rec["state"][0]["pos"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([header, json.dumps(rec), *rest, "{bad"]) + "\n")
        assert main(["abstract", "--trace", str(bad), "--domain", "sr3",
                     "--out", str(tmp_path / "m.mmdp")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: episode 0 step 0: malformed agent record (KeyError: 'pos')"]

    @pytest.mark.parametrize("fields", [("state", "action", "next_state"), ("state",),
                                        ("action",), ("next_state",)])
    def test_record_agent_count_must_match_the_header(self, pipeline, tmp_path, capsys,
                                                      fields):
        # every record from line 5 on cut to two of the header's three agents;
        # line 5 is a compact record in the middle of episode 0
        _, trace, _ = pipeline
        lines = trace.read_text().splitlines()
        for i in range(4, len(lines)):
            rec = json.loads(lines[i])
            for field in fields:
                rec[field] = rec[field][:2]
            lines[i] = json.dumps(rec, separators=(",", ":"))
        bad, out = tmp_path / "bad.jsonl", tmp_path / "m.mmdp"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["abstract", "--trace", str(bad), "--domain", "sr3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}:5: state, action and next_state must hold 3 agents, "
            f"as the header says"]
        assert not out.exists()

    def test_record_agent_count_checked_under_optimize(self, pipeline, tmp_path):
        _, trace, _ = pipeline
        header, *records = trace.read_text().splitlines()
        cut = [json.dumps({**rec, "state": rec["state"][:2], "action": rec["action"][:2],
                           "next_state": rec["next_state"][:2]})
               for rec in map(json.loads, records)]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([header, *cut]) + "\n")
        code = ("import sys\nfrom mapex.cli import main\n"
                f"sys.exit(main(['abstract', '--trace', {str(bad)!r}, '--domain', 'sr3', "
                f"'--out', {str(tmp_path / 'm.mmdp')!r}]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert (run.returncode, run.stderr) == (
            2, f"error: {bad}:2: state, action and next_state must hold 3 agents, "
               f"as the header says\n")

    def test_abstract_memory_is_below_the_trace_size(self, tmp_path, capsys):
        trace, out = tmp_path / "sr3.jsonl", tmp_path / "sr3.mmdp"
        assert main(["simulate", "--domain", "sr3", "--episodes", "400", "--seed", "42",
                     "--out", str(trace)]) == 0
        tracemalloc.start()
        try:
            assert main(["abstract", "--trace", str(trace), "--domain", "sr3",
                         "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace.stat().st_size


class TestJsonTypes:
    """A JSON value of the wrong type is refused where the field is read:
    ``True == 1`` and ``3.0 == 3``, and ``str()`` turns null into "None"."""

    @pytest.mark.parametrize("key,value,line", [
        ("version", True, "unsupported version True"),
        ("version", 1.0, "unsupported version 1.0"),
        ("agents", 3.0, "agents must be an integer, got 3.0"),
        ("agents", True, "agents must be an integer, got True"),
    ])
    def test_trace_header(self, pipeline, tmp_path, capsys, key, value, line):
        _, trace, _ = pipeline
        header, *rest = trace.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps({**json.loads(header), key: value}),
                                  *rest]) + "\n")
        assert main(["abstract", "--trace", str(bad), "--domain", "sr3",
                     "--out", str(tmp_path / "m.mmdp")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {line}"]

    @pytest.mark.parametrize("path,value,line", [
        (("features", 0, "label"), None, "features[0].label: expected a string"),
        (("features", 0, "positive"), ["x"], "features[0].positive: expected a string"),
        (("action_phrases", "rescue_victim", "base"), None,
         "action_phrases[rescue_victim].base: expected a string"),
        (("id",), None, "id: expected a string"),
        (("version",), True, "unsupported domain version True"),
        (("version",), 1.0, "unsupported domain version 1.0"),
    ], ids=["label-null", "positive-list", "base-null", "id-null", "version-true",
            "version-float"])
    def test_domain_file(self, pipeline, tmp_path, capsys, path, value, line):
        _, _, mmdp = pipeline
        data = domain_to_dict(get_domain("sr3"))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "sr3.json"
        bad.write_text(json.dumps(data))
        assert main(["summarize", "--mmdp", str(mmdp), "--domain", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]


class TestTraceRecordTypes:
    @staticmethod
    def abstract_with(pipeline, tmp_path, field, value):
        """Exit code of ``abstract`` on the trace with ``field`` of its first
        record set to ``value``, and the path of that trace."""
        _, trace, _ = pipeline
        header, first, *rest = trace.read_text().splitlines()
        rec = json.loads(first)
        rec[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([header, json.dumps(rec), *rest]) + "\n")
        return main(["abstract", "--trace", str(bad), "--domain", "sr3",
                     "--out", str(tmp_path / "m.mmdp")]), bad

    @pytest.mark.parametrize("field,value", [
        ("episode", [{}]), ("episode", {}), ("step", [0]), ("step", "0"),
        ("episode", True),
    ])
    def test_non_integer_episode_or_step_exits_2(self, pipeline, tmp_path, capsys,
                                                  field, value):
        code, bad = self.abstract_with(pipeline, tmp_path, field, value)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}:2: episode and step must be integers"]

    # a list or an int among the actions raised TypeError; a comma, a space or
    # an empty id wrote a model file that could not be read back; a string in
    # place of the list was split into one-letter actions
    @pytest.mark.parametrize("value", [
        ["rescue_victim", ["idle"], "idle"], ["rescue_victim", 1, "idle"],
        ["a,b", "idle", "idle"], ["a b", "idle", "idle"], ["a\tb", "idle", "idle"],
        ["", "idle", "idle"], "abc", {"a": 1, "b": 2, "c": 3},
    ])
    def test_malformed_action_ids_exit_2(self, pipeline, tmp_path, capsys, value):
        code, bad = self.abstract_with(pipeline, tmp_path, "action", value)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}:2: action must be a list of strings "
                       "without commas or spaces"]


class TestUnprovenCovers:
    """A cover the search could not prove minimal is marked on every surface
    that prints one; ``minimize`` is wrapped to mark every cover so."""

    @pytest.fixture
    def unproven(self, monkeypatch):
        minimize = boolmin.minimize

        def marked(*args, **kwargs):
            cover = minimize(*args, **kwargs)
            return boolmin.Cover(cover, False, 7)

        monkeypatch.setattr(boolmin, "minimize", marked)

    NOTE = "note: may not be the shortest answer; any answer needs at least 7 clauses"

    def test_explain_prints_a_note(self, pipeline, capsys, unproven):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when", "--agents", "UAV",
                     "--actions", "rescue_victim", "--emit-dnf"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[1].startswith("DNF: ")
        assert lines[2] == self.NOTE

    def test_explain_without_a_note_when_proven(self, pipeline, capsys):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when", "--agents", "UAV",
                     "--actions", "rescue_victim"]) == 0
        assert "note:" not in capsys.readouterr().out

    def test_bench_status(self, tmp_path, capsys, unproven):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--domain", "sr3", "--episodes", "20",
                     "--csv", str(csv_path)]) == 0
        table = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert len(table) == len(rows) == 6
        for cells, row in zip(table, rows):
            want = "ok" if row[6] == "what" else "not-minimal"
            assert cells[:2] == row[6:8] and cells[-1] == row[10] == want, (cells, row)

    def test_boolmin_debug_prints_a_note(self, tmp_path, capsys, unproven):
        table = tmp_path / "tt.txt"
        table.write_text("2\n11 1\n00 0\n01 0\n10 0\n")
        assert main(["boolmin-debug", "--table", str(table)]) == 0
        assert capsys.readouterr().out.splitlines() == ["x0 & x1", self.NOTE]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("ab0,:", max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text("ab", max_size=2),
                                                                 inner, max_size=2),
    max_leaves=4,
)


def _json_paths(value, path=()) -> list[tuple]:
    """The key paths of every node below the root of a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for key, child in items
            for p in [(*path, key), *_json_paths(child, (*path, key))]]


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A 4-episode sr3 trace and its abstraction, as saved and as the version
    1 writer saves it, small enough to fuzz."""
    root = tmp_path_factory.mktemp("fuzz")
    trace, mmdp = root / "sr3.jsonl", root / "sr3.mmdp"
    assert main(["simulate", "--domain", "sr3", "--episodes", "4", "--seed", "3",
                 "--out", str(trace)]) == 0
    assert main(["abstract", "--trace", str(trace), "--domain", "sr3",
                 "--out", str(mmdp)]) == 0
    return trace, mmdp, v1_copy(mmdp, root / "sr3-v1.mmdp")


class TestCliFuzz:
    """Mutated inputs end in an answer, a one-line error (exit 2) or a
    resource-limit exit (3), never a traceback."""

    COMMANDS = [
        ["summarize"],
        ["explain", "--type", "when", "--agents", "UAV",
         "--actions", "rescue_victim", "--method", "norf"],
        ["explain", "--type", "what", "--agents", "UAV",
         "--predicates", "victim_detect"],
    ]

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), domain=st.sampled_from(["sr3", "sr4", "sr5", "lbf2"]),
           target=st.sampled_from(["trace", "mmdp", "domain file"]))
    def test_mutated_inputs(self, small_pipeline, data, domain, target):
        trace, mmdp, mmdp_v1 = small_pipeline
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if target == "trace":
                lines = trace.read_text().splitlines()
                k = data.draw(st.integers(0, min(len(lines), 8) - 1), label="line")
                rec = json.loads(lines[k])
                field = data.draw(st.sampled_from(sorted(rec) + ["extra"]), label="field")
                rec[field] = data.draw(_JSON_VALUES, label="value")
                lines[k] = json.dumps(rec)
                bad = tmp / "bad.jsonl"
                bad.write_text("\n".join(lines) + "\n")
                argv = ["abstract", "--trace", str(bad), "--out", str(tmp / "m.mmdp")]
            elif target == "mmdp":
                # a space-separated word or a comma-separated entry of a line
                # of either version replaced
                def edit(lines):
                    k = data.draw(st.integers(0, len(lines) - 1), label="line")
                    sep = data.draw(st.sampled_from([" ", ","]), label="separator")
                    words = lines[k].split(sep)
                    w = data.draw(st.integers(0, len(words)), label="word")
                    text = data.draw(st.text("01239,:-x ", max_size=4), label="text")
                    lines[k] = sep.join(words[:w] + [text] + words[w + 1:])

                source = data.draw(st.sampled_from([mmdp, mmdp_v1]), label="version")
                bad = rewrite_mmdp(source, tmp / "bad.mmdp", edit)
                argv = data.draw(st.sampled_from(self.COMMANDS), label="command")
                argv = [argv[0], "--mmdp", str(bad), *argv[1:]]
            else:
                # one node of the model's domain, saved as a file, replaced
                spec = domain_to_dict(get_domain("sr3"))
                path = data.draw(st.sampled_from(_json_paths(spec)), label="node")
                node = spec
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = data.draw(_JSON_VALUES, label="value")
                domain = tmp / "sr3.json"
                domain.write_text(json.dumps(spec))
                argv = data.draw(st.sampled_from(self.COMMANDS), label="command")
                argv = [argv[0], "--mmdp", str(mmdp), *argv[1:]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--domain", str(domain)])
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), domain=st.sampled_from(["sr3", "sr4", "sr5", "lbf2"]))
    def test_mutated_compact_records(self, small_pipeline, data, domain):
        """One node of one record changed and written back in the writer's
        compact layout, and with it, if drawn, the next record's state: the
        mutation reaches the reader's reuse path."""
        trace, _, _ = small_pipeline
        header, *records = trace.read_text().splitlines()
        k = data.draw(st.integers(0, min(len(records), 12) - 2), label="record")
        rec, nxt = json.loads(records[k]), json.loads(records[k + 1])
        path = data.draw(st.sampled_from(_json_paths(rec)), label="node")
        value = data.draw(_JSON_VALUES, label="value")
        targets = [(rec, path)]
        if path[0] == "next_state" and data.draw(st.booleans(), label="carry"):
            targets.append((nxt, ("state", *path[1:])))
        for node, keys in targets:
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        records[k:k + 2] = [json.dumps(r, separators=(",", ":")) for r in (rec, nxt)]
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.jsonl"
            bad.write_text("\n".join([header, *records]) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["abstract", "--trace", str(bad), "--domain", domain,
                             "--out", str(Path(tmp) / "m.mmdp")])
        assert code in (0, 2, 3), err.getvalue()
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()

    FLAG_NAMES = sorted({f"--{n.replace('_', '-')}" for n in cli._FLAGS}
                        | {"--config", "--episods", "--max_vars", "--epi", "--help", "-h"})

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["simulate", "abstract", "summarize", "explain",
                                    "boolmin-debug", "bogus", "", "--help"]),
           tokens=st.lists(st.one_of(
               st.sampled_from(FLAG_NAMES),
               st.builds("{}={}".format, st.sampled_from(FLAG_NAMES),
                         st.sampled_from(["3", "", "-1", "sr3", "x=y"])),
               st.sampled_from(["3", "-1", "0", "1.5", "sr3", "yes", "x", "-", "", "--"]),
           ), max_size=6))
    def test_argv_tokens(self, command, tokens):
        """Any token list gives an answer, one error line (exit 2) or exit 3."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # simulate or abstract may write their --out here
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, *tokens])
            finally:
                os.chdir(cwd)
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()


class TestMaxVars:
    # below 1 the guardrail would refuse every problem, whatever its source
    @pytest.mark.parametrize("command,source,value", [
        ("explain", "flag", "-1"), ("explain", "env", "0"), ("explain", "config", -1),
        ("bench", "flag", "0"), ("bench", "env", "-1"), ("bench", "config", 0),
        ("boolmin-debug", "env", "-1"), ("boolmin-debug", "config", 0),
    ])
    def test_below_one_exits_2(self, pipeline, tmp_path, capsys, monkeypatch,
                               command, source, value):
        _, _, mmdp = pipeline
        table = tmp_path / "tt.txt"
        table.write_text("2\n11 1\n00 0\n")
        argv = {
            "explain": ["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                        "--type", "when", "--agents", "UAV",
                        "--actions", "rescue_victim"],
            "bench": ["bench", "--domain", "sr3", "--episodes", "2"],
            "boolmin-debug": ["boolmin-debug", "--table", str(table)],
        }[command]
        if source == "flag":
            argv += ["--max-vars", value]
        elif source == "env":
            monkeypatch.setenv("MAPEX_MAX_VARS", value)
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"max-vars": value}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --max-vars must be a positive integer, got {value}"]


class TestConfigAndEnv:
    def test_config_file_supplies_flags(self, pipeline, tmp_path, capsys):
        _, _, mmdp = pipeline
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mmdp": str(mmdp), "domain": "sr3", "type": "what",
            "agents": "UAV", "predicates": "victim_detect",
        }))
        assert main(["explain", "--config", str(config)]) == 0
        assert "most likely" in capsys.readouterr().out

    def test_cli_overrides_config(self, pipeline, tmp_path, capsys):
        _, _, mmdp = pipeline
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "withrf"}))
        assert main(["explain", "--config", str(config), "--mmdp", str(mmdp),
                     "--domain", "sr3", "--type", "what", "--agents", "UAV",
                     "--predicates", "victim_detect", "--method", "norf"]) == 0
        assert "can rescue the victim" in capsys.readouterr().out

    def test_env_override(self, pipeline, capsys, monkeypatch):
        _, _, mmdp = pipeline
        monkeypatch.setenv("MAPEX_METHOD", "norf")
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "what", "--agents", "UAV",
                     "--predicates", "victim_detect"]) == 0
        assert "can rescue the victim" in capsys.readouterr().out


    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{bad")
        assert main(["explain", "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config file {config} ")

    def test_config_of_a_list_exits_2(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        assert main(["explain", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (f"error: config file {config} must hold "
                                           f"a JSON object\n")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"episode": 3, "sed": 7, "max-steps": 5}))
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "--domain", "sr3", "--out", str(out),
                     "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config file {config} names no flag: episode, sed"]
        assert not out.exists()

    def test_config_may_hold_other_commands_flags(self, tmp_path, capsys):
        # one file can serve several commands
        config = tmp_path / "shared.json"
        config.write_text(json.dumps({"episodes": 1, "max-vars": 3, "mmdp": "m.mmdp",
                                      "emit_dnf": True}))
        assert main(["simulate", "--domain", "sr3", "--out", str(tmp_path / "t.jsonl"),
                     "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("wrote ")

    def test_non_integer_env_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MAPEX_EPISODES", "abc")
        assert main(["simulate", "--domain", "sr3",
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --episodes must be an integer, got 'abc'"]


class TestOneCheckPerValue:
    """A flag's value is checked by one converter whatever its source: a bad
    value gives the same one ``error:`` line and exit 2 from a flag, a
    MAPEX_* variable or --config."""

    @staticmethod
    def argv(flag, pipeline, tmp_path):
        _, trace, mmdp = pipeline
        if flag in ("episodes", "seed"):
            return ["simulate", "--domain", "sr3", "--out", str(tmp_path / "t.jsonl")]
        if flag == "normalize":
            return ["abstract", "--trace", str(trace), "--domain", "sr3",
                    "--out", str(tmp_path / "m.mmdp")]
        if flag == "format":
            return ["summarize", "--mmdp", str(mmdp), "--domain", "sr3"]
        return ["explain", "--mmdp", str(mmdp), "--domain", "sr3", "--agents", "UAV",
                "--actions", "rescue_victim", *([] if flag == "type" else ["--type", "when"])]

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("flag,value,what", [
        ("episodes", "abc", "an integer"),
        ("seed", "1.5", "an integer"),
        ("type", "bogus", "one of when, whynot, what"),
        ("method", "x", "one of norf, withrf"),
        ("format", "x", "one of chart, csv"),
        ("normalize", "x", "one of state, state-action"),
        ("timeout", "abc", "a positive number of seconds"),
    ])
    def test_bad_value_is_one_line(self, pipeline, tmp_path, capsys, monkeypatch,
                                   source, flag, value, what):
        argv = self.argv(flag, pipeline, tmp_path)
        if source == "flag":
            argv += [f"--{flag}", value]
        elif source == "env":
            monkeypatch.setenv(f"MAPEX_{flag.upper()}", value)
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({flag: value}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --{flag} must be {what}, got {value!r}"]

    CHOICES = {"type": "{when,whynot,what}", "method": "{norf,withrf}",
               "format": "{chart,csv}", "normalize": "{state,state-action}"}

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_names_every_flag(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for name in cli._COMMANDS[command][2]:
            flag = "--" + name.replace("_", "-")
            assert flag in out
            if name in self.CHOICES:
                assert f"{flag} {self.CHOICES[name]}" in out

    @pytest.mark.parametrize("config,env,line", [
        ({"episodes": 2.7}, {}, "--episodes must be an integer, got 2.7"),
        ({"episodes": True}, {}, "--episodes must be an integer, got True"),
        ({"timeout": False}, {}, "--timeout must be a positive number of seconds, "
                                 "got False"),
        ({"agents": ["UAV"]}, {}, "--agents must be a string, got ['UAV']"),
        ({"emit-dnf": 1}, {}, "--emit-dnf must be one of 1/true/yes/on/0/false/no/off, "
                              "got 1"),
        ({}, {"MAPEX_EMIT_DNF": "maybe"},
         "--emit-dnf must be one of 1/true/yes/on/0/false/no/off, got 'maybe'"),
    ])
    def test_wrong_types_are_refused(self, pipeline, tmp_path, capsys, monkeypatch,
                                     config, env, line):
        _, _, mmdp = pipeline
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mmdp": str(mmdp), "domain": "sr3", "type": "when",
                                    "agents": "UAV", "actions": "rescue_victim",
                                    "out": str(tmp_path / "t.jsonl"), **config}))
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        command = "simulate" if "episodes" in config else "explain"
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]

    @pytest.mark.parametrize("value,dnf", [("YES", True), ("on", True), ("0", False),
                                           (True, True), (False, False)])
    def test_switch_values(self, pipeline, tmp_path, capsys, value, dnf):
        _, _, mmdp = pipeline
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"emit_dnf": value}))
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when", "--agents", "UAV", "--actions", "rescue_victim",
                     "--config", str(config)]) == 0
        assert ("DNF: " in capsys.readouterr().out) is dnf

    @pytest.mark.parametrize("command", ["simulate", "abstract"])
    @pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no-out", "dash"])
    def test_file_writers_need_a_path(self, pipeline, tmp_path, capsys, monkeypatch,
                                      command, out):
        _, trace, _ = pipeline
        monkeypatch.chdir(tmp_path)
        argv = {"simulate": ["simulate", "--domain", "sr3", "--episodes", "2"],
                "abstract": ["abstract", "--trace", str(trace), "--domain", "sr3"]}
        assert main(argv[command] + out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {command} needs --out <path>"]
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_table_and_csv_agree(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--domain", "sr3", "--episodes", "60",
                     "--csv", str(csv_path)]) == 0
        table = capsys.readouterr().out
        rows = csv_path.read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["domain", "agents", "states", "transitions",
                          "path_len", "chart", "query", "method", "clauses",
                          "time_ms", "status"]
        assert len(rows) == 1 + 6  # 3 query kinds x 2 methods
        for row in rows[1:]:
            values = dict(zip(header, row.split(",")))
            assert values["status"] == "ok"
            # the human table carries the same numbers
            assert f"{values['query']}" in table
            assert values["time_ms"] in table
        assert "|S|=" in table and "|rho|=" in table

    def test_non_positive_timeout_exits_2(self, capsys):
        assert main(["bench", "--domain", "sr3", "--timeout", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --timeout must be a positive number of seconds, got 0.0"]

    def test_domain_without_task_actions_is_an_error(self):
        # a real check, not an assert that python -O would drop
        from mapex import ActionPhrases, AgentSpec, DomainDefinition
        from mapex.cli import _bench_queries
        from mapex.domain import RelevanceEntry, RelevanceKnowledge
        from mapex.errors import MapexError
        from synth import plain_schema
        domain = DomainDefinition(
            id="idle", agents=(AgentSpec("A", ("wait",)),), schema=plain_schema(1),
            action_phrases={"wait": ActionPhrases("wait", "waits")},
            relevance=RelevanceKnowledge({("A", "wait"): RelevanceEntry(
                frozenset({"A"}), frozenset(), (frozenset({("A", "wait")}),))}),
        )
        with pytest.raises(MapexError, match="no task actions"):
            _bench_queries(domain, None)

    @staticmethod
    def cells(out):
        """The table's rows without the time_ms column."""
        return [row[:3] + row[4:] for row in map(str.split, out.splitlines()[2:])]

    def test_bench_reports_timeout_cells(self, capsys, fake_clock):
        assert main(["bench", "--domain", "sr3", "--episodes", "20", "--timeout", "1"]) == 0
        assert self.cells(capsys.readouterr().out) == [
            ["when", "norf", "-", "timeout"],
            ["when", "withrf", "-", "timeout"],
            ["whynot", "norf", "1", "ok"],
            ["whynot", "withrf", "-", "timeout"],
            ["what", "norf", "3", "ok"],
            ["what", "withrf", "1", "ok"],
        ]

    def test_bench_reports_contradiction_cells(self, capsys, monkeypatch):
        # a why-not at a state where the team takes the asked action
        from mapex.query import Query

        def queries(domain, m):
            pairs = (("UGV_1", "remove_obstacle"), ("UGV_2", "remove_obstacle"))
            state = next(s for s in m.states
                         if any(a[1:] == ("remove_obstacle",) * 2
                                for a in m.enabled_actions(s)))
            return [Query("whynot", ("UGV_1", "UGV_2"), method, pairs, state=state)
                    for method in ("norf", "withrf")]

        monkeypatch.setattr(cli, "_bench_queries", queries)
        assert main(["bench", "--domain", "sr3", "--episodes", "20"]) == 0
        assert self.cells(capsys.readouterr().out) == [
            ["whynot", "norf", "-", "contradiction"],
            ["whynot", "withrf", "-", "contradiction"],
        ]

    def test_bench_reports_guardrail_cells(self, capsys):
        assert main(["bench", "--domain", "lbf9", "--episodes", "5"]) == 0
        out = capsys.readouterr().out
        assert "too-large" in out
        withrf_lines = [l for l in out.splitlines()
                        if l.startswith(("when", "whynot")) and "withrf" in l]
        assert all("ok" in l for l in withrf_lines)


class TestExternalDomainFiles:
    """Domains supplied as definition files, with explicit-feature traces."""

    @pytest.fixture
    def external(self, tmp_path):
        from mapex import (
            ActionPhrases, AgentSpec, DomainDefinition, RelevanceEntry,
            RelevanceKnowledge, save_domain_file,
        )
        from synth import plain_schema
        domain = DomainDefinition(
            id="ext1",
            agents=(AgentSpec("A", ("go", "wait")),),
            schema=plain_schema(2, task_ids=("f1",)),
            action_phrases={"go": ActionPhrases("go", "goes"),
                            "wait": ActionPhrases("wait", "waits")},
            relevance=RelevanceKnowledge({
                ("A", "go"): RelevanceEntry(
                    frozenset({"A"}), frozenset({"f0", "f1"}),
                    (frozenset({("A", "go")}),)),
                ("A", "wait"): RelevanceEntry(
                    frozenset({"A"}), frozenset(),
                    (frozenset({("A", "wait")}),)),
            }),
        )
        domain_path = tmp_path / "ext1.json"
        save_domain_file(domain, domain_path)

        def state(f0, f1):
            return [{"features": {"f0": f0, "f1": f1}}]

        records = [
            {"episode": 0, "step": 0, "state": state(False, False),
             "action": ["wait"], "next_state": state(True, False)},
            {"episode": 0, "step": 1, "state": state(True, False),
             "action": ["go"], "next_state": state(True, True)},
        ]
        trace_path = tmp_path / "ext1.jsonl"
        with open(trace_path, "w") as fh:
            fh.write(json.dumps({"format": "mapex-trace", "version": 1,
                                 "domain": "ext1", "agents": 1}) + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        return domain_path, trace_path, tmp_path

    def test_pipeline_with_domain_file(self, external, capsys):
        domain_path, trace_path, tmp = external
        mmdp = tmp / "ext1.mmdp"
        assert main(["abstract", "--trace", str(trace_path),
                     "--domain", str(domain_path), "--out", str(mmdp)]) == 0
        assert main(["summarize", "--mmdp", str(mmdp),
                     "--domain", str(domain_path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "agent,T1" in out and "A,f1" in out
        assert main(["explain", "--mmdp", str(mmdp), "--domain", str(domain_path),
                     "--type", "when", "--agents", "A", "--actions", "go"]) == 0
        assert "A goes when" in capsys.readouterr().out

    def test_simulate_rejects_domain_files(self, external, tmp_path):
        domain_path, _, _ = external
        code = main(["simulate", "--domain", str(domain_path), "--episodes", "1",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 2


class TestBoolminDebug:
    def test_hidden_from_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "==SUPPRESS==" not in out and "boolmin-debug" not in out
        assert "{simulate,abstract,summarize,explain,bench}" in out

    def test_truth_table_file(self, tmp_path, capsys):
        table = tmp_path / "tt.txt"
        table.write_text("2\n11 1\n00 0\n01 0\n10 0\n")
        assert main(["boolmin-debug", "--table", str(table)]) == 0
        assert capsys.readouterr().out.strip() == "x0 & x1"

    def test_tautology_output(self, tmp_path, capsys):
        table = tmp_path / "tt.txt"
        table.write_text("2\n11 1\n")
        assert main(["boolmin-debug", "--table", str(table)]) == 0
        assert capsys.readouterr().out.strip() == "TRUE"

    def test_no_ones_prints_false(self, tmp_path, capsys):
        table = tmp_path / "tt.txt"
        table.write_text("2\n00 0\n01 0\n")
        assert main(["boolmin-debug", "--table", str(table)]) == 0
        assert capsys.readouterr().out == "FALSE\n"

    @pytest.mark.parametrize("text", [
        "abc\n", "", "2\n11\n", "2\n111 1\n", "2\n1x 1\n", "2\n11 2\n",
    ], ids=["count-not-a-number", "empty", "row-without-value",
            "minterm-out-of-range", "not-bits", "value-not-0-or-1"])
    def test_malformed_table_exits_2(self, tmp_path, capsys, text):
        table = tmp_path / "tt.txt"
        table.write_text(text)
        assert main(["boolmin-debug", "--table", str(table)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: truth table {table}")

    @pytest.mark.parametrize("bits", ["1", "011"], ids=["short", "long"])
    def test_row_of_other_width_is_named(self, tmp_path, capsys, bits):
        # "1" is not read as "01": a row must give every variable's bit
        table = tmp_path / "tt.txt"
        table.write_text(f"2\n01 1\n{bits} 0\n")
        assert main(["boolmin-debug", "--table", str(table)]) == 2
        assert capsys.readouterr().err == (f"error: truth table {table}: row '{bits} 0' "
                                           f"is not '<bits> 0|1' over 2 variables\n")

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_guardrail_exits_3_like_explain(self, tmp_path, capsys, monkeypatch, source):
        table = tmp_path / "tt.txt"
        table.write_text("2\n11 1\n00 0\n")
        argv = ["boolmin-debug", "--table", str(table)]
        if source == "flag":
            argv += ["--max-vars", "1"]
        elif source == "env":
            monkeypatch.setenv("MAPEX_MAX_VARS", "1")
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"max-vars": 1}))
            argv += ["--config", str(config)]
        assert main(argv) == 3
        # one stderr line, as every exit 3 gives, holding both facts
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("could not explain within resource limits: "
                              "minimization over 2 variables exceeds the guardrail of 1")
        assert err.endswith("; partial progress: 0 prime implicants "
                            "(2 variables > guardrail 1)")
