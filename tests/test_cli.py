import json

import pytest

from mapex import build_abstraction, get_domain, render_chart, simulate, summarize
from mapex.cli import main
from synth import MALFORMED_MMDP, rewrite_mmdp


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

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--nope"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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

    def test_missing_required_flag_exits_2(self, pipeline):
        _, _, mmdp = pipeline
        assert main(["explain", "--mmdp", str(mmdp), "--domain", "sr3",
                     "--type", "when"]) == 2


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

    @pytest.mark.parametrize("case", sorted(MALFORMED_MMDP))
    def test_malformed_mmdp_exits_2(self, pipeline, tmp_path, capsys, case):
        _, _, mmdp = pipeline
        edit, message = MALFORMED_MMDP[case]
        bad = rewrite_mmdp(mmdp, tmp_path / "bad.mmdp", edit)
        assert main(["summarize", "--mmdp", str(bad), "--domain", "sr3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")

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

    def test_non_integer_env_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MAPEX_EPISODES", "abc")
        assert main(["simulate", "--domain", "sr3",
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --episodes must be an integer, got 'abc'"]


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
            _bench_queries(domain)

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
