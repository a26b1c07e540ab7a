"""The benchmark's own trace recount (``perfbench/checks.py``, loaded from its
file and never changed here) agrees with the model ``mapex abstract`` builds
from the trace ``mapex simulate`` wrote.  The benchmark parses trace lines
itself, so a trace format it cannot read fails here, not first in a
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from mapex import cli, get_domain, load_abstraction

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("domain_id", ["sr5", "lbf9", "rware19"])
def test_recount_trace_agrees_with_abstract(checks, domain_id, tmp_path, capsys):
    trace, model = tmp_path / "t.jsonl", tmp_path / "m.mmdp"
    assert cli.main(["simulate", "--domain", domain_id, "--episodes", "30",
                     "--seed", "42", "--out", str(trace)]) == 0
    assert cli.main(["abstract", "--trace", str(trace), "--domain", domain_id,
                     "--out", str(model)]) == 0
    domain = get_domain(domain_id)
    m = load_abstraction(model, domain.schema)
    counts, initials, samples = checks.recount_trace(trace, domain)
    assert m.counts == dict(counts)
    assert m.initial_counts == dict(initials)
    assert checks.check_model(m, trace, domain) == samples == sum(counts.values())
