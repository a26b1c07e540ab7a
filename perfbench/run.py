"""Benchmark of mapex: trace -> model -> explanation, end to end and per layer.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; mapex is imported from ``src/``.
Prints progress on stderr and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
reports per-layer metrics from spans instead of the end-to-end metrics.
Result and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("pipeline", "explain-withrf", "explain-norf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mapex", "__init__.py")):
        print(f"error: no mapex sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import checks
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        result = workloads.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), workdir,
            spans_path=os.path.join(OUT, f"spans-{tag}.jsonl") if args.trace else None,
        )
    except checks.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
