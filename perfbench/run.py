"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a source checkout.

Prints a human summary to stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end set, measured with tracing off; with
``--trace 1`` they are the per-layer set from a traced run (layers a
workload does not call read 0).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("figures", "ingest", "serve")


def catalogue(trace: bool) -> dict[str, str]:
    """Metric name -> unit from ``BENCHMARK.json``: per-layer when tracing.

    Each workload fills the rows of the layers it calls; the rest read 0
    (the layer is bypassed).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row["unit"] for row in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import importlib

    module = importlib.import_module(args.workload)
    result = module.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))

    units = catalogue(bool(args.trace))
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"workload reported metrics outside the catalogue: {unknown}")
    for name, unit in units.items():
        if name not in result.metrics:
            result.put(name, 0.0, unit)
        elif result.metrics[name]["unit"] != unit:
            raise RuntimeError(f"metric {name} reported in {result.metrics[name]['unit']}")
    for problem in result.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name in units:
        metric = result.metrics[name]
        print(f"  {name:<30} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result.document(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
