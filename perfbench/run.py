"""Wall-clock benchmark of the FarGo runtime.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload call-mix --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- ``call-mix``: calls over real TCP between OS processes;
- ``relayout``: calls, moves, store offloads and a layout script on
  the in-process sim transport.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the window untraced and half traced and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("call-mix", "relayout")


def _workload(name: str):
    if name == "call-mix":
        from perfbench.callmix import CallMix

        return CallMix()
    from perfbench.relayout import Relayout

    return Relayout()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no runtime sources under {SRC}", file=sys.stderr)
        return 2
    # The checkout root makes ``perfbench`` importable here and in the
    # child Core processes, which inherit this sys.path.
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.workload import execute

    result = execute(_workload(args.workload), args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in {**result.metrics, **result.report}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for problem in result.problems:
        print(f"WRONG: {problem}")
    for error in result.errors:
        print(f"failed: {error}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
