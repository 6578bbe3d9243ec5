"""vqsct benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics from a separate traced pass.
The line before it (prefixed ``perfbench-detail``) carries the run
context, the workload-specific end-to-end figures and any failures.

The program is loaded from ``src/`` beside this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One BLAS/OpenMP thread, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _parse(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer", "volumetric"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a few steps; checks the harness, not speed")
    return parser.parse_args(argv)


def load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vqsct", "__init__.py")):
        print(f"perfbench: no program source at {src}/vqsct", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    import vqsct

    if os.path.dirname(os.path.dirname(os.path.abspath(vqsct.__file__))) != src:
        print(f"perfbench: vqsct was imported from {vqsct.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    spec = _load_spec()
    args = _parse(argv, spec)
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    if not load_program():
        return 2
    import harness

    record = harness.run(ROOT, args.workload, args.seed, args.seconds,
                         trace=bool(args.trace), smoke=args.smoke)
    if args.trace:
        values, listed = record["layers"], spec["per_layer"]
    else:
        values, listed = record["e2e"], spec["end_to_end"]
    # A metric the run could not produce (a renamed function) is left out
    # and named under "missing" in the detail line.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    detail = {"context": record["context"],
              "detail": {k: {"value": v, "unit": u}
                         for k, (v, u) in record["detail"].items()},
              "setup_walls_s": record["setup_walls"],
              "missing": record.get("missing", []),
              "failures": record["failures"]}
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
