"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-100k --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``pipeline-100k``, ``welfare-20k`` and
``oracle-mixed-50k`` (see ``perfbench/README.md`` for why each exists and
which layers it exercises).  The seed makes the inputs; the program only
ever sees the generated inputs.  With ``--trace 0`` the run prints its
end-to-end metrics; with ``--trace 1`` it wraps every layer seam in spans
and prints the per-layer metrics instead.  Either way every output is
checked, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--size toy`` runs the same code on toy inputs (the benchmark's own tests).
"""

from __future__ import annotations

import argparse
import time

from common import Checks, emit, host_line, pin_threads, print_named, use_program_source

WORKLOADS = ("pipeline-100k", "welfare-20k", "oracle-mixed-50k")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    pin_threads()
    use_program_source()

    import oracle_mixed
    import pipeline
    import welfare_sweep

    module = {
        "pipeline-100k": pipeline,
        "welfare-20k": welfare_sweep,
        "oracle-mixed-50k": oracle_mixed,
    }[args.workload]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}",
        flush=True,
    )
    print(host_line(), flush=True)
    checks = Checks()
    t0 = time.perf_counter()
    metrics = module.run(args.seed, args.seconds, bool(args.trace), args.size, checks)
    if args.trace:
        for name, entry in metrics.values.items():
            print_named(name, entry["value"], entry["unit"])
    print(f"wall {time.perf_counter() - t0:.1f} s", flush=True)
    emit(checks, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
