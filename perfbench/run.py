"""The repository's benchmark: simulator speed and simulated LEED.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mostly --seed 1 \
        --seconds 10 --trace 0

Each run builds the default-configuration cluster for one workload
(``LeedOptions()``, serial engine, chain replication, 256 B values),
loads it, drives a fixed op budget (``--seconds`` times the workload's
nominal host rate) and reads every key back.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the measured phase twice, plain
and under :mod:`layertrace`, and prints the per-layer metrics.  The
last stdout line is one JSON object; the lines before it are the same
numbers for a reader.  See README.md beside this file.

Exit status: 0 on success; 1 when an acknowledged write was lost or a
repeat of the seed simulated differently (the JSON line still prints,
with ``"correct": false``); 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: Python randomizes str hashing per process, which moves host timings
#: of identical runs by ~10% (dict layouts change); the benchmark pins
#: it.  Simulated results do not depend on it.
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import drive
    import phases

    spec = drive.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(drive.WORKLOADS)))
    print("workload %s: %s" % (spec.name, spec.why))
    print("seed %d, %d ops, cpu_count %s, python %s"
          % (args.seed, drive.budget(spec, args.seconds), os.cpu_count(),
             sys.version.split()[0]))
    report = []
    correct = True
    run = phases.per_layer if args.trace else phases.end_to_end
    try:
        phase, metrics = run(spec, args.seed, args.seconds, report)
    except phases.BenchmarkError as exc:
        print("FAILED: %s" % exc, file=sys.stderr)
        correct, phase, metrics = False, None, {}
    if report:
        print("\n".join(report))
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6f %s" % (name, value, unit))
    log = phase.log if phase is not None else None
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted if log else 1,
        "failed": (log.failed + log.refused) if log else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
