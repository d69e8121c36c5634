"""Self-test of the benchmark: exact counts repeat exactly.

    python3 perfbench/selftest.py [--seed N]

Runs every workload twice at one seed, traced, for the fewest passes, each
run in a fresh process.  Asserts that the two runs generated byte-identical
inputs, gave identical answers and identical exact counts (call counts,
``strategy.explored_states``, ``strategy.diagram_nodes``,
``provenance.terms``, ``readonce.decided_ratio`` and the rest).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import BUILDERS

RUN = Path(__file__).resolve().parent / "run.py"
REPEATED = ("inputs_sha256", "answers_sha256", "exact")


def record(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run exited with {proc.returncode}\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            return json.loads(line[len("record: "):])
    raise SystemExit(f"{workload}: no record line in the output")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failed = False
    for workload in BUILDERS:
        first, second = record(workload, args.seed), record(workload, args.seed)
        differing = [key for key in REPEATED if first[key] != second[key]]
        for key in differing:
            print(f"FAIL {workload}: {key} differs:\n  {first[key]}\n  {second[key]}")
        if differing:
            failed = True
            continue
        exact = first["exact"]
        print(f"{workload}: inputs, answers and {len(exact)} exact counts repeat "
              f"(explored_states={exact['strategy.explored_states']}, "
              f"provenance.terms={exact['provenance.terms']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
