"""Sabotage self-test: show that every workload's output checks catch a
deliberately broken output.

    python3 perfbench/selftest.py [--seed N]

Runs each workload for one pass as it is, then again with ``--sabotage``
(a reduced description with one usage dropped, or a schedule with one
placement shifted against a dependence).  The test passes when the clean
run is correct and exits 0, and the sabotaged run reports more failed
operations, ``"correct": false`` and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("reduce-study", "reduce-deep", "schedule-corpus")


def run(workload: str, seed: int, sabotage: bool):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "0"]
    if sabotage:
        command.append("--sabotage")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        clean_code, clean = run(workload, args.seed, False)
        broken_code, broken = run(workload, args.seed, True)
        caught = (
            clean_code == 0 and clean["correct"]
            and broken_code == 1 and not broken["correct"]
            and broken["failed"] > clean["failed"]
        )
        ok = ok and caught
        print("%-16s clean: exit %d, failed %d/%d   sabotaged: exit %d, failed %d/%d, correct %s   %s"
              % (workload, clean_code, clean["failed"], clean["attempted"], broken_code,
                 broken["failed"], broken["attempted"], broken["correct"],
                 "caught" if caught else "NOT CAUGHT"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
