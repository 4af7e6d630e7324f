"""Record the output digests that later runs are checked against.

    python3 perfbench/record_digests.py

Runs every instance of every workload once for each recorded seed, checks
its properties, and writes their digests to perfbench/digests.json.  Run
it only at a commit whose outputs are known good: afterwards any change to
an output (a pipeline report, a flow space's triple set or a contraction's
move list) for a recorded seed counts as a failed instance.
"""

from __future__ import annotations

import json
import sys

from worker import DIGESTS
from workloads import WORKLOADS, digest, seed_cases

RECORDED_SEEDS = tuple(range(10))
# Not used while the benchmark or a change is tuned; a claimed gain must
# also hold on it.
HELD_OUT_SEED = 1009


def record(workload, seed):
    """The digests of the seed's instance set, in case order."""
    row = []
    for case in seed_cases(workload, seed):
        out = workload.verdict(case)
        failed = workload.properties(case, out)
        if failed:
            sys.exit("seed %d %s: %s fails" % (seed, case.id, failed))
        row.append(digest(workload.digest_text(out)))
    return " ".join(row)


def main():
    table = {name: {str(seed): record(workload, seed)
                    for seed in RECORDED_SEEDS + (HELD_OUT_SEED,)}
             for name, workload in WORKLOADS.items()}
    DIGESTS.write_text(json.dumps(
        {"held_out_seed": HELD_OUT_SEED, "digests": table},
        indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
