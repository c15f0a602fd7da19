"""Find Monte-Carlo seeds on which every ``mc_verify`` pair gives its expected verdict.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 benchmarks/vet_mc_seeds.py [COUNT]

checks seeds 0..COUNT-1 (default 64) in-process; reports are a pure function
of inputs and seed, so this matches what the CLI prints.  For each seed it
prints the largest |residual| / threshold over the tests of each pair (below
1 means the pair passes), then the seeds that give a pair the wrong verdict.
``workloads.MC_SEED_COUNT`` must stay below the first of them.
"""

import sys

from steinscope.distributions import get_target
from steinscope.operators import catalog_get
from steinscope.verification import mc_stein_residual

from workloads import MC_PAIRS, MC_SAMPLES


def main(count: int) -> int:
    pairs = [(catalog_get(op), get_target(target), passes) for op, target, passes in MC_PAIRS]
    rejected = []
    for seed in range(count):
        ratios, ok = [], True
        for op, target, passes in pairs:
            reports = mc_stein_residual(op, target, n=MC_SAMPLES, seed=seed)
            ratios.append(max(abs(r.residual) / r.threshold for r in reports))
            ok &= all(r.passed for r in reports) == passes
        print(seed, " ".join(f"{r:8.3f}" for r in ratios), "ok" if ok else "REJECT", flush=True)
        if not ok:
            rejected.append(seed)
    print("rejected seeds:", rejected or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 64))
