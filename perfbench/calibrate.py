"""Regenerate ``perfbench/data/strata.json``, the stratification keys the
benchmark samples its items by.

Item lists are drawn per seed by balanced systematic sampling over these
keys (see ``items.py``), so each seed gets the same mix of cheap and
costly items and the same quality mix, and seed-to-seed spread stays
small.  The keys are the program's own counts at the commit that ran
this script: search steps per 3-variable class, and per 4-variable pool
permutation whether it was solved, its gate count and the PPRM terms its
search walked (portfolio2's term count moves slightly from run to run
with the timing of the shared bound).  They steer only which items a
seed draws; every run synthesizes and checks every item again.

Run from the repository root (takes ~15 minutes on two cores)::

    PYTHONPATH=src python3 perfbench/calibrate.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import clean_environ, workload_options  # noqa: E402

#: Master seed and size of the 4-variable permutation pool.
POOL_SEED = 20040216
POOL_SIZE = 256


def _corpus_steps(images):
    from repro.synth.rmrls import synthesize

    return synthesize(images, workload_options("corpus3")).stats.steps


def _pool_outcome(args):
    name, images = args
    from repro.synth.rmrls import synthesize

    result = synthesize(images, workload_options(name))
    return {"solved": result.solved, "gates": result.gate_count or 0,
            "terms": result.stats.hot_ops["pprm_terms_in"]}


def main() -> int:
    environ = clean_environ()
    os.environ.clear()
    os.environ.update(environ)
    from repro.sweeps.corpus import load_coverage

    _, records = load_coverage(os.path.join("results", "coverage3.jsonl"))
    records.sort(key=lambda record: record["class_rank"])
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        images = list(range(16))
        rng.shuffle(images)
        pool.append(images)

    context = multiprocessing.get_context("spawn")
    with context.Pool(2) as workers:
        steps = workers.map(
            _corpus_steps, [record["images"] for record in records],
            chunksize=16,
        )
        random4 = workers.map(
            _pool_outcome, [("random4", images) for images in pool]
        )
    # The portfolio forks its own two slice workers: run it serially.
    portfolio2 = [_pool_outcome(("portfolio2", images)) for images in pool]

    data = {
        "schema": "perfbench-strata",
        "version": 1,
        "corpus3_steps": steps,
        "pool_seed": POOL_SEED,
        "pool": pool,
        "random4": random4,
        "portfolio2": portfolio2,
    }
    path = os.path.join(HERE, "data", "strata.json")
    with open(path, "w") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
