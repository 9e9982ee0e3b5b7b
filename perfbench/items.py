"""Seeded, fixed item lists for every workload.

A run does fixed work: its items follow from ``--seed`` and the run
length alone, never from the clock.  Items are drawn by balanced
systematic sampling (:func:`balanced_sample`): the population is sorted
by a cost key, cut into as many equal blocks as items are wanted, and one
item comes from each block, with the category counts that drive the
quality metrics held to their expected values.  The keys are in
``data/strata.json`` (see ``calibrate.py``).  Every seed thus gets the
same spread of cheap and costly items and the same quality mix, which
keeps seed-to-seed differences in timings and quality metrics small.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

#: Items per second of ``--seconds``, measured on a 2-core x86-64 host.
#: They size the fixed item lists; the lists never depend on the clock.
CORPUS3_ITEMS_PER_S = 6.3
RANDOM4_ITEMS_PER_S = 2.6
PORTFOLIO2_ITEMS_PER_S = 2.0
SERVE_REQUESTS_PER_S = 50.0

#: Share of serve_mix requests for classes the store was not seeded with.
SERVE_MISS_SHARE = 0.10

#: Share of 3-variable items drawn from fixed positions at the costly end.
#: The latency tail (the 11th-slowest item) falls among them, so it
#: follows the program, not which hard classes a seed happened to draw.
TAIL_FIXED_SHARE = 0.10


def load_strata() -> dict:
    with open(os.path.join(HERE, "data", "strata.json")) as handle:
        return json.load(handle)


def balanced_sample(ordered, count: int, category, rng: random.Random,
                    fixed_top: int = 0):
    """Systematic sample of ``ordered`` that also fixes category counts.

    One item comes from each of ``count`` equal blocks of ``ordered``, so
    the sort key (an item's cost) stays stratified.  Which category a
    block's item comes from is chosen so that every category's running
    count tracks its expected share to within one item; the seed moves
    only the starting offsets and the item drawn inside the chosen
    category.  The last ``fixed_top`` blocks (the costliest items, which
    set the latency tail) give the middle item of the chosen category
    instead of a random one, so the tail does not move with the seed.
    """
    if not 0 < count <= len(ordered):
        raise ValueError(f"cannot draw {count} of {len(ordered)} items")
    labels = sorted({category(item) for item in ordered})
    offset = {label: rng.random() for label in labels}
    expected = dict.fromkeys(labels, 0.0)
    taken = dict.fromkeys(labels, 0)
    picks = []
    for block in range(count):
        items = ordered[block * len(ordered) // count:
                        (block + 1) * len(ordered) // count]
        members: dict = {}
        for item in items:
            members.setdefault(category(item), []).append(item)
        for label, group in members.items():
            expected[label] += len(group) / len(items)
        label = max(
            members,
            key=lambda c: (expected[c] + offset[c] - taken[c], c),
        )
        taken[label] += 1
        group = members[label]
        if block >= count - fixed_top:
            picks.append(group[len(group) // 2])
        else:
            picks.append(rng.choice(group))
    return picks


def item_count(per_second: float, seconds: int) -> int:
    return max(4, round(per_second * seconds))


def corpus3_items(records, optimum, strata, seed: int, seconds: int):
    """Classes of the coverage corpus, stratified by search steps, with the
    number of classes the corpus solves above the optimum held fixed."""
    steps = strata["corpus3_steps"]
    ordered = sorted(
        records,
        key=lambda record: (steps[record["class_rank"]], record["class_rank"]),
    )
    rng = random.Random(f"corpus3:{seed}")
    count = item_count(CORPUS3_ITEMS_PER_S, seconds)
    picks = balanced_sample(
        ordered, count,
        lambda record: record["gates"] - optimum[tuple(record["images"])],
        rng, fixed_top=round(count * TAIL_FIXED_SHARE),
    )
    rng.shuffle(picks)
    return picks


def pool_items(workload: str, strata, seed: int, seconds: int):
    """4-variable pool permutations, stratified by the PPRM terms their
    searches walk, with the unsolved count and the count in each quartile
    of solved gate counts held fixed."""
    outcomes = strata[workload]
    solved = sorted(o["gates"] for o in outcomes if o["solved"])
    cuts = [solved[q * len(solved) // 4] for q in (1, 2, 3)]

    def quality(index):
        outcome = outcomes[index]
        if not outcome["solved"]:
            return 0
        return 1 + sum(outcome["gates"] > cut for cut in cuts)

    order = sorted(
        range(len(outcomes)),
        key=lambda index: (outcomes[index]["terms"], index),
    )
    per_second = (
        PORTFOLIO2_ITEMS_PER_S if workload == "portfolio2"
        else RANDOM4_ITEMS_PER_S
    )
    rng = random.Random(f"{workload}:{seed}")
    picks = balanced_sample(
        order, item_count(per_second, seconds), quality, rng
    )
    rng.shuffle(picks)
    return [strata["pool"][index] for index in picks]


def relabel(images, wires) -> list[int]:
    """``images`` with input and output wires renamed by ``wires``."""
    def move(value):
        out = 0
        for source, target in enumerate(wires):
            if value >> source & 1:
                out |= 1 << target
        return out

    result = [0] * len(images)
    for point, image in enumerate(images):
        result[move(point)] = move(image)
    return result


def serve_plan(records, optimum, strata, seed: int, seconds: int):
    """The seeded store half and the fixed request list of serve_mix.

    Returns ``(seeded_records, requests)``; a request is the image list
    of the function asked for.  Misses are distinct unseeded classes
    (each one really synthesizes), stratified by search steps so every
    seed misses on the same spread of difficulty; hits are distinct
    seeded classes, half of them sent with relabeled wires.  Both keep
    the number of classes the corpus solves above the optimum fixed.
    """
    steps = strata["corpus3_steps"]
    rng = random.Random(f"serve_mix:{seed}")
    candidates = [record for record in records if record["gates"] > 0]
    rng.shuffle(candidates)
    half = len(candidates) // 2
    seeded, unseeded = candidates[:half], candidates[half:]

    def gap(record):
        return record["gates"] - optimum[tuple(record["images"])]

    def cost(record):
        return steps[record["class_rank"]], record["class_rank"]

    total = item_count(SERVE_REQUESTS_PER_S, seconds)
    misses = max(1, round(total * SERVE_MISS_SHARE))
    requests = [
        record["images"]
        for record in balanced_sample(
            sorted(unseeded, key=cost), misses, gap, rng,
            fixed_top=round(misses * TAIL_FIXED_SHARE),
        )
    ]
    hits = balanced_sample(sorted(seeded, key=cost), total - misses, gap, rng)
    for number, record in enumerate(hits):
        images = record["images"]
        if number % 2:
            wires = [0, 1, 2]
            while wires == [0, 1, 2]:
                rng.shuffle(wires)
            images = relabel(images, wires)
        requests.append(images)
    rng.shuffle(requests)
    return seeded, requests
