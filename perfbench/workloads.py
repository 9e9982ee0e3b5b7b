"""Workload definitions shared by ``run.py``, the program worker and the
calibration script.

Only the generated inputs and these option sets reach the program; every
other option stays at the program's default (in particular ``engine``).
"""

from __future__ import annotations

import os

#: Step cap per search for the two 4-variable workloads.  It replaces
#: Table II's ``time_limit`` (a wall budget would make the work depend on
#: machine speed) and keeps one item near half a second on one core.
RANDOM4_STEP_CAP = 2_000

#: Table II restarts every 5,000 of its 40,000 steps; the benchmark keeps
#: that 1:8 ratio under its smaller cap, so the restart heuristic fires.
RANDOM4_RESTART_STEPS = RANDOM4_STEP_CAP // 8

#: Environment variables that select engines, fault injection or workload
#: scaling inside the program.  They are removed before the program
#: starts, so a CI matrix or a developer's shell cannot leak into a
#: measurement.
SCRUBBED_PREFIXES = ("RMRLS_",)
SCRUBBED_NAMES = ("REPRO_BENCH_SCALE",)


def clean_environ(environ=None) -> dict:
    """A copy of ``environ`` without the program's tuning variables."""
    source = os.environ if environ is None else environ
    return {
        key: value
        for key, value in source.items()
        if not key.startswith(SCRUBBED_PREFIXES) and key not in SCRUBBED_NAMES
    }


def workload_options(name: str):
    """The resolved ``SynthesisOptions`` a batch workload runs with."""
    from repro.experiments.common import TABLE1_OPTIONS, TABLE2_OPTIONS

    if name == "corpus3":
        return TABLE1_OPTIONS
    options = TABLE2_OPTIONS.with_(
        time_limit=None,
        max_steps=RANDOM4_STEP_CAP,
        restart_steps=RANDOM4_RESTART_STEPS,
    )
    if name == "portfolio2":
        options = options.with_(portfolio_jobs=2)
    return options
