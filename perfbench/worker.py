"""The program process of the batch workloads (corpus3, random4,
portfolio2).

Started fresh by ``run.py`` with a scrubbed environment.  It imports the
program, resolves the workload's options, prints ``ready`` and waits for
one job line on stdin: the fixed item list, and whether to trace.  It
then synthesizes every item serially through
``repro.synth.rmrls.synthesize``, timing each call, and prints one JSON
result line.  End of input instead of a job makes it exit without work
(the extra set-up samples).

Run it only through ``run.py``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _circuit_payload(circuit):
    return [[gate.controls, gate.target] for gate in circuit]


def _portfolio_payload(summary):
    if summary is None:
        return None
    return {
        "cancelled": summary.cancelled,
        "slice_seconds": [entry.elapsed_seconds for entry in summary.slices],
    }


def run_items(rmrls, items, options, tracer=None) -> list[dict]:
    """Synthesize every item; one result dict per item."""
    results = []
    for index, images in enumerate(items):
        span = None
        if tracer is not None:
            tracer.item = index
            span = tracer.open_span("item")
        started = time.monotonic_ns()
        error = None
        try:
            result = rmrls.synthesize(images, options)
        except Exception as exc:  # counted against ok_frac by run.py
            error = f"{type(exc).__name__}: {exc}"
        ended = time.monotonic_ns()
        if span is not None:
            tracer.close_span(span)
        if error is not None:
            results.append({"start": started, "end": ended, "error": error})
            continue
        stats = result.stats
        results.append({
            "start": started,
            "end": ended,
            "error": None,
            "finish_reason": stats.finish_reason,
            "circuit": (
                None if result.circuit is None
                else _circuit_payload(result.circuit)
            ),
            "steps": stats.steps,
            "restarts": stats.restarts,
            "nodes_created": stats.nodes_created,
            "nodes_expanded": stats.nodes_expanded,
            "hot_ops": dict(stats.hot_ops),
            "portfolio": _portfolio_payload(result.portfolio),
        })
    return results


def main() -> int:
    from repro.harness.tasks import options_payload
    from repro.pprm.engine import resolve_search_engine
    from repro.pprm.system import PPRMSystem
    import repro.synth.rmrls as rmrls

    from workloads import workload_options

    workload = sys.argv[1]
    options = workload_options(workload)
    engine = resolve_search_engine(
        options.engine, PPRMSystem.from_permutation(list(range(8)))
    ).name
    print("ready", flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    started = time.monotonic_ns()
    results = run_items(rmrls, job["items"], options, tracer)
    wall_ns = time.monotonic_ns() - started
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(job["trace_path"])
    reply = {
        "engine": engine,
        "options": options_payload(options),
        "results": results,
        "wall_ns": wall_ns,
    }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
