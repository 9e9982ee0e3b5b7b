"""Per-layer metrics of a traced run (``--trace 1``).

Counts come from what the program returns (``SearchStats`` with its
``hot_ops``, the portfolio summary, the daemon's ``stats`` op) in the
untraced pass; times come from the traced pass (``tracer.py``).  Every
run prints every metric of ``PER_LAYER``; a layer a workload does not
exercise reads 0 there.  README.md maps each metric to the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import json
import statistics

from tracer import LAYERS, layer_report

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("pprm.from_permutation.ms", "ms", "lower"),
    ("pprm.substitute.calls", "count", "lower"),
    ("pprm.substitute.ns", "ns", "lower"),
    ("pprm.terms_in", "count", "lower"),
    ("pprm.terms_out", "count", "lower"),
    ("synth.steps", "count", "lower"),
    ("synth.steps_per_s", "1/s", "higher"),
    ("synth.search.self_ms", "ms", "lower"),
    ("synth.enumerate.calls", "count", "lower"),
    ("synth.enumerate.self_ms", "ms", "lower"),
    ("synth.priority.self_ms", "ms", "lower"),
    ("synth.queue.pushes", "count", "lower"),
    ("synth.queue.pops", "count", "lower"),
    ("synth.queue.self_ms", "ms", "lower"),
    ("synth.dedupe.probes", "count", "lower"),
    ("synth.dedupe.hit_ratio", "ratio", "higher"),
    ("synth.restarts", "count", "lower"),
    ("synth.restart_dropped_nodes", "count", "lower"),
    ("synth.children_kept_ratio", "ratio", "higher"),
    ("circuits.implements.us", "us", "lower"),
    ("store.canonicalize.us", "us", "lower"),
    ("store.get.us", "us", "lower"),
    ("store.put.ms", "ms", "lower"),
    ("store.append.ms", "ms", "lower"),
    ("store.open.ms", "ms", "lower"),
    ("store.records_scanned", "count", "lower"),
    ("serve.hits", "count", "higher"),
    ("serve.misses", "count", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.batch_wait.ms", "ms", "lower"),
    ("serve.request.self_us", "us", "lower"),
    ("harness.pool.run.ms", "ms", "lower"),
    ("harness.pool.overhead.ms", "ms", "lower"),
    ("harness.pool.retries", "count", "lower"),
    ("parallel.slices", "count", "lower"),
    ("parallel.slice_ms_max", "ms", "lower"),
    ("parallel.slice_imbalance", "ratio", "lower"),
    ("parallel.overhead.ms", "ms", "lower"),
    ("parallel.cancelled", "count", "lower"),
]
for _layer in LAYERS:
    PER_LAYER += [
        (f"layer.{_layer}.calls", "count", "lower"),
        (f"layer.{_layer}.total_ms", "ms", "lower"),
        (f"layer.{_layer}.self_ms", "ms", "lower"),
    ]
PER_LAYER += [
    ("layer.unattributed_ms", "ms", "lower"),
    ("layer.wall_ms", "ms", "lower"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def read_trace(path):
    spans, aggregates = [], {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "aggregate" in record:
                aggregates[record["aggregate"]] = (
                    record["calls"], record["total"], record["self"],
                    record["outer"],
                )
            else:
                spans.append(record)
    return spans, aggregates


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _mean_ns(spans, name):
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return statistics.fmean(durations) if durations else 0.0


def _span_metrics(values, spans, aggregates):
    """Times of the traced pass that every workload shares."""
    def self_ms(name):
        return aggregates.get(name, (0, 0, 0, 0))[2] / 1e6

    values["pprm.from_permutation.ms"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "PPRMSystem.from_permutation"
    ) / 1e6
    calls, total, _, _ = aggregates.get(
        "PPRMSystem.substitute", (0, 0, 0, 0)
    )
    values["pprm.substitute.ns"] = _ratio(total, calls)
    values["synth.search.self_ms"] = sum(
        s["self"] for s in spans if s["name"] == "synthesize"
    ) / 1e6
    values["synth.enumerate.self_ms"] = self_ms("enumerate_substitutions")
    values["synth.priority.self_ms"] = self_ms("node_priority")
    values["synth.queue.self_ms"] = (
        self_ms("MaxPriorityQueue.push") + self_ms("MaxPriorityQueue.pop")
    )
    values["circuits.implements.us"] = (
        _mean_ns(spans, "Circuit.implements") / 1e3
    )
    values["store.canonicalize.us"] = _mean_ns(spans, "canonicalize") / 1e3
    values["store.get.us"] = _mean_ns(spans, "CircuitStore.get") / 1e3
    values["store.put.ms"] = _mean_ns(spans, "CircuitStore.put") / 1e6
    values["store.append.ms"] = _mean_ns(spans, "SegmentWriter.append") / 1e6
    runs = [s for s in spans if s["name"] == "WorkerPool.run"]
    if runs:
        values["harness.pool.run.ms"] = statistics.fmean(
            s["end"] - s["start"] for s in runs
        ) / 1e6
        values["harness.pool.overhead.ms"] = statistics.fmean(
            s["end"] - s["start"] - s.get("search_ns", 0) for s in runs
        ) / 1e6
        values["harness.pool.retries"] = sum(s.get("retries", 0) for s in runs)


def _layer_rows(values, report, overhead_line):
    lines = [f"{'layer':<16}{'calls':>10}{'total_ms':>12}{'self_ms':>12}"]
    for layer, row in report["layers"].items():
        values[f"layer.{layer}.calls"] = row["calls"]
        values[f"layer.{layer}.total_ms"] = row["total_ns"] / 1e6
        values[f"layer.{layer}.self_ms"] = row["self_ns"] / 1e6
        lines.append(
            f"{layer:<16}{row['calls']:>10}{row['total_ns'] / 1e6:>12.1f}"
            f"{row['self_ns'] / 1e6:>12.1f}"
        )
    values["layer.unattributed_ms"] = report["unattributed_ns"] / 1e6
    values["layer.wall_ms"] = report["wall_ns"] / 1e6
    lines.append(f"{'unattributed':<16}{'':>10}{'':>12}"
                 f"{report['unattributed_ns'] / 1e6:>12.1f}")
    lines.append(f"{'wall':<16}{'':>10}{'':>12}"
                 f"{report['wall_ns'] / 1e6:>12.1f}")
    lines.append(overhead_line)
    return lines


def _finish(values, untraced_ips, traced_ips, report, what):
    values["trace.items_per_s"] = traced_ips
    values["trace.overhead_pct"] = (_ratio(untraced_ips, traced_ips) - 1) * 100
    lines = _layer_rows(
        values, report,
        f"tracing overhead: {traced_ips:.3f} {what}/s traced vs "
        f"{untraced_ips:.3f} untraced ({values['trace.overhead_pct']:+.1f}%)",
    )
    metrics = {name: (float(values[name]), UNITS[name]) for name in UNITS}
    return metrics, lines


def batch_layer_metrics(untraced, traced, untraced_ips, path):
    """Per-layer metrics of corpus3, random4 and portfolio2."""
    spans, aggregates = read_trace(path)
    values = dict.fromkeys(UNITS, 0.0)
    results = [r for r in untraced["results"] if r["error"] is None]
    hot: dict[str, int] = {}
    for result in results:
        for key, value in result["hot_ops"].items():
            hot[key] = hot.get(key, 0) + value
    steps = sum(r["steps"] for r in results)
    search_s = sum(r["end"] - r["start"] for r in results) / 1e9
    values.update({
        "pprm.substitute.calls": hot.get("substitutions_applied", 0),
        "pprm.terms_in": hot.get("pprm_terms_in", 0),
        "pprm.terms_out": hot.get("pprm_terms_out", 0),
        "synth.steps": steps,
        "synth.steps_per_s": _ratio(steps, search_s),
        "synth.enumerate.calls": sum(r["nodes_expanded"] for r in results),
        "synth.queue.pushes": hot.get("queue_pushes", 0),
        "synth.queue.pops": hot.get("queue_pops", 0),
        "synth.dedupe.probes": hot.get("dedupe_probes", 0),
        "synth.dedupe.hit_ratio": _ratio(
            hot.get("dedupe_hits", 0), hot.get("dedupe_probes", 0)
        ),
        "synth.restarts": sum(r["restarts"] for r in results),
        "synth.restart_dropped_nodes": hot.get("restart_dropped_nodes", 0),
        "synth.children_kept_ratio": _ratio(
            sum(r["nodes_created"] for r in results),
            hot.get("substitutions_applied", 0),
        ),
    })
    _span_metrics(values, spans, aggregates)
    portfolios = [
        (r, r["portfolio"]) for r in results
        if r["portfolio"] and r["portfolio"]["slice_seconds"]
    ]
    if portfolios:
        maxima, imbalance, overhead = [], [], []
        for result, summary in portfolios:
            slices = summary["slice_seconds"]
            longest = max(slices)
            maxima.append(longest * 1e3)
            imbalance.append(_ratio(longest, statistics.fmean(slices)))
            overhead.append((result["end"] - result["start"]) / 1e6
                            - longest * 1e3)
        values["parallel.slices"] = sum(
            len(s["slice_seconds"]) for _, s in portfolios
        )
        values["parallel.slice_ms_max"] = statistics.fmean(maxima)
        values["parallel.slice_imbalance"] = statistics.fmean(imbalance)
        values["parallel.overhead.ms"] = statistics.fmean(overhead)
        values["parallel.cancelled"] = sum(
            s["cancelled"] for _, s in portfolios
        )
    report = layer_report(spans, aggregates, traced["wall_ns"])
    traced_ips = len(traced["results"]) / (traced["wall_ns"] / 1e9)
    return _finish(values, untraced_ips, traced_ips, report, "items")


def serve_layer_metrics(untraced, traced, path):
    """Per-layer metrics of serve_mix (daemon-side spans)."""
    spans, aggregates = read_trace(path)
    loop_start, loop_end = traced["loop"]
    opened = [s for s in spans if s["name"] == "CircuitStore.__init__"]
    in_loop = [s for s in spans if loop_start <= s["start"] <= loop_end]
    values = dict.fromkeys(UNITS, 0.0)
    _span_metrics(values, in_loop, {})
    values["store.open.ms"] = sum(s["end"] - s["start"] for s in opened) / 1e6

    def counter(stats, name):
        metric = stats["metrics"].get(name) or {}
        return metric.get("value", 0)

    before, after = untraced["before"], untraced["after"]
    hits = counter(after, "store_cache_hits_total") - counter(
        before, "store_cache_hits_total")
    misses = counter(after, "store_cache_misses_total") - counter(
        before, "store_cache_misses_total")
    values["store.records_scanned"] = (before.get("store") or {}).get(
        "records", 0)
    values["serve.hits"] = hits
    values["serve.misses"] = misses
    values["serve.hit_ratio"] = _ratio(hits, hits + misses)

    waits, request_self = _service_waits(in_loop)
    values["serve.batch_wait.ms"] = (
        statistics.fmean(waits.values()) / 1e6 if waits else 0.0
    )
    values["serve.request.self_us"] = (
        statistics.fmean(request_self) / 1e3 if request_self else 0.0
    )
    report = layer_report(in_loop, {}, loop_end - loop_start)
    untraced_s = (untraced["loop"][1] - untraced["loop"][0]) / 1e9
    untraced_ips = len(untraced["timings"]) / untraced_s
    traced_ips = len(traced["timings"]) / ((loop_end - loop_start) / 1e9)
    return _finish(values, untraced_ips, traced_ips, report, "requests")


def _service_waits(spans):
    """Batch-window wait per missed request, and each request's self time
    net of work other threads did for it and of that wait."""
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] in by_id:
            children.setdefault(span["parent"], []).append(span)
    waits: dict[int, int] = {}
    request_self = []
    for span in spans:
        if span["name"] != "SynthesisService.synthesize":
            continue
        own = [c for c in children.get(span["id"], [])
               if c["thread"] == span["thread"]]
        other = [c for c in children.get(span["id"], [])
                 if c["thread"] != span["thread"]]
        runs = [c for c in other if c["name"] == "WorkerPool.run"]
        if runs:
            run = min(runs, key=lambda c: c["start"])
            ready = max(
                [c["end"] for c in own if c["end"] <= run["start"]]
                + [span["start"]]
            )
            waits[span["id"]] = run["start"] - ready
        request_self.append(
            span["self"]
            - sum(c["end"] - c["start"] for c in other)
            - waits.get(span["id"], 0)
        )
    return waits, request_self
