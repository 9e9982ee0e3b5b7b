"""``rmrls top`` — a live fleet dashboard tailing trace shards.

During a traced sweep or portfolio run every process appends spans and
events to its own shard; this module repeatedly re-reads those shards
(tolerantly — the writers are mid-flight) and renders a fleet view:

* per-worker state — the innermost span still open, the latest
  progress event (step, queue size, best depth), outcome of the last
  finished span;
* scheduler queue depths — the coordinator's ``sched`` events
  (pending/running);
* incumbent bound history — every ``bound_published`` /
  ``bound_adopted`` event, newest last;
* retry counts — attempt spans carrying a ``retry_of`` link;
* store-daemon cache counters — the serve daemon's ``cache`` events
  (hits/misses/coalesced/bypass/quarantined), newest wins;
* flight-recorder state — armed ``*.ring`` black boxes and recovered
  ``*.dump.json`` crash dumps in the flight directory (see
  :mod:`repro.obs.flight`).

The only coordination channel is the filesystem: ``rmrls top`` can run
on a different terminal (or machine, over a shared filesystem) from
the sweep it watches.  No curses — a plain ANSI home-and-clear redraw
keeps it dependency-free and testable as pure text.
"""

from __future__ import annotations

import os
import sys
import time

from repro.obs.collate import read_shard

__all__ = ["FleetSnapshot", "scan_shards", "render_top", "run_top"]


class _WorkerView:
    __slots__ = (
        "process", "open_spans", "finished", "failed", "last_status",
        "last_name", "progress", "retries", "last_time",
    )

    def __init__(self, process):
        self.process = process
        self.open_spans = {}
        self.finished = 0
        self.failed = 0
        self.last_status = None
        self.last_name = None
        self.progress = None
        self.retries = 0
        self.last_time = 0.0

    @property
    def state(self) -> str:
        if self.open_spans:
            return "running " + min(
                self.open_spans.values(), key=lambda s: s["start"]
            )["name"]
        if self.last_status is not None:
            return f"idle (last: {self.last_name} → {self.last_status})"
        return "starting"


class FleetSnapshot:
    """One tail-read of every shard, folded into dashboard state."""

    def __init__(self):
        self.trace_id = None
        self.workers: dict[str, _WorkerView] = {}
        self.bound_history: list[dict] = []
        self.sched: dict = {}
        self.cache: dict = {}
        self.flight: dict = {"rings": 0, "dumps": 0}
        self.skipped_lines = 0
        self.shards = 0
        self.horizon = 0.0

    def worker(self, process: str) -> _WorkerView:
        view = self.workers.get(process)
        if view is None:
            view = self.workers[process] = _WorkerView(process)
        return view


def _fold(snapshot: FleetSnapshot, record: dict) -> None:
    kind = record.get("kind")
    process = record.get("process", "?")
    view = snapshot.worker(process)
    stamp = 0.0
    if kind == "meta":
        snapshot.trace_id = record.get("trace_id", snapshot.trace_id)
    elif kind == "start":
        stamp = float(record.get("start") or 0.0)
        view.open_spans[record.get("span_id")] = {
            "name": record.get("name", "?"),
            "start": stamp,
        }
        # A retried attempt announces retry_of in both its start and
        # its end record; count only the start so an attempt that is
        # still running already shows up, and its end does not double
        # the tally.
        if record.get("attrs", {}).get("retry_of"):
            view.retries += 1
    elif kind == "span":
        stamp = float(record.get("end") or 0.0)
        view.open_spans.pop(record.get("span_id"), None)
        view.finished += 1
        view.last_name = record.get("name")
        view.last_status = record.get("status")
        if record.get("status") not in ("ok", "open"):
            view.failed += 1
    elif kind == "event":
        stamp = float(record.get("time") or 0.0)
        name = record.get("name")
        attrs = record.get("attrs") or {}
        if name == "progress":
            view.progress = dict(attrs, time=stamp)
        elif name in ("bound_published", "bound_adopted"):
            snapshot.bound_history.append({
                "time": stamp,
                "event": name,
                "process": process,
                "depth": attrs.get("depth"),
            })
        elif name == "sched":
            snapshot.sched = dict(attrs, time=stamp)
        elif name == "cache":
            snapshot.cache = dict(attrs, time=stamp)
    if stamp > view.last_time:
        view.last_time = stamp
    if stamp > snapshot.horizon:
        snapshot.horizon = stamp


def scan_shards(trace_dir: str, flight_dir: str | None = None) -> FleetSnapshot:
    """Read every shard under ``trace_dir`` into a fresh snapshot.

    Mid-write shards are the normal case: partial trailing lines are
    skipped and counted, and a shard that vanishes between listing and
    opening (unlikely, but cheap to survive) is ignored.

    ``flight_dir`` points at the flight-recorder directory for the
    armed-rings/crash-dumps row; it defaults to ``trace_dir`` (which
    also covers its ``flight/`` subdirectory), so co-located setups
    need no extra flag.
    """
    snapshot = FleetSnapshot()
    from repro.obs.flight import scan_flight_dir

    snapshot.flight = scan_flight_dir(flight_dir or trace_dir)
    try:
        names = sorted(
            name for name in os.listdir(trace_dir)
            if name.endswith(".jsonl")
            and not name.endswith(".trace.jsonl")
            and not name.endswith(".decisions.jsonl")
        )
    except FileNotFoundError:
        return snapshot
    for name in names:
        try:
            with open(os.path.join(trace_dir, name)) as handle:
                records, skipped = read_shard(handle)
        except OSError:
            continue
        snapshot.shards += 1
        snapshot.skipped_lines += skipped
        for record in records:
            _fold(snapshot, record)
    snapshot.bound_history.sort(key=lambda entry: entry["time"])
    return snapshot


def render_top(snapshot: FleetSnapshot, bound_tail: int = 5) -> str:
    """Render one dashboard frame as plain text."""
    lines = [
        f"rmrls top — trace {snapshot.trace_id or '?'}  "
        f"shards={snapshot.shards}  t={snapshot.horizon:.1f}s  "
        f"skipped_lines={snapshot.skipped_lines}",
    ]
    if not snapshot.shards:
        lines.append("no shards yet — waiting for a traced run to start")
        return "\n".join(lines)
    sched = snapshot.sched
    if sched:
        lines.append(
            f"scheduler: pending={sched.get('pending', '?')} "
            f"running={sched.get('running', '?')} "
            f"finished={sched.get('finished', '?')}"
        )
    cache = snapshot.cache
    if cache:
        lines.append(
            f"cache: hits={cache.get('hits', 0)} "
            f"misses={cache.get('misses', 0)} "
            f"coalesced={cache.get('coalesced', 0)} "
            f"bypass={cache.get('bypass', 0)} "
            f"quarantined={cache.get('quarantined', 0)}"
        )
    flight = snapshot.flight
    if flight.get("rings") or flight.get("dumps"):
        lines.append(
            f"flight: {flight.get('rings', 0)} armed ring(s), "
            f"{flight.get('dumps', 0)} crash dump(s)"
        )
    lines.append("")
    lines.append(
        f"  {'process':<24} {'state':<38} {'step':>8} {'queue':>7} "
        f"{'best':>5} {'done':>5} {'retry':>5}"
    )
    for name in sorted(snapshot.workers):
        view = snapshot.workers[name]
        progress = view.progress or {}
        best = progress.get("best_depth")
        lines.append(
            f"  {view.process:<24} {view.state[:38]:<38} "
            f"{progress.get('step', '-')!s:>8} "
            f"{progress.get('queue_size', '-')!s:>7} "
            f"{'-' if best is None else best!s:>5} "
            f"{view.finished:>5} {view.retries:>5}"
        )
    if snapshot.bound_history:
        lines.append("")
        lines.append("incumbent bound history (newest last):")
        for entry in snapshot.bound_history[-bound_tail:]:
            lines.append(
                f"  {entry['time']:>8.3f}s  depth={entry['depth']:<4} "
                f"{entry['event']:<16} [{entry['process']}]"
            )
    return "\n".join(lines)


def run_top(
    trace_dir: str,
    once: bool = False,
    interval: float = 1.0,
    iterations: int | None = None,
    stream=None,
    clear: bool | None = None,
    flight_dir: str | None = None,
) -> int:
    """The ``rmrls top`` loop: redraw until interrupted.

    ``once`` prints a single snapshot and returns (the CI artifact
    mode); ``iterations`` bounds the loop for tests.  ``clear``
    controls the ANSI home-and-clear prefix (default: only when the
    stream is a TTY).
    """
    out = stream if stream is not None else sys.stdout
    if clear is None:
        clear = bool(getattr(out, "isatty", lambda: False)())
    count = 0
    try:
        while True:
            snapshot = scan_shards(trace_dir, flight_dir=flight_dir)
            frame = render_top(snapshot)
            if clear:
                out.write("\x1b[H\x1b[2J")
            out.write(frame + "\n")
            out.flush()
            count += 1
            if once or (iterations is not None and count >= iterations):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
