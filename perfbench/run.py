"""Fixed-work benchmark of the RMRLS reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus3 --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists and what it stresses):

* ``corpus3``    seeded classes of ``results/coverage3.jsonl`` re-synthesized
                 serially with ``TABLE1_OPTIONS``;
* ``random4``    seeded random 4-variable permutations, step-capped;
* ``serve_mix``  one closed-loop client against an ``rmrls serve --store``
                 daemon, ~90% cache hits (half relabeled) and ~10% misses;
* ``portfolio2`` the ``random4`` options through ``portfolio_jobs=2``.

Every run does fixed work: the item list follows from ``--seed`` and
``--seconds`` only, and searches stop at step caps, never at wall-clock
budgets.  At most two program processes are busy at any time.  Every
answer is simulation-checked; a wrong circuit makes the command exit 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import items as itemlib  # noqa: E402
from workloads import clean_environ  # noqa: E402

WORKLOADS = ("corpus3", "random4", "serve_mix", "portfolio2")

#: Fresh program processes started per run to measure set-up time.
SETUP_SAMPLES = 5

#: Upper bound on any single wait for a program process.
PROCESS_TIMEOUT_S = 170.0

#: Finish reasons of a search that ended cleanly without a circuit.
CLEAN_UNSOLVED = ("step_limit", "queue_exhausted")

WORK_DIR = ".perfbench-runs"


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing program, dead process)."""


# -- shared helpers ---------------------------------------------------------


def program_env() -> dict:
    env = clean_environ()
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def tail_ms(values):
    """Latency at the highest percentile with at least ten samples beyond
    it, with that percentile; the maximum when there are too few."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def fingerprint(workload, item_list, options, engine) -> str:
    blob = json.dumps(
        {"workload": workload, "items": item_list, "options": options,
         "engine": engine},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def wire_lower_bound(images) -> int:
    """Output wires that differ from their input; each needs a gate."""
    num_vars = (len(images) - 1).bit_length()
    return sum(
        1 for wire in range(num_vars)
        if any((image ^ point) >> wire & 1
               for point, image in enumerate(images))
    )


def load_corpus():
    from repro.baselines.optimal import optimal_distances
    from repro.sweeps.corpus import load_coverage

    _, records = load_coverage(os.path.join("results", "coverage3.jsonl"))
    return records, optimal_distances(3)


def check_circuit(images, gates):
    """Rebuild a circuit from ``[[controls, target], ...]``; True when it
    implements ``images``."""
    from repro.circuits.circuit import Circuit
    from repro.functions.permutation import Permutation
    from repro.gates.toffoli import ToffoliGate

    num_vars = (len(images) - 1).bit_length()
    circuit = Circuit(
        num_vars, [ToffoliGate(controls, target) for controls, target in gates]
    )
    return circuit.implements(Permutation(images))


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- batch workloads (corpus3, random4, portfolio2) -------------------------


class Worker:
    """One fresh program process running ``worker.py``."""

    def __init__(self, workload: str):
        started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=program_env(), text=True,
        )
        line = self.process.stdout.readline()
        self.setup_s = time.monotonic() - started
        if line.strip() != "ready":
            self.close()
            raise BenchmarkError(f"{workload} worker failed to start")

    def run(self, job):
        self.process.stdin.write(json.dumps(job) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        self.close()
        if not line:
            raise BenchmarkError("worker died without a reply")
        return json.loads(line)

    def close(self):
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def measure_setup(start) -> tuple[float, object]:
    """Start ``SETUP_SAMPLES`` fresh program processes one after another;
    return the median start-to-ready time and the last process."""
    samples = []
    last = None
    for sample in range(SETUP_SAMPLES):
        last = start()
        samples.append(last.setup_s)
        if sample < SETUP_SAMPLES - 1:
            last.close()
    return statistics.median(samples), last


def batch_plan(workload, seed, seconds):
    """Items plus, per item, (corpus gate bound or None, optimum bound)."""
    strata = itemlib.load_strata()
    if workload == "corpus3":
        records, optimum = load_corpus()
        picks = itemlib.corpus3_items(records, optimum, strata, seed, seconds)
        return [
            (record["images"], record["gates"],
             optimum[tuple(record["images"])])
            for record in picks
        ]
    return [
        (images, None, wire_lower_bound(images))
        for images in itemlib.pool_items(workload, strata, seed, seconds)
    ]


def tally(outcomes):
    """Fold per-item outcomes into the correctness and quality score.

    An outcome is ``(gates, gap)`` for a verified circuit, ``"unsolved"``
    for a clean ending without one, ``"failed"`` for an error or any
    other ending, and ``"wrong"`` for a circuit that fails its check.
    """
    solved = [o for o in outcomes if isinstance(o, tuple)]
    wrong = sum(1 for o in outcomes if o == "wrong")
    return {
        "attempted": len(outcomes),
        "failed": wrong + sum(1 for o in outcomes if o == "failed"),
        "wrong": wrong,
        "solved": len(solved),
        "gates_mean": mean(gates for gates, _ in solved),
        "gap_mean": mean(gap for _, gap in solved),
    }


def batch_outcome(images, corpus_gates, bound, result):
    if result["error"] is not None:
        return "failed"
    circuit = result["circuit"]
    if circuit is None:
        return (
            "unsolved" if result["finish_reason"] in CLEAN_UNSOLVED
            else "failed"
        )
    if not check_circuit(images, circuit) or (
        corpus_gates is not None and len(circuit) > corpus_gates
    ):
        return "wrong"
    return len(circuit), len(circuit) - bound


def end_to_end(item_ms, miss_ms, wall_ns, score, setup_s, peak_kb):
    """The end-to-end metrics, plus a line stating the tail's percentile."""
    tail, pct = tail_ms(item_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(item_ms) / (wall_ns / 1e9), "1/s"),
        "item_ms_p50": (statistics.median(item_ms), "ms"),
        "item_ms_tail": (tail, "ms"),
        "miss_ms_p50": (statistics.median(miss_ms) if miss_ms else 0.0, "ms"),
        "gap_mean": (score["gap_mean"], "gates"),
        "gates_mean": (score["gates_mean"], "gates"),
        "solved_frac": (score["solved"] / score["attempted"], "ratio"),
        "ok_frac": (
            (score["attempted"] - score["failed"]) / score["attempted"],
            "ratio",
        ),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, (
        f"item_ms_tail is p{pct:.1f} of {len(item_ms)} items; "
        f"miss_ms_p50 over {len(miss_ms)} items answered by synthesis"
    )


def run_batch(workload, seed, seconds, trace):
    import resource

    import layers

    plan = batch_plan(workload, seed, seconds)
    item_list = [images for images, _, _ in plan]
    setup_s, worker = measure_setup(lambda: Worker(workload))
    reply = worker.run({"items": item_list, "trace": False})
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    score = tally([
        batch_outcome(*entry, result)
        for entry, result in zip(plan, reply["results"])
    ])
    item_ms = [(r["end"] - r["start"]) / 1e6 for r in reply["results"]]
    metrics, note = end_to_end(
        item_ms, item_ms, reply["wall_ns"], score, setup_s, peak_kb
    )
    digest = fingerprint(
        workload, item_list, reply["options"], reply["engine"]
    )
    lines = [
        f"fingerprint {workload} seed={seed} {digest} "
        f"engine={reply['engine']}",
        note,
    ]
    if trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, f"trace-{workload}-{seed}.jsonl")
        traced = Worker(workload).run(
            {"items": item_list, "trace": True, "trace_path": path}
        )
        traced_score = tally([
            batch_outcome(*entry, result)
            for entry, result in zip(plan, traced["results"])
        ])
        score["failed"] += traced_score["failed"]
        score["wrong"] += traced_score["wrong"]
        metrics, report = layers.batch_layer_metrics(
            reply, traced, metrics["items_per_s"][0], path
        )
        lines.extend(report)
    return score, metrics, lines


# -- serve_mix --------------------------------------------------------------


class Daemon:
    """One ``rmrls serve --store`` process on a unix socket."""

    def __init__(self, store_dir, socket_path, trace_path=None):
        self.socket_path = socket_path
        if trace_path is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                    trace_path]
        argv += ["serve", "--socket", socket_path, "--store", store_dir]
        started = time.monotonic()
        self.process = subprocess.Popen(
            argv, env=program_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.connection = self.stream = None
        try:
            self.connection = self._connect(started)
            self.stream = self.connection.makefile("rwb")
            self.request({"op": "ping"})
        except BaseException:
            self.close()
            raise
        self.setup_s = time.monotonic() - started

    def _connect(self, started):
        while True:
            if self.process.poll() is not None:
                raise BenchmarkError("serve daemon exited during start-up")
            if time.monotonic() - started > PROCESS_TIMEOUT_S:
                raise BenchmarkError("serve daemon did not start")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                return sock
            except OSError:
                sock.close()
                time.sleep(0.002)

    def send(self, request) -> bytes:
        self.stream.write(json.dumps(request).encode() + b"\n")
        self.stream.flush()
        line = self.stream.readline()
        if not line:
            raise BenchmarkError("serve daemon closed the connection")
        return line

    def request(self, request) -> dict:
        return json.loads(self.send(request))

    def close(self):
        if self.process.poll() is None:
            try:
                if self.stream is None:
                    raise BenchmarkError("no connection")
                self.send({"op": "shutdown"})
            except (OSError, BenchmarkError):
                self.process.terminate()
        for handle in (self.stream, self.connection):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        try:
            self.process.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def seed_store(path, seeded):
    """Pre-seed a store through the public bulk-merge entry point."""
    from repro.store.store import CircuitStore
    from repro.sweeps.corpus import circuit_from_record

    store = CircuitStore(path, fsync=False)
    try:
        stats = store.merge_circuits(
            (circuit_from_record(record), {"source": "perfbench"})
            for record in seeded
        )
    finally:
        store.close()
    if stats["errors"] or stats["stored"] != len(seeded):
        raise BenchmarkError(f"store seeding failed: {stats}")


def serve_pass(template, work, requests, trace_path=None):
    """One daemon over a fresh copy of the seeded store; the timed closed
    loop over ``requests``.  Returns the pass record."""
    store_dir = os.path.join(work, "store")
    shutil.rmtree(store_dir, ignore_errors=True)
    shutil.copytree(template, store_dir)
    daemon = Daemon(store_dir, os.path.join(work, "serve.sock"), trace_path)
    try:
        before = daemon.request({"op": "stats"})["stats"]
        timings = []
        replies = []
        loop_start = time.monotonic_ns()
        for request in requests:
            started = time.monotonic_ns()
            line = daemon.send({"op": "synth", "spec": request})
            timings.append((started, time.monotonic_ns()))
            replies.append(line)
        loop_end = time.monotonic_ns()
        after = daemon.request({"op": "stats"})["stats"]
    finally:
        daemon.close()
    replies = [json.loads(line) for line in replies]
    return {
        "before": before, "after": after, "timings": timings,
        "replies": replies, "loop": (loop_start, loop_end),
        "options": miss_options(store_dir, replies),
    }


def miss_options(store_dir, replies):
    """The options the daemon resolved for its searches, as recorded in
    the provenance of the first record a miss wrote."""
    from repro.store.store import CircuitStore

    keys = [reply["key"] for reply in replies if reply.get("cache") == "miss"]
    if not keys:
        return None
    store = CircuitStore(store_dir, read_only=True)
    try:
        record = store.get(keys[0])
    finally:
        store.close()
    return None if record is None else record.provenance.get("options")


def serve_outcome(images, reply, optimum):
    from repro.circuits.circuit import Circuit
    from repro.functions.permutation import Permutation
    from repro.io.real_format import load_real

    if reply.get("status") != "ok":
        return "unsolved" if reply.get("status") == "unsolved" else "failed"
    circuit = load_real(reply["real"])
    if not (
        isinstance(circuit, Circuit)
        and circuit.implements(Permutation(images))
        and circuit.gate_count() == reply.get("gates")
    ):
        return "wrong"
    return circuit.gate_count(), circuit.gate_count() - optimum[tuple(images)]


def run_serve(seed, seconds, trace):
    import resource

    import layers
    from repro.pprm.engine import resolve_search_engine
    from repro.pprm.system import PPRMSystem

    records, optimum = load_corpus()
    strata = itemlib.load_strata()
    seeded, requests = itemlib.serve_plan(
        records, optimum, strata, seed, seconds
    )
    work = os.path.join(WORK_DIR, f"serve-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        template = os.path.join(work, "seeded")
        seed_store(template, seeded)
        setup_s, daemon = measure_setup(
            lambda: Daemon(template, os.path.join(work, "serve.sock"))
        )
        daemon.close()
        untraced = serve_pass(template, work, requests)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        score = tally([
            serve_outcome(images, reply, optimum)
            for images, reply in zip(requests, untraced["replies"])
        ])
        item_ms = [(end - start) / 1e6 for start, end in untraced["timings"]]
        miss_ms = [
            ms for ms, reply in zip(item_ms, untraced["replies"])
            if reply.get("cache") == "miss"
        ]
        metrics, note = end_to_end(
            item_ms, miss_ms, untraced["loop"][1] - untraced["loop"][0],
            score, setup_s, peak_kb,
        )
        engine = resolve_search_engine(
            None, PPRMSystem.from_permutation(list(range(8)))
        ).name
        digest = fingerprint(
            "serve_mix",
            {"seeded": sorted(r["class_rank"] for r in seeded),
             "requests": requests},
            untraced["options"], engine,
        )
        lines = [
            f"fingerprint serve_mix seed={seed} {digest} engine={engine}",
            note,
        ]
        if trace:
            path = os.path.join(WORK_DIR, f"trace-serve_mix-{seed}.jsonl")
            traced = serve_pass(template, work, requests, path)
            traced_score = tally([
                serve_outcome(images, reply, optimum)
                for images, reply in zip(requests, traced["replies"])
            ])
            score["failed"] += traced_score["failed"]
            score["wrong"] += traced_score["wrong"]
            metrics, report = layers.serve_layer_metrics(
                untraced, traced, path
            )
            lines.extend(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return score, metrics, lines


# -- entry point ------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    for needed in (os.path.join("src", "repro", "__init__.py"),
                   os.path.join("results", "coverage3.jsonl")):
        if not os.path.isfile(needed):
            print(f"run from a checkout of the repository: {needed} is "
                  "missing", file=sys.stderr)
            return 2
    environ = clean_environ()
    os.environ.clear()
    os.environ.update(environ)
    sys.path.insert(0, os.path.abspath("src"))

    try:
        if args.workload == "serve_mix":
            score, metrics, lines = run_serve(
                args.seed, args.seconds, args.trace
            )
        else:
            score, metrics, lines = run_batch(
                args.workload, args.seed, args.seconds, args.trace
            )
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    correct = score["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": score["attempted"],
        "failed": score["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
