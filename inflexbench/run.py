"""The INFLEX benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 inflexbench/run.py --workload serve-cold --seed 1 \\
        --seconds 12 --trace 0

Each run is three sessions.  A session sets up (dataset, offline build
with sketch bank and a save/load round trip, ``repro-inflex serve``
started until ``/healthz`` answers), runs a prelude on that server (a
saturation segment of cold batches, or the cache warm-up), then drives
it open loop over two connections through a third of the reference
phases.  The last server then answers a probe set, and the answers are
checked against the same index rebuilt in-process.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones (the
last session's traffic is then replayed against another server started
through ``launch_server.py``).  The last stdout line is the JSON result; a full
report goes to ``.inflexbench/reports/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import spans as span_tools  # noqa: E402
import workloads as wl  # noqa: E402

TIMEOUT_S = 10.0
#: Requests still unsent this long after their phase ended are dropped.
GRACE_S = 60.0
STOP_TIMEOUT_S = 30.0
REFEREE_SETS = 10_000
#: A request written more than this long after it was due while a
#: connection was free means the client, not the server, fell behind;
#: a run where more than CLIENT_LATE_SHARE of requests did is invalid.
CLIENT_LATE_S = 0.005
CLIENT_LATE_SHARE = 0.01
#: One BLAS thread per process: the client, the build and the server
#: share two CPUs, and a threaded BLAS pool made repeated identical
#: builds vary by +-20% where a single thread varies by +-3%.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(
        ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    )


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from ``/proc/stat``."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n")[0]
              .split()[1:]]
    return fields[7], sum(fields[:8])


def provenance(root: Path) -> dict:
    import numpy as np

    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    status = git("status", "--porcelain") if (root / ".git").exists() else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git("rev-parse", "HEAD") if status is not None else None,
        "git_dirty": bool(status) if status is not None else None,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key)
                 for key in ("name", "version", "openblas configuration")},
        "blas_threads": SINGLE_THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "loadavg_before": os.getloadavg(),
    }


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Server:
    """A ``repro-inflex serve`` child process."""

    def __init__(self, setup_dir: Path, workload, env, spans_path=None):
        command = [sys.executable]
        if spans_path is None:
            command += ["-m", "repro.cli"]
        else:
            command += [str(HERE / "launch_server.py")]
            env = dict(env, INFLEXBENCH_SPANS=str(spans_path))
        command += [
            "serve", "--data", str(setup_dir / "data"),
            "--index", str(setup_dir / "index.npz"), "--port", "0",
        ]
        if workload.stream:
            command += ["--stream", "--stream-sets",
                        str(workload.stream_sets)]
        self.log = open(setup_dir / "server.log", "w")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env,
            text=True,
        )
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        for line in self.proc.stdout:
            if " on 127.0.0.1:" in line:
                self.port = int(line.split(" on 127.0.0.1:")[1].split()[0])
                break
        if self.port is None:
            raise RuntimeError("server exited before listening")
        while time.monotonic() < deadline:
            try:
                asyncio.run(client.get_json(self.port, "/healthz"))
                return
            except (OSError, RuntimeError):
                time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def proc_stat(self) -> dict:
        """CPU seconds and peak resident MB of the server so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        peak_kb = next(float(line.split()[1]) for line in status.splitlines()
                       if line.startswith("VmHWM:"))
        return {
            "cpu_s": (int(fields[11]) + int(fields[12]))
            / os.sysconf("SC_CLK_TCK"),
            "peak_rss_mb": peak_kb / 1024.0,
        }

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def run_buildjob(setup_dir: Path, workload, trace: int, env) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "buildjob.py"), "--out", str(setup_dir),
         "--shape", json.dumps(workload.shape),
         "--seed", str(wl.DATASET_SEED), "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=170,
    )
    if result.returncode != 0:
        raise RuntimeError(f"build failed:\n{result.stderr[-2000:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def sessions(work: Path, workload, args, env, servers: list,
             answer_probes: bool):
    """The three sessions: set up, run the prelude, then the session's
    reference phases.  With ``answer_probes`` the last server answers
    the probes before it stops.  Returns the set-ups, the last set-up's
    directory, the preludes' windows, the reference windows and the
    probe answers."""
    setups, segments, windows, served = [], [], [], None
    for number in range(wl.SETUPS):
        setup_dir = work / f"setup{number}"
        start = time.perf_counter()
        build = run_buildjob(setup_dir, workload, args.trace, env)
        server = Server(setup_dir, workload, env)
        servers.append(server)
        server.wait_ready()
        build["setup_s"] = time.perf_counter() - start
        setups.append(build)
        points, deltas = session_inputs(setup_dir, workload, args.seed)
        segments.append(asyncio.run(drive(server, *wl.prelude(
            workload, args.seconds, args.seed, number, points))))
        last = number == wl.SETUPS - 1
        window, answers = measure(
            servers.pop(),
            *wl.schedule(workload, args.seconds, args.seed, number, points,
                         deltas),
            wl.probes(args.seed, points) if last and answer_probes
            else None,
        )
        windows.append(window)
        if last:
            served = answers
        else:
            shutil.rmtree(setup_dir)
    return setups, setup_dir, segments, windows, served


def session_inputs(setup_dir: Path, workload, seed: int):
    """The index points and the delta batches (``stream`` workloads
    only) the schedules are built from."""
    import numpy as np

    with np.load(setup_dir / "index.npz") as artifact:
        points = artifact["index_points"]
    if not workload.stream:
        return points, []
    from repro.datasets.workloads import generate_delta_workload
    from repro.graph.io import load_graph

    return points, [
        batch.to_dict() for batch in generate_delta_workload(
            load_graph(setup_dir / "data" / "graph.npz"),
            wl.WRITES, wl.DELTAS_PER_WRITE, seed=seed,
        )
    ]


# ----------------------------------------------------------------------
# The timed window
# ----------------------------------------------------------------------
def answers_of(outcome) -> list[dict]:
    """Per-query answers of a read outcome (empty when it failed)."""
    if outcome.status != 200 or outcome.payload is None:
        return []
    if outcome.request.kind == "batch":
        return outcome.payload.get("answers", [])
    return [outcome.payload]


def read_ok(outcome) -> bool:
    answers = answers_of(outcome)
    return bool(answers) and not any("error" in a for a in answers)


async def drive(server: Server, requests, phases) -> dict:
    """Run ``phases`` one after the other on ``server``."""
    conns = await client.connect(server.port, os.cpu_count() or 2)
    before = server.proc_stat()
    outcomes, phase_stats = [], []
    try:
        for phase, (kind, rate, begin, duration) in enumerate(phases):
            scheduled = [
                client.Request(r.offset - begin, r.kind, r.path, r.body,
                               r.phase)
                for r in requests if r.phase == phase
            ]
            start = time.perf_counter()
            # A saturation schedule is longer than the server can answer
            # in ``duration``: what is unsent then is dropped and was
            # never attempted.
            saturate = kind == "saturate"
            done = await client.run_phase(
                conns, scheduled, duration=duration,
                grace=0.0 if saturate else GRACE_S,
                timeout=TIMEOUT_S, first_id=len(outcomes) + 1,
            )
            if saturate:
                done = [o for o in done if o.sent]
            outcomes += done
            reads = [o for o in done if o.request.kind != "write"]
            phase_stats.append({
                "kind": kind, "rate": rate, "duration_s": duration,
                "elapsed_s": time.perf_counter() - start,
                "reads": len(reads),
                # Answers in full: no error, no deadline degradation.
                "queries": sum(
                    "error" not in a and a.get("reason") != "deadline"
                    for o in reads for a in answers_of(o)
                ),
            })
    finally:
        for conn in conns:
            conn.close()
    after = server.proc_stat()
    return {
        "outcomes": outcomes, "phases": phase_stats,
        "stats": await client.get_json(server.port, "/stats"),
        "server_cpu_s": after["cpu_s"] - before["cpu_s"],
        "peak_rss_mb": after["peak_rss_mb"],
    }


def failures(outcomes) -> int:
    return sum(
        not (read_ok(o) if o.request.kind != "write" else o.status == 200)
        for o in outcomes
    )


def late_share(outcomes) -> float:
    """Share of sent requests the client wrote over CLIENT_LATE_S late."""
    late = [o.client_late > CLIENT_LATE_S for o in outcomes if o.sent]
    return sum(late) / len(late) if late else 0.0


def capacity(segment: dict) -> float:
    """Queries answered in full per second of a saturation segment."""
    phase = segment["phases"][0]
    return phase["queries"] / phase["elapsed_s"]


def summarize(windows: list) -> dict:
    """Client-side figures of the reference phases of ``windows``."""
    outcomes = [o for window in windows for o in window["outcomes"]]
    reads = [o for o in outcomes if o.request.kind != "write"]
    singles = [o.latency for o in reads
               if o.request.kind == "query" and read_ok(o)]
    batches = [o.latency for o in reads
               if o.request.kind == "batch" and read_ok(o)]
    answered = [a for o in reads for a in answers_of(o) if "error" not in a]
    deadline = sum(a.get("reason") == "deadline" for a in answered)
    tail_pct = wl.tail_percentile(
        sum(o.request.kind == "query" for o in reads)
    )
    writes = [o.latency for o in outcomes
              if o.request.kind == "write" and o.status == 200]
    sent = [o for o in outcomes if o.sent]
    late = [o.client_late for o in sent]
    all_answered = sum(
        len([a for a in answers_of(o) if "error" not in a]) for o in outcomes
    )
    ok = sum(read_ok(o) for o in reads)
    server_cpu_s = sum(window["server_cpu_s"] for window in windows)
    return {
        "query_p50_ms": percentile(singles, 50) * 1e3,
        "query_tail_ms": percentile(singles, tail_pct) * 1e3,
        "query_tail_pct": tail_pct,
        "query_samples": len(singles),
        "batch_p50_ms": percentile(batches, 50) * 1e3,
        "batch_tail_ms": percentile(
            batches, wl.tail_percentile(len(batches))) * 1e3,
        "batch_samples": len(batches),
        "ok_share": ok / len(reads),
        "fail_rate": 1.0 - ok / len(reads),
        "on_time_share": 1.0 - deadline / max(1, len(answered)),
        "deadline_rate": deadline / max(1, len(answered)),
        "writes": len(writes),
        "write_p50_ms": percentile(writes, 50) * 1e3,
        "write_tail_ms": percentile(
            writes, wl.tail_percentile(len(writes))) * 1e3,
        "attempted": len(outcomes),
        "failed": failures(outcomes),
        "cpu_ms_per_query": server_cpu_s * 1e3 / max(1, all_answered),
        "answered_queries": all_answered,
        "client_late_p99_ms": percentile(late, 99) * 1e3,
        "client_late_share": late_share(outcomes),
        "conn_wait_p99_ms": percentile([o.conn_wait for o in sent], 99) * 1e3,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in windows),
        "phases": [w["phases"] for w in windows],
        "stats": windows[-1]["stats"],
    }


async def ask_probes(port: int, probes) -> list[dict]:
    served = []
    for probe in probes:
        body = {key: probe[key]
                for key in ("gamma", "k", "strategy", "deadline_ms")}
        status, payload = await client.post_json(port, "/query", body)
        if status != 200:
            raise RuntimeError(f"probe answered {status}: {payload}")
        served.append(payload)
    return served


def measure(server: Server, requests, phases, probes=None):
    """The reference phases on ``server`` (then the probes), then stop
    it.  Returns the window and the probe answers."""
    try:
        window = asyncio.run(drive(server, requests, phases))
        served = (asyncio.run(ask_probes(server.port, probes))
                  if probes else None)
    finally:
        server.stop()
    return window, served


# ----------------------------------------------------------------------
# Per-layer numbers of the traced run
# ----------------------------------------------------------------------
def span_metrics(spans_path: Path) -> dict:
    """Layer times and counts from the traced server's spans."""
    spans, counts = span_tools.load(spans_path)
    by_id = {span["id"]: span for span in spans}
    query_routes = {"/query", "/query_batch"}

    def route_of(span):
        while span["parent"] is not None and span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span["tag"]

    # Protocol spans of /stats, /healthz and /deltas are not query-path
    # work; everything else (executor spans have no request parent) is.
    spans = [s for s in spans if not s["name"].startswith("serving.")
             or route_of(s) in query_routes]
    totals = span_tools.layer_totals(spans)
    own = span_tools.self_times(spans)

    def calls(name):
        return totals.get(name, {"calls": 0})["calls"]

    def self_ms(name, per=None):
        return totals.get(name, {"self_s": 0.0})["self_s"] * 1e3 / max(
            1, calls(name) if per is None else per)

    def mean(count, per):
        return counts.get(count, 0) / max(1, counts.get(per, 0))

    roots = [s for s in spans if s["name"] == "serving.request"
             and s["tag"] in query_routes]
    root_s = sum(s["end"] - s["start"] for s in roots)
    resampled = counts.get("streaming.rr_sets_resampled", 0)
    retained = counts.get("streaming.rr_sets_retained", 0)
    return {
        "serving.parse_ms": self_ms("serving.parse", len(roots)),
        "serving.serialize_ms": self_ms("serving.serialize", len(roots)),
        "serving.queue_wait_ms": self_ms("serving.queue_wait"),
        "serving.request_ms": root_s * 1e3 / max(1, len(roots)),
        "serving.unexplained_share": (
            sum(own[s["id"]] for s in roots) / root_s if root_s else 0.0
        ),
        "cache.lookup_ms": self_ms("cache.lookup"),
        "cache.invalidations": counts.get("cache.invalidations", 0),
        "index.query_batch_ms": totals.get(
            "index.query_batch", {"inclusive_s": 0.0})["inclusive_s"] * 1e3
        / max(1, calls("index.query_batch")),
        "index.self_ms": self_ms(
            "index.query_batch", counts.get("index.queries", 0)),
        "bbtree.search_ms": self_ms("bbtree.search"),
        "bbtree.leaves_visited": mean(
            "bbtree.leaves_visited", "bbtree.searches"),
        "bbtree.divergence_computations": mean(
            "bbtree.divergence_computations", "bbtree.searches"),
        "bbtree.nodes_pruned": mean("bbtree.nodes_pruned", "bbtree.searches"),
        "ranking.select_ms": self_ms(
            "ranking.select", counts.get("ranking.selections", 0)),
        "ranking.neighbors_kept": mean(
            "ranking.neighbors_kept", "ranking.selections"),
        "aggregation.aggregate_ms": self_ms("aggregation.aggregate"),
        "aggregation.lists_in": mean("aggregation.lists_in",
                                     "aggregation.calls"),
        "sketches.compose_ms": self_ms("sketches.compose"),
        "sketches.select_ms": self_ms("sketches.select"),
        "sketches.composes_sketch": counts.get("sketches.composes_sketch", 0),
        "sketches.composes_distance": counts.get(
            "sketches.composes_distance", 0),
        "sketches.composes_deadline": counts.get(
            "sketches.composes_deadline", 0),
        "streaming.apply_ms": self_ms("streaming.apply"),
        "streaming.rr_sets_resampled": mean(
            "streaming.rr_sets_resampled", "streaming.applies"),
        "streaming.retain_ratio": (
            retained / (resampled + retained) if resampled + retained
            else 0.0
        ),
    }


def per_layer(setups, segments, prior: dict, measured: dict, last: dict,
              traced: dict, spans_path: Path):
    """Per-layer metrics.  The spans, and the ``/stats`` figures taken
    as differences from ``prior`` (the traced server's ``/stats`` when
    its spans were reset), cover the traced reference phases; the build
    layers come from the set-ups, the capacity from the untraced
    preludes, and the client-side figures from the untraced reference
    phases of all sessions (``measured``).  The tracing overhead
    compares the traced replay with the session it replays (``last``)."""
    stats = traced["stats"]

    def delta(*keys):
        now, before = stats, prior
        for key in keys:
            now, before = now[key], before[key]
        return now - before

    hits = delta("cache", "hits")
    lookups = hits + delta("cache", "misses")
    build_layers = {
        key: statistics.median(s["layers"].get(key, 0.0) for s in setups)
        for key in setups[0]["layers"]
    }
    return {
        **span_metrics(spans_path),
        **build_layers,
        "build.build_s": statistics.median(s["build_s"] for s in setups),
        "build.peak_rss_mb": statistics.median(
            s["peak_rss_mb"] for s in setups),
        "serving.batch_size": delta("batcher", "items_total")
        / max(1, delta("batcher", "batches_total")),
        "serving.shed": delta("admission", "shed_total"),
        "server.cpu_ms_per_query": measured["cpu_ms_per_query"],
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "singleflight.coalesced": delta("singleflight_coalesced"),
        "streaming.write_p50_ms": measured["write_p50_ms"],
        "streaming.write_tail_ms": measured["write_tail_ms"],
        "client.fail_rate": measured["fail_rate"],
        "client.deadline_rate": measured["deadline_rate"],
        "client.late_p99_ms": measured["client_late_p99_ms"],
        "client.query_tail_pct": measured["query_tail_pct"],
        "client.query_tail_ms": measured["query_tail_ms"],
        "client.batch_p50_ms": measured["batch_p50_ms"],
        "client.batch_tail_ms": measured["batch_tail_ms"],
        "client.capacity_qps": statistics.median(
            capacity(segment) for segment in segments[:wl.SETUPS]),
        "trace.overhead_p50_ms": (
            traced["query_p50_ms"] - last["query_p50_ms"]),
        "trace.overhead_cpu_ms_per_query": (
            traced["cpu_ms_per_query"] - last["cpu_ms_per_query"]),
    }


# ----------------------------------------------------------------------
def run(args, root: Path, spec: dict, work: Path) -> dict:
    workload = wl.WORKLOADS[args.workload]
    if args.tiny:
        workload = wl.tiny(workload)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREAD_ENV)
    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(root)}
    spans_path = work / "spans.json"
    steal_before = cpu_ticks()
    servers: list = []
    try:
        setups, setup_dir, segments, windows, served = sessions(
            work, workload, args, env, servers, not args.trace
        )
        points, deltas = session_inputs(setup_dir, workload, args.seed)
        probes = wl.probes(args.seed, points)
        last = wl.schedule(workload, args.seconds, args.seed,
                           wl.SETUPS - 1, points, deltas)
        checked = windows[-1]
        if args.trace:
            # The traced server gets the last session's history: its
            # prelude, then its reference phases.
            servers.append(Server(setup_dir, workload, env, spans_path))
            servers[-1].wait_ready()
            segments.append(asyncio.run(drive(servers[-1], *wl.prelude(
                workload, args.seconds, args.seed, wl.SETUPS - 1, points))))
            prior = segments[-1]["stats"]
            servers[-1].proc.send_signal(signal.SIGUSR1)
            time.sleep(0.1)  # the launcher resets its spans on the signal
            checked, served = measure(servers.pop(), *last, probes)
    finally:
        for server in servers:
            server.stop()

    steal_after = cpu_ticks()
    report["steal_share"] = (steal_after[0] - steal_before[0]) / max(
        1, steal_after[1] - steal_before[1])
    import checks

    measured = summarize(windows)
    writes = sum(o.request.kind == "write" and o.status == 200
                 for o in checked["outcomes"])
    reference = checks.reference_index(
        setup_dir, deltas[:writes],
        workload.stream_sets if workload.stream else None,
    )
    probe_check = checks.compare_probes(reference, probes, served)
    identical = len({s["fingerprint"] for s in setups}) == 1
    preludes = [o for segment in segments for o in segment["outcomes"]]
    report["checks"] = {
        "probes": probe_check,
        "builds_bit_identical": identical,
        # The warm-up sends everything at once, so only saturation
        # segments and reference phases have a schedule to keep.
        "generator_valid": max(
            measured["client_late_share"],
            0.0 if workload.stream else late_share(preludes),
        ) <= CLIENT_LATE_SHARE,
    }
    report["correct"] = (
        not probe_check["mismatches"]
        and probe_check["distance_served"] == probe_check["distance_predicted"]
        and identical
    )
    report["setups"] = setups
    report["preludes"] = [
        {"capacity_qps": capacity(segment), "phases": segment["phases"],
         "client_late_share": late_share(segment["outcomes"])}
        for segment in segments
    ]
    report["measured"] = measured
    report["session_query_p50_ms"] = [
        summarize([window])["query_p50_ms"] for window in windows]
    report["attempted"] = measured["attempted"] + len(preludes)
    report["failed"] = measured["failed"] + failures(preludes)
    if args.trace:
        traced = summarize([checked])
        report["traced"] = traced
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        values = per_layer(setups, segments, prior, measured,
                           summarize(windows[-1:]), traced, spans_path)
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            # The process doing the work: the build job on ``build``,
            # the servers on the serving workloads.
            "peak_rss_mb": (
                statistics.median(s["peak_rss_mb"] for s in setups)
                if workload.name == "build" else measured["peak_rss_mb"]
            ),
            "spread_ratio": checks.spread_ratio(
                reference, probes, served, args.seed, REFEREE_SETS),
            # The median over the sessions: an episode of host slowdown
            # during one session's singles does not move it.
            "query_p50_ms": statistics.median(
                report["session_query_p50_ms"]),
            **{key: measured[key] for key in ("ok_share", "on_time_share")},
        }
        names = spec["end_to_end"]
    report["metrics"] = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in names
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test shapes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.update(SINGLE_THREAD_ENV)
    # SIGTERM unwinds through the finally blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reports = root / ".inflexbench" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    work = root / ".inflexbench" / f"{name}-{os.getpid()}"
    try:
        report = run(args, root, spec, work)
    finally:
        if (work / "spans.json").exists():
            shutil.move(work / "spans.json", reports / f"{name}-spans.json")
        shutil.rmtree(work, ignore_errors=True)
    path = reports / f"{name}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, default=str))
    print(json.dumps({"provenance": report["provenance"],
                      "checks": report["checks"]}, default=str))
    for metric, entry in report["metrics"].items():
        print(f"{metric:34s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
