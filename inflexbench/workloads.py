"""Workload definitions and their seeded inputs.

Every workload runs the same skeleton (see ``run.py``): three sessions,
each a set-up (dataset, offline build, server start) followed by a
prelude on that server (a saturation segment of cold traffic, or the
cache warm-up on ``serve-mixed``) and a third of the reference phases;
then probes on the last server and output checks.  The workloads differ in index
shape and in the traffic of the reference phases:

``build``       the larger index shape, so the offline pipeline
                (clustering and IMM seed lists) dominates the run;
                light cold traffic over that index.
``serve-cold``  the small index; every gamma is a distinct
                Dirichlet(0.8) draw, so the result cache never hits and
                each query runs search, selection and aggregation.
``serve-mixed`` the small index served with ``--stream``: Zipf(1.1)
                reads over a few hundred gammas (hot cache), a share of
                ``strategy=sketch`` and far-from-index queries, and
                ``POST /deltas`` writes on a fixed schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from client import Request

TOPICS = 8
K = 10
BATCH = 8
#: Sessions per run: each sets up once and drives its own server through
#: a prelude and a third of the reference phases.
SETUPS = 3
#: Shares of the timed window: single queries, then batches, then the
#: saturation segments (the rest); each is split evenly over the
#: sessions.  The host slows by up to 2x for episodes of seconds, so a
#: figure sampled in one stretch of a run measures the episode: one
#: saturation segment read 316 to 522 queries/s over ten runs, and
#: singles timed in one 4.8 s stretch gave a median that spread by a
#: quarter between runs.  Spread over the three sessions, about ten
#: seconds apart, they average over more of the run.
SINGLES_SHARE = 0.4
BATCHES_SHARE = 0.2
#: A saturation segment schedules cold ``/query_batch`` requests at this
#: rate, about four times what the server answers, so the answered
#: queries per second are the server's capacity.  Batches, not singles:
#: with two connections the executor idles while the client turns a
#: single request around, so single-request throughput measures the
#: client (which shares the two CPUs) as well as the server; a batch
#: keeps the executor busy while the other connection's answer is
#: read.  A server more than four times faster would read as this rate
#: times BATCH.
SATURATION_RATE = 250.0

#: The dataset and index are the same in every run, like a benchmark
#: corpus; ``--seed`` drives the traffic, the probes and the deltas.
#: Fixed before any run was made, not chosen from results.
DATASET_SEED = 0

SERVE_SHAPE = {
    "nodes": 1000, "topics": TOPICS, "items": 400, "index_points": 32,
    "samples": 3000, "seed_list_length": 20, "epsilon": 0.4,
    "sketch_sets": 500, "fallback": 1.0,
}
BUILD_SHAPE = dict(
    SERVE_SHAPE, index_points=64, samples=5000, epsilon=0.4,
    sketch_sets=1000,
)

#: Shape of the benchmark's own smoke tests (``run.py --tiny``).
TINY_SHAPE = dict(
    SERVE_SHAPE, nodes=200, items=80, index_points=8, samples=400,
    epsilon=0.5, sketch_sets=200,
)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict
    #: Single ``/query`` requests per second of the singles phase and
    #: ``/query_batch`` requests per second of the batch phase.
    query_rate: float
    batch_rate: float
    #: Mixed traffic (``serve --stream``, reads from the Zipf pool, a
    #: far mix and writes) in the reference phases.
    stream: bool = False
    stream_sets: int = 100


WORKLOADS = {
    "build": Workload("build", BUILD_SHAPE, 40, 10),
    "serve-cold": Workload("serve-cold", SERVE_SHAPE, 50, 10),
    "serve-mixed": Workload("serve-mixed", SERVE_SHAPE, 60, 10, stream=True),
}
#: Mixed traffic: delta batches posted per session (spread evenly over
#: its batch phase) and deltas per batch, the Zipf pool of read gammas,
#: and the shares of the reads that use ``strategy=sketch`` and that
#: come from the far mix.  No write falls in the singles phase: a write
#: empties the cache, and with a write mid-way through the singles the
#: share of misses among them decided where in the hit latencies their
#: median fell (session medians 2.2 to 3.6 ms within one run, a spread
#: of 0.165 over ten runs).  Without one, the singles' median is the
#: hot-cache protocol path.
WRITES = 1
DELTAS_PER_WRITE = 1
MIXED_POOL = 300
SKETCH_SHARE = 0.1
FAR_SHARE = 0.1


def tiny(workload: Workload) -> Workload:
    """``workload`` at the smoke-test shape."""
    return replace(workload, shape=TINY_SHAPE, stream_sets=30)


def tail_percentile(samples: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if samples * (1 - pct / 100.0) >= 10:
            return pct
    return 50.0


def phases(workload: Workload, seconds: float) -> list[tuple]:
    """``(kind, rate, start, duration)`` of one session's singles and
    batch reference phases."""
    singles = seconds * SINGLES_SHARE / SETUPS
    batches = seconds * BATCHES_SHARE / SETUPS
    return [("query", workload.query_rate, 0.0, singles),
            ("batch", workload.batch_rate, singles, batches)]


def prelude(workload: Workload, seconds: float, seed: int, number: int,
            points):
    """What session ``number``'s server runs before its reference
    phases: the cache warm-up on ``stream`` workloads, a saturation
    segment otherwise.  Returns ``(requests, phases)``."""
    if workload.stream:
        return warm_up(seed, points)
    return saturation(seconds, seed, number)


def saturation(seconds: float, seed: int, number: int):
    """The saturation segment run on session ``number``'s server: cold
    ``/query_batch`` requests, so ``client.capacity_qps`` measures the cold
    query path.  Returns ``(requests, phases)``."""
    duration = seconds * (1 - SINGLES_SHARE - BATCHES_SHARE) / SETUPS
    rng = np.random.default_rng([seed, 31, number])
    offsets = _arrivals(rng, SATURATION_RATE, 0.0, duration)
    gammas = iter(distinct_gammas(rng, len(offsets) * BATCH, 0.8))
    requests = [
        Request(float(offset), "batch", "/query_batch", json.dumps(
            {"queries": [query_body(next(gammas)) for _ in range(BATCH)]}
        ).encode())
        for offset in offsets
    ]
    return requests, [("saturate", SATURATION_RATE, 0.0, duration)]


def distinct_gammas(rng, count: int, alpha: float) -> np.ndarray:
    """``count`` Dirichlet draws no two of which share a cache key.

    The server rounds gammas to three decimals before keying its cache;
    draws that collide at that rounding are rejected.
    """
    kept, seen = [], set()
    while len(kept) < count:
        for row in rng.dirichlet(np.full(TOPICS, alpha), size=count):
            key = np.round(row, 3).tobytes()
            if key not in seen and len(kept) < count:
                seen.add(key)
                kept.append(row)
    return np.array(kept)


def far_mix(rng, points, count: int) -> np.ndarray:
    """``count`` queries far from every index point.

    Spiky Dirichlet(0.15) candidates, eight per query kept, ranked by
    their minimum ``KL(q || p)`` over the index ``points``: the most
    distant are the far mix (the construction of ``loadgen --far-mix``).
    """
    candidates = rng.dirichlet(np.full(TOPICS, 0.15), size=8 * count)
    q = np.clip(candidates, 1e-12, None)
    q /= q.sum(axis=1, keepdims=True)
    p = np.clip(points, 1e-12, None)
    p /= p.sum(axis=1, keepdims=True)
    min_kl = (np.sum(q * np.log(q), axis=1)[:, None]
              - q @ np.log(p).T).min(axis=1)
    return candidates[np.argsort(-min_kl, kind="stable")[:count]]


def query_body(gamma, strategy="inflex", deadline_ms=None) -> dict:
    body = {"gamma": [float(v) for v in gamma], "k": K, "strategy": strategy}
    if deadline_ms is not None:
        body["deadline_ms"] = deadline_ms
    return body


def _arrivals(rng, rate: float, start: float, duration: float) -> np.ndarray:
    """``rate * duration`` arrival offsets ``1 / rate`` apart, from a
    seeded start within the first gap.

    Evenly spaced, not Poisson: with random arrivals the latency median
    at the reference rates depended on how many requests of the seed's
    schedule happened to overlap (26 to 40 of 270 in three runs, which
    moved ``query_p50_ms`` by 14%), so it measured the schedule as much
    as the server.
    """
    count = int(round(rate * duration))
    return start + (np.arange(count) + rng.uniform()) / rate


def schedule(workload: Workload, seconds: float, seed: int, number: int,
             points, deltas=()):
    """Session ``number``'s reference phases: their requests and the
    phases.

    The phases carry the workload's own reads (with ``stream``: a far
    mix built against the index ``points``, and the ``deltas`` batches,
    spread evenly over the batch phase).  Returns ``(requests, phases)``.
    """
    rng = np.random.default_rng([seed, 11, number])
    window = phases(workload, seconds)
    arrivals = [_arrivals(rng, rate, start, duration)
                for _, rate, start, duration in window]
    fresh = iter(distinct_gammas(
        rng, sum(len(a) for a in arrivals) * BATCH, 0.8
    ))
    if workload.stream:
        pool, far = mixed_reads(seed, points)
        zipf = np.arange(1, MIXED_POOL + 1, dtype=np.float64) ** -1.1
        zipf /= zipf.sum()

    def read_gamma():
        if not workload.stream:
            return next(fresh), "inflex"
        roll = rng.random()
        if roll < FAR_SHARE:
            return far[rng.integers(len(far))], "inflex"
        strategy = "sketch" if roll < FAR_SHARE + SKETCH_SHARE else "inflex"
        return pool[rng.choice(MIXED_POOL, p=zipf)], strategy

    requests = []
    for phase, ((kind, _, _, _), offsets) in enumerate(zip(window, arrivals)):
        for offset in offsets:
            if kind == "batch":
                body = {"queries": [query_body(*read_gamma())
                                    for _ in range(BATCH)]}
                requests.append(Request(float(offset), "batch",
                                        "/query_batch",
                                        json.dumps(body).encode(), phase))
            else:
                body = query_body(*read_gamma())
                requests.append(Request(float(offset), "query", "/query",
                                        json.dumps(body).encode(), phase))
    _, _, start, duration = window[-1]
    for number, batch in enumerate(deltas, 1):
        requests.append(Request(
            start + duration * number / (len(deltas) + 1), "write",
            "/deltas", json.dumps(batch).encode(), len(window) - 1))
    requests.sort(key=lambda request: request.offset)
    return requests, window


def mixed_reads(seed: int, points):
    """The Zipf pool and the far mix (built against the index
    ``points``) the mixed reads are drawn from."""
    rng = np.random.default_rng([seed, 13])
    return distinct_gammas(rng, MIXED_POOL, 0.8), far_mix(rng, points, 32)


def warm_up(seed: int, points):
    """Every cache key the mixed reads use, as ``/query_batch``
    requests sent at once before the reference phases, so the cache
    starts hot.  Each is a miss, and the server answers them as fast as
    it can, so the warm-up is also the workload's saturation segment.

    Without it about half the reference reads missed, and the singles'
    median fell between the hit and the miss latencies (3.0 to 6.1 ms
    over seven runs).  Returns ``(requests, phases)``.
    """
    pool, far = mixed_reads(seed, points)
    bodies = ([query_body(g) for g in pool]
              + [query_body(g, "sketch") for g in pool]
              + [query_body(g) for g in far])
    requests = [
        Request(0.0, "batch", "/query_batch",
                json.dumps({"queries": bodies[i:i + BATCH]}).encode())
        for i in range(0, len(bodies), BATCH)
    ]
    return requests, [("warm", 0.0, 0.0, 0.0)]


def probes(seed: int, points) -> list[dict]:
    """Post-window probe queries: near, sketch-strategy and far-mix.

    Fresh draws (never sent in the timed window) with an ample
    deadline, so every answer is a full answer of the served index.
    """
    rng = np.random.default_rng([seed, 23])
    near = distinct_gammas(rng, 24, 0.8)
    far = far_mix(rng, points, 8)
    deadline = 60_000.0
    out = [dict(query_body(g, "inflex", deadline), role="near") for g in near]
    out += [dict(query_body(g, "sketch", deadline), role="sketch")
            for g in near[:4]]
    out += [dict(query_body(g, "inflex", deadline), role="far") for g in far]
    return out
