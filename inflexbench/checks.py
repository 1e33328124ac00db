"""Output checks and answer quality, computed in-process after the run.

The served index is rebuilt here from the artifacts the server loaded
(plus, for ``--stream``, a :class:`~repro.streaming.StreamingEngine`
replay of the delta log the server was sent), and the probes are
answered again with the same call the server makes.
"""

from __future__ import annotations

import numpy as np

from workloads import K


def reference_index(setup_dir, deltas=(), stream_sets=None):
    """The index the server holds after ``deltas``, built in-process."""
    from repro.core.persistence import load_index
    from repro.graph.io import load_graph
    from repro.sketches import load_sketches

    graph = load_graph(setup_dir / "data" / "graph.npz")
    index = load_index(setup_dir / "index.npz", graph)
    index.attach_sketches(load_sketches(setup_dir / "index.sketches.npz"))
    if stream_sets is None:
        return index
    from repro.streaming import StreamingEngine

    engine = StreamingEngine(index, num_sets=stream_sets)
    for batch in deltas:
        engine.apply(batch)
    return engine.index


def _as_served(gamma) -> list[float]:
    """The server's normalization of a wire gamma."""
    values = [float(v) for v in gamma]
    total = sum(values)
    return [v / total for v in values]


def compare_probes(index, probes, served) -> dict:
    """Served probe answers against in-process ``query_batch`` answers,
    and the far mix's distance-fallback count against the count its
    min-KL (``InflexIndex.coverage_of``) predicts.

    The near probes' distance fallbacks are counted against the same
    prediction but only reported: the AD-stopped bb-tree search may
    retrieve a nearest point farther than the true one, so a query
    whose true min-KL sits just under the threshold can still fall back.
    """
    mismatches = []
    served_count = {"far": 0, "near": 0}
    predicted_count = {"far": 0, "near": 0}
    threshold = index.sketches.config.fallback_divergence
    for probe, payload in zip(probes, served):
        gamma = _as_served(probe["gamma"])
        answer = index.query_batch([gamma], K, strategy=probe["strategy"])[0]
        expected = {
            "seeds": list(answer.seeds.nodes),
            "algorithm": answer.seeds.algorithm,
            "reason": answer.reason,
        }
        got = {key: payload.get(key) for key in expected}
        if got != expected:
            mismatches.append({"probe": probe["role"], "served": got,
                               "expected": expected})
        if probe["role"] in served_count:
            served_count[probe["role"]] += payload.get("reason") == "distance"
            predicted_count[probe["role"]] += int(
                index.coverage_of(gamma) > threshold
            )
    return {
        "probes": len(probes),
        "mismatches": mismatches,
        "distance_served": served_count["far"],
        "distance_predicted": predicted_count["far"],
        "near_distance_served": served_count["near"],
        "near_distance_predicted": predicted_count["near"],
    }


def spread_ratio(index, probes, served, seed: int, num_sets: int) -> float:
    """Mean spread of served answers over a high-budget RR referee's.

    Both seed sets are scored on the same ``num_sets`` RR sets sampled
    for the probe's gamma on the served graph; the referee's seeds are
    the lazy-greedy optimum of those sets.
    """
    from repro.im.imm import sample_rr_index

    ratios = []
    for number, (probe, payload) in enumerate(zip(probes, served)):
        if probe["role"] != "near":
            continue
        rr = sample_rr_index(
            index.graph, _as_served(probe["gamma"]), num_sets,
            workers=1, seed=seed * 1000 + number,
        )
        referee, _ = rr.greedy_select(K)
        ratios.append(rr.spread_of(payload["seeds"]) / rr.spread_of(referee))
    return float(np.mean(ratios))
