"""One offline build: dataset, INFLEX index, sketch bank, save/load.

Run as a child process of ``run.py`` (so its peak memory is its own)::

    python3 inflexbench/buildjob.py --out DIR --shape '{...}' --seed N

It writes ``DIR/data/graph.npz``, ``DIR/data/catalog.npy``,
``DIR/index.npz`` and ``DIR/index.sketches.npz`` (the colocated bank
that ``repro-inflex serve`` attaches) and prints one JSON line of
timings.  ``--trace 1`` also times the build's inner layers, wrapped
at the names ``repro.core.index`` calls them by, and counts the IMM RR
sets through the ``repro_imm_rr_sets_sampled_total`` counter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _timed(store: dict, key: str, fn, after=None):
    """``fn`` wrapped to add its wall time to ``store[key]``."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        store[key] = store.get(key, 0.0) + time.perf_counter() - start
        if after is not None:
            after(result)
        return result

    return wrapper


def install_layer_timers(layers: dict) -> None:
    """Time the build's inner stages where the index builder calls them."""
    import repro.core.index as index_module
    from repro.simplex.dirichlet import Dirichlet

    def note_iterations(result) -> None:
        layers["clustering.iterations"] = layers.get(
            "clustering.iterations", 0
        ) + int(result.iterations)

    for name, key, after in (
        ("fit_dirichlet_mle", "simplex.dirichlet_fit_s", None),
        ("bregman_kmeans", "clustering.kmeans_s", note_iterations),
        ("offline_seed_lists_batch", "im.seed_lists_s", None),
        ("BBTree", "bbtree.tree_build_s", None),
    ):
        setattr(
            index_module, name,
            _timed(layers, key, getattr(index_module, name), after),
        )
    Dirichlet.sample = _timed(layers, "simplex.sample_s", Dirichlet.sample)


def rr_sets_sampled() -> float:
    """Sum of the IMM RR-set counter over its phases."""
    from repro.obs.metrics import get_registry

    total = 0.0
    for line in get_registry().to_prometheus().splitlines():
        if line.startswith("repro_imm_rr_sets_sampled_total"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def fingerprint(index, *, points: bool = True) -> str:
    """Digest of the index points and every seed list, for bit identity."""
    import numpy as np

    digest = hashlib.sha256(index.index_points.tobytes() if points else b"")
    for seed_list in index.seed_lists:
        digest.update(np.asarray(seed_list.nodes, dtype=np.int64).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--shape", required=True, help="JSON shape dict")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    shape = json.loads(args.shape)

    import numpy as np

    from repro.core import InflexConfig, InflexIndex, SketchConfig
    from repro.core.persistence import load_index, save_index
    from repro.datasets.flixster import generate_flixster_like
    from repro.graph.io import load_graph, save_graph
    from repro.sketches import SketchBank, load_sketches, save_sketches

    layers: dict = {}
    if args.trace:
        from repro import obs

        obs.enable()
        install_layer_timers(layers)
    out = Path(args.out)
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    index_path = out / "index.npz"
    bank_path = out / "index.sketches.npz"

    start = time.perf_counter()
    data = generate_flixster_like(
        num_nodes=shape["nodes"],
        num_topics=shape["topics"],
        num_items=shape["items"],
        seed=args.seed,
    )
    save_graph(data.graph, data_dir / "graph.npz")
    np.save(data_dir / "catalog.npy", data.item_topics)
    gen_s = time.perf_counter() - start

    config = InflexConfig(
        num_index_points=shape["index_points"],
        num_dirichlet_samples=shape["samples"],
        seed_list_length=shape["seed_list_length"],
        im_engine="imm",
        imm_epsilon=shape["epsilon"],
        workers=1,
        seed=args.seed,
    )
    sketch_config = SketchConfig(
        num_sets=shape["sketch_sets"],
        fallback_divergence=shape["fallback"],
        seed=args.seed,
    )
    start = time.perf_counter()
    index = InflexIndex.build(data.graph, data.item_topics, config)
    index_s = time.perf_counter() - start
    bank = SketchBank.build(data.graph, sketch_config, workers=1)
    bank_s = time.perf_counter() - start - index_s
    save_start = time.perf_counter()
    save_index(index, index_path)
    save_sketches(bank, bank_path)
    save_s = time.perf_counter() - save_start
    load_start = time.perf_counter()
    loaded = load_index(index_path, load_graph(data_dir / "graph.npz"))
    loaded.attach_sketches(load_sketches(bank_path))
    load_s = time.perf_counter() - load_start
    build_s = time.perf_counter() - start

    # load_index renormalizes the points, which may move them by an ulp;
    # the seed lists must survive the round trip exactly.
    drift = float(np.abs(loaded.index_points - index.index_points).max())
    if drift > 1e-12 or (
        fingerprint(loaded, points=False) != fingerprint(index, points=False)
    ):
        print("save/load round trip changed the index", file=sys.stderr)
        return 1
    layers.update(
        {
            "sketches.bank_build_s": bank_s,
            "persistence.save_s": save_s,
            "persistence.load_s": load_s,
            "persistence.artifact_mb": (
                index_path.stat().st_size + bank_path.stat().st_size
            ) / 1e6,
        }
    )
    if args.trace:
        layers["im.rr_sets_sampled"] = rr_sets_sampled()
    print(
        json.dumps(
            {
                "gen_s": gen_s,
                "build_s": build_s,
                "index_build_s": index_s,
                "fingerprint": fingerprint(index),
                "roundtrip_point_drift": drift,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss / 1024.0,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
