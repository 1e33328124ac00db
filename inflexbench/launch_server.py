"""Start ``repro-inflex serve`` with per-layer spans recorded in memory.

Usage (the traced run of ``run.py`` starts the server this way)::

    INFLEXBENCH_SPANS=spans.json python3 inflexbench/launch_server.py \\
        serve --data DIR --index DIR/index.npz --port 0 ...

Before handing the arguments to ``repro.cli.main`` the launcher wraps
the layers' public functions at the names their callers import them
by (the bb-tree searches, ``importance_weights``, ``select_neighbors``
and ``aggregate_seed_lists`` as ``repro.core.index`` sees them, the
protocol parse/encode functions as ``repro.serving.server`` sees them,
and the methods of ``SketchBank``, ``RRIndex``, ``CachedIndex``,
``MicroBatcher``, ``InflexIndex`` and ``StreamingEngine``).  Spans stay
in memory and are written to ``$INFLEXBENCH_SPANS`` when the server
returns after its SIGTERM drain.  SIGUSR1 forgets what was recorded so
far, so the spans cover only the traffic sent after it.
"""

from __future__ import annotations

import contextvars
import functools
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder  # noqa: E402


def _request_id():
    from repro.obs.context import current_context

    context = current_context()
    return context.request_id if context is not None else None


def _wrap(recorder, owner, attr, name, after=None):
    """Replace ``owner.attr`` by a version that records a span."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name, _request_id()):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer; see the module docstring."""
    import repro.core.index as index_module
    import repro.serving.server as server_module
    from repro.core.cache import CachedIndex
    from repro.im.imm import RRIndex
    from repro.serving.batcher import MicroBatcher
    from repro.serving.protocol import HttpRequest
    from repro.sketches import SketchBank
    from repro.streaming import StreamingEngine

    counts = recorder.counts

    def search_stats(args, kwargs, result):
        stats = result.stats
        counts["bbtree.searches"] += 1
        counts["bbtree.leaves_visited"] += stats.leaves_visited
        counts["bbtree.divergence_computations"] += (
            stats.divergence_computations
        )
        counts["bbtree.nodes_pruned"] += stats.nodes_pruned

    for attr in ("inflex_search", "exact_nearest_neighbors",
                 "leaf_limited_search"):
        _wrap(recorder, index_module, attr, "bbtree.search", search_stats)
    _wrap(recorder, index_module, "importance_weights", "ranking.select")

    def kept(args, kwargs, result):
        counts["ranking.selections"] += 1
        counts["ranking.neighbors_kept"] += int(result)

    _wrap(recorder, index_module, "select_neighbors", "ranking.select", kept)

    def lists_in(args, kwargs, result):
        counts["aggregation.calls"] += 1
        counts["aggregation.lists_in"] += len(args[0])

    _wrap(recorder, index_module, "aggregate_seed_lists",
          "aggregation.aggregate", lists_in)
    _wrap(recorder, SketchBank, "compose_index", "sketches.compose")
    _wrap(recorder, RRIndex, "greedy_select", "sketches.select")
    _wrap(recorder, CachedIndex, "lookup", "cache.lookup")
    _wrap(recorder, CachedIndex, "store", "cache.store")

    original_swap = CachedIndex.swap_index

    def swap_index(self, index):
        counts["cache.invalidations"] += 1
        return original_swap(self, index)

    CachedIndex.swap_index = swap_index

    def applied(args, kwargs, result):
        report = result[0]
        counts["streaming.applies"] += 1
        counts["streaming.rr_sets_resampled"] += report.rr_sets_resampled
        counts["streaming.rr_sets_retained"] += report.rr_sets_retained

    _wrap(recorder, StreamingEngine, "apply", "streaming.apply", applied)

    # Queue wait: an item waits from MicroBatcher.submit until the
    # executor starts the query_batch that carries its gamma (the
    # batcher passes the very list objects it was given).
    pending: dict = {}
    original_submit = MicroBatcher.submit

    def submit(self, item):
        parent = recorder.current.get()
        with recorder.span("batcher.submit", _request_id()):
            original_submit(self, item)
        pending[id(item.gamma)] = (
            item.enqueued_at, parent, item.ctx.request_id
            if item.ctx is not None else None,
        )

    MicroBatcher.submit = submit
    original_query_batch = index_module.InflexIndex.query_batch

    def query_batch(self, gammas, k, **kwargs):
        started = time.monotonic()
        members = [pending.pop(id(gamma), None) for gamma in gammas]
        for member in members:
            if member is not None:
                recorder.add("serving.queue_wait", member[0], started,
                             member[1], member[2])
        with recorder.span("index.query_batch", _request_id()):
            answers = original_query_batch(self, gammas, k, **kwargs)
        finished = time.monotonic()
        counts["index.queries"] += len(answers)
        for answer in answers:
            algorithm = answer.seeds.algorithm
            if algorithm == "sketch":
                counts["sketches.composes_sketch"] += 1
            elif algorithm == "sketch:fallback":
                counts[f"sketches.composes_{answer.reason}"] += 1
        for member in members:
            if member is not None:
                recorder.add("serving.execute", started, finished,
                             member[1], member[2])
        return answers

    index_module.InflexIndex.query_batch = query_batch

    # Protocol: a request span runs from read_request returning the
    # parsed request to encode_response serializing its answer.
    original_read = server_module.read_request
    root = contextvars.ContextVar("inflexbench_request", default=None)

    async def read_request(reader):
        request = await original_read(reader)
        if request is not None:
            recorder.current.set(None)
            opened = recorder.open(
                "serving.request",
                request.headers.get("x-request-id"),
                request.target.split("?", 1)[0],
            )
            root.set(opened)
            recorder.current.set(opened[0])
        return request

    server_module.read_request = read_request
    original_encode = server_module.encode_response

    def encode_response(*args, **kwargs):
        with recorder.span("serving.serialize", _request_id()):
            response = original_encode(*args, **kwargs)
        opened = root.get()
        if opened is not None:
            recorder.close(opened)
            root.set(None)
            recorder.current.set(None)
        return response

    server_module.encode_response = encode_response
    for attr in ("answer_to_dict", "json_body"):
        _wrap(recorder, server_module, attr, "serving.serialize")
    _wrap(recorder, server_module, "parse_query_payload", "serving.parse")
    _wrap(recorder, HttpRequest, "json", "serving.parse")


def main() -> int:
    out = os.environ["INFLEXBENCH_SPANS"]
    recorder = SpanRecorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.reset())
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
