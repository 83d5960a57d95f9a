"""Span recording around the public calls of each dynspan layer.

A ``Tracer`` is attached to one live ``DynamicLightSpanner``: it replaces the
listed public methods of the structure's own instances (hierarchy, both
candidate pools, the point space) with wrappers that record a span per call,
and swaps the scipy Dijkstra used by the fast path for a wrapped one.
``detach`` restores everything, so a traced structure can be verified by the
oracles without tracing their calls.

Self time of a span is its duration minus the time its child spans cover.
It is accumulated as spans close, so the per-layer self times add up to the
duration of the root spans (the ``insert``/``delete`` calls).

``MetricSpace.distance`` is called far too often for one record per call;
its calls are timed and charged to the enclosing span like any child, but
they are written out as one aggregate record per enclosing span.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from dynspan import light_spanner as light_spanner_module


class Tracer:
    def __init__(self):
        self.update = -1  # id of the update in progress, set by the caller
        # (span id, parent id, update id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        # parent span id -> [distance calls, ns] charged under it
        self.distance_by_parent: dict[int, list[int]] = {}
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        # result sizes summed per span name (pairs, ids, changes returned)
        self.returned: Counter = Counter()
        self._open: list[int] = []  # ids of the spans currently open
        self._child_ns: list[int] = []  # child time covered, per open span
        self._patched: list[tuple[object, str]] = []
        self._dijkstra = None

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, size=None):
        spans, opened, child_ns = self.spans, self._open, self._child_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = opened[-1] if opened else -1
            spans.append(None)  # reserve the id; filled in on close
            opened.append(sid)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                covered = child_ns.pop()
                duration = end - start
                self.self_ns[name] += duration - covered
                self.calls[name] += 1
                if child_ns:
                    child_ns[-1] += duration
                spans[sid] = (sid, parent, self.update, name, start, end)
            if size is not None:
                self.returned[name] += size(result)
            return result

        return wrapper

    def _distance(self, fn):
        opened, child_ns, by_parent = self._open, self._child_ns, self.distance_by_parent
        clock = time.perf_counter_ns

        def distance(u, v):
            start = clock()
            d = fn(u, v)
            duration = clock() - start
            if opened:
                child_ns[-1] += duration
                slot = by_parent.setdefault(opened[-1], [0, 0])
                slot[0] += 1
                slot[1] += duration
            self.self_ns["metric.distance"] += duration
            self.calls["metric.distance"] += 1
            return d

        return distance

    def _patch(self, obj, attr: str, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patched.append((obj, attr))

    # -- attaching -----------------------------------------------------------

    def attach(self, structure) -> None:
        """Wrap the public calls of every layer of one live structure."""
        hier = structure.hierarchy
        self._patch(structure, "insert", self._span("light_spanner.insert", structure.insert))
        self._patch(structure, "delete", self._span("light_spanner.delete", structure.delete))
        self._patch(hier, "insert", self._span("net_tree.insert", hier.insert, len))
        self._patch(hier, "delete", self._span("net_tree.delete", hier.delete, len))
        self._patch(hier, "ball", self._span("net_tree.ball", hier.ball, len))
        for label, pool in (("base", structure.base), ("dense", structure.dense)):
            self._patch(
                pool,
                "sync",
                self._span(f"net_spanner.{label}.sync", pool.sync, lambda r: len(r[0]) + len(r[1])),
            )
            self._patch(
                pool,
                "edges_at_scale_in_ball",
                self._span(f"net_spanner.{label}.edges_in_ball", pool.edges_at_scale_in_ball, len),
            )
        self._patch(structure.space, "distance", self._distance(structure.space.distance))
        self._dijkstra = light_spanner_module.sparse_dijkstra
        light_spanner_module.sparse_dijkstra = self._span(
            "light_spanner.sketch_dijkstra", self._dijkstra
        )

    def detach(self) -> None:
        """Remove every wrapper; the instances fall back to their class methods."""
        for obj, attr in reversed(self._patched):
            delattr(obj, attr)
        self._patched.clear()
        if self._dijkstra is not None:
            light_spanner_module.sparse_dijkstra = self._dijkstra
            self._dijkstra = None

    # -- results ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON object per line: every span, then the distance aggregates."""
        with open(path, "w") as fh:
            for sid, parent, update, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "update": update,
                         "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
            for parent, (calls, ns) in sorted(self.distance_by_parent.items()):
                fh.write(
                    json.dumps(
                        {"name": "metric.distance", "parent": parent,
                         "update": self.spans[parent][2], "calls": calls, "total_ns": ns}
                    )
                    + "\n"
                )
