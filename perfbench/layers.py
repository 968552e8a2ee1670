"""Per-layer metrics of a traced pass: span self times, call counts and the
workload-property counters recorded by observers.

The observers look only at the arguments and return values of public
scinfer functions. In particular the identifiability of a triangle fill is
decided by this file's own span check, built from the skeleton's simplex
lists, not by the generator's private helper.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np

from tracer import ndarray_bytes, self_times


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def fill_identifiable(skeleton, w1, w2) -> bool:
    """True when no unfilled eligible triangle has its boundary in the span
    of the filled triangles' boundaries, restricted to the active edges."""
    w1 = np.asarray(w1) != 0
    w2 = np.asarray(w2) != 0
    row = {}
    for idx in np.flatnonzero(w1):
        row[tuple(skeleton.edges[idx])] = len(row)
    filled, spurious = [], []
    for t_idx, (i, j, k) in enumerate(skeleton.triangles):
        rows = (row.get((i, j)), row.get((j, k)), row.get((i, k)))
        if None in rows:
            continue
        (filled if w2[t_idx] else spurious).append(rows)
    if not filled or not spurious:
        return True

    def boundary(triangles):
        mat = np.zeros((len(row), len(triangles)))
        for col, (ij, jk, ik) in enumerate(triangles):
            mat[ij, col] = 1.0
            mat[jk, col] = 1.0
            mat[ik, col] = -1.0
        return mat

    u, sv, _ = np.linalg.svd(boundary(filled), full_matrices=False)
    u = u[:, : int((sv > 1e-10 * sv[0]).sum())]
    probe = boundary(spurious)
    residual = probe - u @ (u.T @ probe)
    return bool((np.linalg.norm(residual, axis=0) > 1e-8).all())


def _observe_skeleton(tracer, args, kwargs, result):
    tracer.event("skeleton_bytes", ndarray_bytes(result))


def _observe_fill(tracer, args, kwargs, result):
    skeleton = _arg(args, kwargs, 0, "skeleton")
    w1 = _arg(args, kwargs, 1, "w1")
    tracer.event("fill_identifiable", fill_identifiable(skeleton, w1, result))


def _observe_instance(tracer, args, kwargs, result):
    truth = result[0]
    digest = hashlib.sha256()
    digest.update(np.asarray(truth.selection.w1, dtype=np.int8).tobytes())
    digest.update(np.asarray(truth.selection.w2, dtype=np.int8).tobytes())
    tracer.event("cell_topology", digest.hexdigest())


def _observe_greedy(tracer, args, kwargs, result):
    tracer.event("greedy", [int(result.iterations_run), bool(result.converged)])


OBSERVERS = {
    "topology.build_skeleton": _observe_skeleton,
    "synth.fill_triangles": _observe_fill,
    "synth.generate_instance": _observe_instance,
    "learner.run_greedy_scl": _observe_greedy,
}

# Event-derived metrics: name -> (event kind, the function that emits it,
# reduction of the event values).
_EVENT_METRICS = {
    "topology.skeleton_bytes": ("skeleton_bytes", "topology.build_skeleton", max),
    "synth.fill_identifiable_share": (
        "fill_identifiable", "synth.fill_triangles", lambda v: sum(v) / len(v)
    ),
    "synth.repeat_topology_share": (
        "cell_topology", "synth.generate_instance", lambda v: (len(v) - len(set(v))) / len(v)
    ),
    "learner.iterations": ("greedy", "learner.run_greedy_scl", lambda v: sum(it for it, _ in v)),
    "learner.converged_share": (
        "greedy", "learner.run_greedy_scl", lambda v: sum(conv for _, conv in v) / len(v)
    ),
}


def layer_metrics(names, chunks, traced, traced_wall, untraced_wall):
    """Value and status of each per-layer metric in ``names``, plus the
    per-function ``{name: [calls, self seconds]}`` totals.

    Status is ``measured``, ``not_called`` (the workload never called the
    function; value 0), ``absent`` (the package no longer has the public
    function; value 0) or ``unmeasured`` (an observer of the function
    failed; value 0). The
    ``trace.*`` metrics compare the traced pass's wall time with the
    median untraced one.
    """
    totals = self_times(chunks)
    events = defaultdict(list)
    errors = {}
    for chunk in chunks:
        for kind, value in chunk["events"]:
            events[kind].append(value)
        errors.update(chunk["errors"])

    values = {
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
    }
    status = dict.fromkeys(values, "measured")
    for name in names:
        if name in values:
            continue
        if name in _EVENT_METRICS:
            kind, fn_name, reduce = _EVENT_METRICS[name]
        else:
            fn_name, field = name.rsplit(".", 1)
        if fn_name not in traced:
            values[name], status[name] = 0.0, "absent"
        elif fn_name in errors:
            values[name], status[name] = 0.0, "unmeasured"
        elif name in _EVENT_METRICS:
            found = events.get(kind)
            values[name] = float(reduce(found)) if found else 0.0
            status[name] = "measured" if found else "not_called"
        elif fn_name in totals:
            calls, self_s = totals[fn_name]
            values[name] = float(calls) if field == "calls" else self_s
            status[name] = "measured"
        else:
            values[name], status[name] = 0.0, "not_called"
    return values, status, totals
