"""The skeleton layout boundary: only ``topology`` reads the vertex-tuple
views, and the generate/learn/eval pipeline never builds them."""

import ast
from pathlib import Path

import numpy as np

import scinfer
from scinfer.baselines import METHODS
from scinfer.config import resolve_budgets
from scinfer.evaluation import evaluate
from scinfer.learner import HyperParams
from scinfer.synth import InstanceParams, generate_instance, read_dataset, write_dataset
from scinfer.topology import complex_from_dict, complex_to_dict

_VIEWS = ("edges", "triangles")


def test_no_module_outside_topology_reads_the_tuple_views():
    reads = []
    for path in sorted(Path(scinfer.__file__).parent.glob("*.py")):
        if path.name == "topology.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _VIEWS:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []


def test_pipeline_builds_no_tuple_view(tmp_path):
    params = InstanceParams(n_nodes=12, n_node_signals=30, n_edge_signals=30)
    truth, signals = generate_instance(params, seed=3)
    write_dataset(tmp_path, truth, signals, params)
    ds = read_dataset(tmp_path)
    hp = resolve_budgets(HyperParams(max_iters=10), ds.truth)
    for run in METHODS.values():
        state = run(ds.skeleton, ds.x0, ds.x1_obs, ds.observed_edges, hp)
        evaluate(ds.skeleton, state.selection, ds.truth)
        skeleton, selection = complex_from_dict(complex_to_dict(ds.skeleton, state.selection))
        np.testing.assert_array_equal(selection.w1, state.selection.w1)
        np.testing.assert_array_equal(selection.w2, state.selection.w2)
        assert not set(_VIEWS) & set(vars(skeleton))
    for sk in (truth.skeleton, ds.skeleton):
        assert not set(_VIEWS) & set(vars(sk))
