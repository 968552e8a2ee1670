"""One rule for every numeric argument: each public entry refuses a bool,
a string, NaN, an infinity and an out-of-range value with a ValueError
that names the argument, in one of the package's message forms."""

import math
import re

import numpy as np
import pytest

from scinfer.config import SweepSpec
from scinfer.learner import HyperParams, select_edges, select_triangles
from scinfer.sweep import run_sweep
from scinfer.synth import (
    InstanceParams,
    fill_triangles,
    gen_low_curl_edge_signals,
    gen_smooth_node_signals,
    sample_er_selection,
)
from scinfer.topology import MAX_NODES, build_skeleton


def refusals(name, rule, out_of_range, integer=False):
    """``(name, value, message)`` params: a bool, a string, floats that are
    not finite (and for an integer also a fraction), then each value of
    ``out_of_range``. ``rule`` is the message's range text, such as
    ``in [0, 1]`` or ``>= 0 and finite``."""
    kind = "an integer" if integer else "a real number"
    cases = [(True, f"must be {kind}, got bool"), ("1", f"must be {kind}, got str")]
    if integer:
        cases += [(value, "must be an integer, got float") for value in (math.nan, math.inf, 2.5)]
    else:
        out_of_range = [math.nan, math.inf, -math.inf, *out_of_range]
    cases += [(value, f"must be {rule}, got {value}") for value in out_of_range]
    return [
        pytest.param(name, value, f"{name} {message}", id=f"{name}-{value!r}")
        for value, message in cases
    ]


def refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


SCALE = ">= 0 and finite"
UNIT = "in [0, 1]"
WEIGHTS = ("alpha1", "alpha2", "beta1", "beta2", "gamma", "eta")


@pytest.mark.parametrize(
    "name, value, message",
    [case for name in WEIGHTS for case in refusals(name, SCALE, [-1e-9])]
    + refusals("e_min", None, [], integer=True)
    + refusals("t_min", None, [], integer=True),
)
def test_hyperparams(name, value, message):
    refused(lambda: HyperParams(**{name: value}), message)


@pytest.mark.parametrize(
    "name, value, message",
    refusals("n_nodes", f"in [2, {MAX_NODES}]", [1, MAX_NODES + 1], integer=True)
    + refusals("edge_prob", UNIT, [-0.1, 1.5])
    + refusals("fill_fraction", UNIT, [-0.1, 1.5])
    + refusals("n_node_signals", ">= 1", [0], integer=True)
    + refusals("n_edge_signals", ">= 1", [0], integer=True)
    + refusals("curl_atten", SCALE, [-0.1])
    + refusals("node_noise_std", SCALE, [-1])
    + refusals("edge_noise_std", SCALE, [-0.5])
    + refusals("observed_fraction", "in (0, 1]", [0, -0.5, 1.5]),
)
def test_instance_params(name, value, message):
    refused(lambda: InstanceParams(**{name: value}), message)


SKELETON = build_skeleton(5)
W1 = np.ones(SKELETON.n_edges, dtype=np.int8)


@pytest.mark.parametrize("name, value, message", refusals("edge_prob", UNIT, [-0.1, 1.5]))
def test_sample_er_selection(name, value, message):
    args = dict(skeleton=SKELETON, edge_prob=0.5, rng=np.random.default_rng(0))
    refused(lambda: sample_er_selection(**{**args, name: value}), message)


@pytest.mark.parametrize("name, value, message", refusals("fraction", UNIT, [-0.1, 1.5]))
def test_fill_triangles(name, value, message):
    args = dict(skeleton=SKELETON, w1=W1, fraction=0.5, rng=np.random.default_rng(0))
    refused(lambda: fill_triangles(**{**args, name: value}), message)


@pytest.mark.parametrize(
    "name, value, message",
    refusals("n_signals", ">= 1", [0], integer=True) + refusals("noise_std", SCALE, [-1.0]),
)
def test_gen_smooth_node_signals(name, value, message):
    args = dict(skeleton=SKELETON, w1=W1, n_signals=3, noise_std=0.1, rng=np.random.default_rng(0))
    refused(lambda: gen_smooth_node_signals(**{**args, name: value}), message)


@pytest.mark.parametrize(
    "name, value, message",
    refusals("n_signals", ">= 1", [0], integer=True)
    + refusals("curl_atten", SCALE, [-0.1])
    + refusals("noise_std", SCALE, [-1.0]),
)
def test_gen_low_curl_edge_signals(name, value, message):
    args = dict(
        skeleton=SKELETON, w1=W1, w2=np.zeros(SKELETON.n_triangles, dtype=np.int8),
        n_signals=3, curl_atten=0.05, noise_std=0.1, rng=np.random.default_rng(0),
    )
    refused(lambda: gen_low_curl_edge_signals(**{**args, name: value}), message)


@pytest.mark.parametrize(
    "name, value, message",
    refusals("t_min", "in [0, 3]", [-1, 4], integer=True) + refusals("q", SCALE, [-1e-9]),
)
def test_select_triangles(name, value, message):
    args = dict(scores=np.array([1.0, 0.5, 2.0]), t_min=1, q=1e-9)
    refused(lambda: select_triangles(**{**args, name: value}), message)


@pytest.mark.parametrize(
    "name, value, message", refusals("e_min", "in [0, 3]", [-1, 4], integer=True)
)
def test_select_edges(name, value, message):
    args = dict(scores=np.array([1.0, -0.5, 2.0]), observed_edges=[], e_min=1)
    refused(lambda: select_edges(**{**args, name: value}), message)


@pytest.mark.parametrize("name, value, message", refusals("jobs", ">= 1", [0, -2], integer=True))
def test_run_sweep(name, value, message, tmp_path):
    spec = SweepSpec(
        variable="node_noise_std", grid=(0.0,), n_trials=1, base_seed=0, methods=("RC",),
        instance=InstanceParams(n_nodes=5, n_node_signals=3, n_edge_signals=3),
        params=HyperParams(),
    )
    out = tmp_path / "out"
    refused(lambda: run_sweep(spec, out, **{name: value}), message)
    assert not out.exists()
