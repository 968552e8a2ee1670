"""Topology inference for order-2 simplicial complexes.

Learns which edges and filled triangles of the complete complex on N
nodes best explain smooth node signals and partially observed edge
flows, via greedy block-coordinate descent, plus two baselines, a
synthetic data generator, evaluation metrics, and a sweep harness.
"""

from .baselines import run_rc, run_sep_scl
from .config import (
    METHOD_NAMES,
    SWEEP_VARIABLES,
    SweepSpec,
    load_config,
    parse_hyperparams,
    parse_instance,
    parse_sweep,
)
from .evaluation import EvalReport, evaluate
from .learner import (
    HyperParams,
    LearnState,
    bucket_width,
    edge_scores,
    interpolate_edge_signals,
    objective_value,
    run_greedy_scl,
    select_edges,
    select_triangles,
    triangle_scores,
)
from .sweep import run_sweep
from .synth import (
    Dataset,
    GenerationError,
    GroundTruth,
    InstanceParams,
    SignalSet,
    generate_instance,
    read_dataset,
    write_dataset,
)
from .topology import (
    ClosureReport,
    ComplexSkeleton,
    HodgeParts,
    Selection,
    build_skeleton,
    closure_violations,
    complex_from_dict,
    complex_to_dict,
    edge_index,
    hodge_decompose,
    make_selection,
    node_laplacian,
    read_complex_json,
    triangle_index,
    write_complex_json,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureReport",
    "ComplexSkeleton",
    "Dataset",
    "EvalReport",
    "GenerationError",
    "GroundTruth",
    "HodgeParts",
    "HyperParams",
    "InstanceParams",
    "LearnState",
    "METHOD_NAMES",
    "SWEEP_VARIABLES",
    "Selection",
    "SignalSet",
    "SweepSpec",
    "bucket_width",
    "build_skeleton",
    "closure_violations",
    "complex_from_dict",
    "complex_to_dict",
    "edge_index",
    "edge_scores",
    "evaluate",
    "generate_instance",
    "hodge_decompose",
    "interpolate_edge_signals",
    "load_config",
    "make_selection",
    "node_laplacian",
    "objective_value",
    "parse_hyperparams",
    "parse_instance",
    "parse_sweep",
    "read_complex_json",
    "read_dataset",
    "run_greedy_scl",
    "run_rc",
    "run_sep_scl",
    "run_sweep",
    "select_edges",
    "select_triangles",
    "triangle_index",
    "triangle_scores",
    "write_complex_json",
    "write_dataset",
]
