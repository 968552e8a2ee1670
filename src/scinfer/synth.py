"""Synthetic ground-truth complexes and signals.

Instances follow one protocol: an Erdos-Renyi edge set resampled until
connected, a uniformly chosen subset of the eligible triangles filled,
node signals drawn from the inverse spectrum of the true graph
Laplacian, edge flows drawn white and then curl-attenuated against the
true filled triangles, and a uniform subset of active edges marked as
observed. All randomness flows through a caller-supplied Generator, so
a seed pins every byte of the output.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from .topology import (
    MAX_NODES,
    ComplexSkeleton,
    Selection,
    _active_indices,
    _closed_indices,
    _project,
    _rank_mask,
    _require_int,
    _require_real,
    _row_energy,
    b2_block,
    build_skeleton,
    check_observed_edges,
    complex_to_dict,
    json_text,
    make_selection,
    missing_edges,
    node_laplacian,
    read_complex_json,
    read_json,
    write_json,
    write_text,
)

__all__ = [
    "GenerationError",
    "GroundTruth",
    "Fill",
    "SignalSet",
    "InstanceParams",
    "sample_er_selection",
    "fill_triangles",
    "gen_smooth_node_signals",
    "gen_low_curl_edge_signals",
    "sample_observed_edges",
    "generate_instance",
    "write_dataset",
    "read_dataset",
    "write_matrix_npy",
    "read_matrix_npy",
]

_MAX_ER_ATTEMPTS = 1000
_MAX_FILL_DRAWS = 200


class GenerationError(RuntimeError):
    """Raised when instance generation cannot satisfy its constraints."""


@dataclass(frozen=True)
class GroundTruth:
    """A generated or read-back complex and its meta.json document, which
    ``generate_instance`` builds once: the ``InstanceParams`` fields,
    ``seed``, ``fill_draws`` and ``fill_identifiable`` (see ``Fill``)."""

    skeleton: ComplexSkeleton
    selection: Selection
    meta: dict


@dataclass(frozen=True)
class Fill:
    """Result of ``fill_triangles``: the triangle indicator ``w2``, the
    number of uniform draws made (0 when nothing is filled) and whether
    the kept draw passed the span test; False means every one of the
    200 draws failed and the last was kept.

    ``np.asarray(fill)`` is ``w2``, so code that reads the fill as an
    indicator (perfbench's fill observer does) reads it unchanged.
    """

    w2: np.ndarray
    draws: int
    identifiable: bool

    def __array__(self, dtype=None, copy=None):
        # NumPy 1.x never passes ``copy`` and refuses ``copy=None``.
        return np.array(self.w2, dtype=dtype) if copy else np.asarray(self.w2, dtype=dtype)


@dataclass(frozen=True)
class SignalSet:
    """Signals attached to a ground-truth instance.

    ``x1_obs`` holds the noisy flows on ``observed_edges``, rows ordered
    by ascending candidate index.
    """

    x0: np.ndarray
    x1_obs: np.ndarray
    observed_edges: np.ndarray


@dataclass(frozen=True)
class InstanceParams:
    """Knobs of the generation protocol. The counts must be integers (a
    float is refused, not truncated) and the rest finite real numbers;
    a bool is refused everywhere. Fields are checked in the order below."""

    n_nodes: int = 20
    edge_prob: float = 0.4
    fill_fraction: float = 0.5
    n_node_signals: int = 100
    n_edge_signals: int = 100
    curl_atten: float = 0.05
    node_noise_std: float = 0.0
    edge_noise_std: float = 0.0
    observed_fraction: float = 0.8

    def __post_init__(self):
        _require_int("n_nodes", self.n_nodes, 2, MAX_NODES)
        for name in ("edge_prob", "fill_fraction"):
            _require_real(name, getattr(self, name), 0, 1)
        for name in ("n_node_signals", "n_edge_signals"):
            _require_int(name, getattr(self, name), 1)
        for name in ("curl_atten", "node_noise_std", "edge_noise_std"):
            _require_real(name, getattr(self, name))
        _require_real("observed_fraction", self.observed_fraction, 0, 1, open_lo=True)


def sample_er_selection(
    skeleton: ComplexSkeleton, edge_prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli edge indicators, resampled until the graph is connected.

    Raises GenerationError after 1000 failed attempts.
    """
    _require_real("edge_prob", edge_prob, 0, 1)
    for _ in range(_MAX_ER_ATTEMPTS):
        w1 = (rng.random(skeleton.n_edges) < edge_prob).astype(np.int8)
        if _connected(skeleton, w1):
            return w1
    raise GenerationError(
        f"no connected graph on {skeleton.n_nodes} nodes with edge_prob={edge_prob} "
        f"after {_MAX_ER_ATTEMPTS} attempts"
    )


def _connected(skeleton: ComplexSkeleton, w1: np.ndarray) -> bool:
    """Whether the active graph is connected: ``_rank_mask`` keeps all but
    one eigenvalue of its node Laplacian. Exact for every n <= MAX_NODES:
    a connected graph has lambda_2 >= 2 - 2 cos(pi / n) (Fiedler 1973),
    6.2e-3 at n = 40, and the cutoff is at most 1e-10 * 2 (n - 1), 7.8e-9."""
    lam = np.linalg.eigvalsh(node_laplacian(skeleton, w1))
    return np.count_nonzero(_rank_mask(lam)) == skeleton.n_nodes - 1


def fill_triangles(
    skeleton: ComplexSkeleton,
    w1,
    fraction: float,
    rng: np.random.Generator,
) -> Fill:
    """Activate a uniform subset of the triangles supported by ``w1``.

    Exactly ``floor(fraction * n_eligible)`` triangles are filled, so
    the output is downward closed by construction. Among uniform draws,
    the first one whose unfilled eligible triangles are all circulation-
    independent of the filled set is kept: an unfilled triangle whose
    boundary lies in the span of the filled boundaries is invisible to
    any low-curl flow, so such fills are unidentifiable from edge data.

    The boundaries of the eligible triangles on the active edges are
    built once per call. A draw's span test projects the unfilled
    boundaries onto the range of the filled ones (``_project``); an
    unfilled boundary, of squared norm 3, fails when ``_rank_mask`` finds
    its squared residual zero.

    If no independent fill shows up within 200 draws, the final draw is
    kept and the returned ``Fill`` says so; dense graphs may admit none.
    Measured on the shipped configs, a draw passed for 9 of the 20
    noise-sweep trials and 10 of the 20 observed-fraction trials
    (n = 20, edge_prob = 0.4), and for none of six n = 40 instances
    (seeds 5000-5005).
    """
    _require_real("fraction", fraction, 0, 1)
    w1, active_e = _active_indices(w1, skeleton.n_edges, "w1")
    eligible = np.flatnonzero(missing_edges(skeleton, w1) == 0)
    count = math.floor(fraction * eligible.size)
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    if count == 0:
        return Fill(w2, 0, True)
    boundary = b2_block(skeleton, active_e, eligible)
    for draws in range(1, _MAX_FILL_DRAWS + 1):
        chosen = rng.choice(eligible, size=count, replace=False)
        w2[:] = 0
        w2[chosen] = 1
        filled = w2[eligible] == 1
        probe = boundary[:, ~filled]
        residual = probe - _project(boundary[:, filled], probe)
        identifiable = bool(_rank_mask(_row_energy(residual.T), 3.0).all())
        if identifiable:
            break
    return Fill(w2, draws, identifiable)


def gen_smooth_node_signals(
    skeleton: ComplexSkeleton,
    w1,
    n_signals: int,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Low-frequency node signals on the active graph.

    Gaussian coefficients are shaped by the inverse nonzero spectrum of
    the graph Laplacian (filter 1/lambda on the eigenvalues ``_rank_mask``
    keeps, zero on the rest, which span the constants on each connected
    component), each column is normalized to unit energy, then white
    noise of the given standard deviation is added entrywise.
    """
    _require_int("n_signals", n_signals, 1)
    _require_real("noise_std", noise_std)
    lam, basis = np.linalg.eigh(node_laplacian(skeleton, w1))
    filt = np.divide(1.0, lam, out=np.zeros_like(lam), where=_rank_mask(lam))
    coeff = np.sqrt(filt)[:, None] * rng.standard_normal((skeleton.n_nodes, n_signals))
    x0 = basis @ coeff
    x0 = _normalize_columns(x0)
    x0 += noise_std * rng.standard_normal(x0.shape)
    return x0


def gen_low_curl_edge_signals(
    skeleton: ComplexSkeleton,
    w1,
    w2,
    n_signals: int,
    curl_atten: float,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Edge flows whose curl against the true triangles is attenuated.

    White flows on the active edges are split along the curl subspace of
    the true filled triangles; the curl component is scaled by
    ``curl_atten`` and the flow reassembled, normalized per column, and
    embedded into the candidate-edge axis (zeros on inactive edges).
    Noise is then added on active edges only.

    Returns the noisy flows, of shape (n_candidate_edges, n_signals).
    """
    _require_int("n_signals", n_signals, 1)
    _require_real("curl_atten", curl_atten)
    _require_real("noise_std", noise_std)
    active_e, active_t = _closed_indices(skeleton, w1, w2)

    white = rng.standard_normal((active_e.size, n_signals))
    curl = _project(b2_block(skeleton, active_e, active_t), white)
    flows = white - (1.0 - curl_atten) * curl
    flows = _normalize_columns(flows)

    x1 = np.zeros((skeleton.n_edges, n_signals))
    x1[active_e] = flows + noise_std * rng.standard_normal((active_e.size, n_signals))
    return x1


def sample_observed_edges(
    skeleton: ComplexSkeleton, w1, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniform subset of the active edges, ``ceil(fraction * |E|)`` of them, sorted."""
    _require_real("fraction", fraction, 0, 1, open_lo=True)
    _, active = _active_indices(w1, skeleton.n_edges, "w1")
    if active.size == 0:
        raise ValueError("w1 has no active edges to observe")
    count = math.ceil(fraction * active.size)
    chosen = rng.choice(active, size=count, replace=False)
    return np.sort(chosen).astype(np.int64)


def _normalize_columns(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=0, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return x / norms


def generate_instance(
    params: InstanceParams, seed: int
) -> tuple[GroundTruth, SignalSet]:
    """Run the full generation protocol for one seed, a nonnegative integer.

    ``truth.meta`` is the meta.json document. json encodes Python ints
    and floats only, so an integral field of ``params`` is kept as
    ``int(v)`` and any other real the fields accept (a numpy scalar, a
    Fraction) as ``float(v)``."""
    _require_int("seed", seed, 0)
    skeleton = build_skeleton(params.n_nodes)
    rng = np.random.default_rng(seed)
    w1 = sample_er_selection(skeleton, params.edge_prob, rng)
    fill = fill_triangles(skeleton, w1, params.fill_fraction, rng)
    x0 = gen_smooth_node_signals(
        skeleton, w1, params.n_node_signals, params.node_noise_std, rng
    )
    x1_noisy = gen_low_curl_edge_signals(
        skeleton,
        w1,
        fill.w2,
        params.n_edge_signals,
        params.curl_atten,
        params.edge_noise_std,
        rng,
    )
    observed = sample_observed_edges(skeleton, w1, params.observed_fraction, rng)
    meta = {
        k: int(v) if isinstance(v, numbers.Integral) else float(v)
        for k, v in asdict(params).items()
    }
    meta.update(seed=int(seed), fill_draws=fill.draws, fill_identifiable=fill.identifiable)
    truth = GroundTruth(skeleton, make_selection(skeleton, w1, fill.w2), meta)
    return truth, SignalSet(x0=x0, x1_obs=x1_noisy[observed], observed_edges=observed)


# ---------------------------------------------------------------------------
# dataset bundles on disk


def write_matrix_npy(path, arr) -> None:
    """Write an array as a C-ordered ``.npy`` file in its own dtype; it
    reads back bit-exact."""
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(arr), allow_pickle=False)


def read_matrix_npy(path, dtype, ndim: int) -> np.ndarray:
    """Read a non-empty, finite ``ndim``-D array of ``dtype`` from a
    ``.npy`` file.

    Only the ``.npy`` format is parsed (no ``.npz`` archive, no pickle),
    and every refusal is a ValueError naming the file. NumPy's parser
    raises more than ValueError on malformed bytes (a header it cannot
    tokenize gives ``tokenize.TokenError``), so any of its errors is
    turned into one.
    """
    with open(path, "rb") as fh:
        try:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
        except Exception as exc:
            raise ValueError(f"{path}: not a readable .npy matrix: {exc}") from exc
    if arr.ndim != ndim or arr.dtype != dtype:
        raise ValueError(
            f"{path}: expected a {ndim}-D {np.dtype(dtype)} matrix, got {arr.ndim}-D {arr.dtype}"
        )
    if arr.size == 0:
        raise ValueError(f"{path}: empty matrix {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite values (nan or inf)")
    return np.ascontiguousarray(arr)


def write_dataset(out_dir, truth: GroundTruth, signals: SignalSet) -> None:
    """Write the on-disk bundle: complex.json, x0.npy, x1_obs.npy,
    observed_edges.npy (1-D int64), and ``truth.meta`` as meta.json, as
    given: it is not checked against the complex.

    ``meta.json`` is encoded before anything is written, so a document
    that cannot be written leaves no partial bundle."""
    complex_doc = complex_to_dict(truth.skeleton, truth.selection)
    meta_text = json_text(truth.meta)
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "complex.json"), complex_doc)
    write_matrix_npy(os.path.join(out_dir, "x0.npy"), signals.x0)
    write_matrix_npy(os.path.join(out_dir, "x1_obs.npy"), signals.x1_obs)
    write_matrix_npy(os.path.join(out_dir, "observed_edges.npy"), signals.observed_edges)
    write_text(os.path.join(out_dir, "meta.json"), meta_text)


def read_dataset(in_dir) -> tuple[GroundTruth, SignalSet]:
    """Read a bundle back as the pair ``generate_instance`` returns; raises
    FileNotFoundError naming the missing piece, and ValueError naming the
    faulty file or an existing ``in_dir`` that is not a directory."""
    if os.path.exists(in_dir) and not os.path.isdir(in_dir):
        raise ValueError(f"{in_dir}: not a dataset bundle directory")
    paths = {
        name: os.path.join(in_dir, name)
        for name in ("complex.json", "x0.npy", "x1_obs.npy", "observed_edges.npy", "meta.json")
    }
    for name, path in paths.items():
        if not os.path.exists(path):
            raise FileNotFoundError(path)
    skeleton, selection = read_complex_json(paths["complex.json"])
    x0 = read_matrix_npy(paths["x0.npy"], np.float64, 2)
    x1_obs = read_matrix_npy(paths["x1_obs.npy"], np.float64, 2)
    observed = read_matrix_npy(paths["observed_edges.npy"], np.int64, 1)
    try:
        observed = check_observed_edges(skeleton.n_edges, observed)
    except ValueError as exc:
        raise ValueError(f"{paths['observed_edges.npy']}: {exc}") from exc
    for name, arr, rows, what in (
        ("x0.npy", x0, skeleton.n_nodes, "nodes are in the complex"),
        ("x1_obs.npy", x1_obs, observed.size, "edges are observed"),
    ):
        if arr.shape[0] != rows:
            raise ValueError(f"{paths[name]}: {arr.shape[0]} rows but {rows} {what}")
    meta = read_json(paths["meta.json"])
    if not isinstance(meta, dict):
        raise ValueError(f"{paths['meta.json']}: meta.json must be a JSON object")
    return GroundTruth(skeleton, selection, meta), SignalSet(x0, x1_obs, observed)
