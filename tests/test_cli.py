"""Config parsing, CLI subcommands, and the sweep harness."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import scinfer.cli
import scinfer.sweep
import scinfer.topology
from scinfer.cli import build_parser, main
from scinfer.config import (
    METHOD_NAMES,
    SweepSpec,
    load_config,
    parse_hyperparams,
    parse_instance,
    parse_sweep,
)
from scinfer.learner import HyperParams
from scinfer.sweep import CSV_COLUMNS, _fmt_cell, run_sweep
from scinfer.svgplot import line_plot_svg
from scinfer.synth import InstanceParams, generate_instance, write_dataset
from scinfer.topology import MAX_NODES


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


TINY_INSTANCE = """
[instance]
n_nodes = 7
edge_prob = 0.6
fill_fraction = 0.5
n_node_signals = 40
n_edge_signals = 40
observed_fraction = 1.0
seed = 11
"""

TINY_SWEEP = """
[sweep]
variable = node_noise_std
grid = 0, 0.1
trials = 2
base_seed = 5
methods = GreedySCL, RC

[instance]
n_nodes = 7
edge_prob = 0.5
n_node_signals = 25
n_edge_signals = 25

[params]
t_min = auto
"""


class TestConfig:
    def test_instance_section(self, tmp_path):
        cfg = write(tmp_path / "a.ini", TINY_INSTANCE)
        instance, seed = parse_instance(load_config(cfg))
        assert instance.n_nodes == 7
        assert instance.edge_prob == 0.6
        assert instance.observed_fraction == 1.0
        assert seed == 11

    def test_missing_sections_give_defaults(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[instance]\nn_nodes = 5\n")
        params = parse_hyperparams(load_config(cfg))
        assert params.gamma == 10.0
        assert params.e_min is None

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[instanec]\nn_nodes = 5\n")
        with pytest.raises(ValueError, match=r"unknown config section \[instanec\]"):
            load_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[instance]\nn_node = 5\n")
        with pytest.raises(ValueError, match="unknown key 'n_node'"):
            parse_instance(load_config(cfg))

    def test_pinv_tol_is_not_a_key(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[params]\npinv_tol = 1e-8\n")
        with pytest.raises(ValueError, match=r"unknown key 'pinv_tol' in \[params\]"):
            parse_hyperparams(load_config(cfg))

    def test_bad_value_names_key(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[instance]\nn_nodes = five\n")
        with pytest.raises(ValueError, match="'n_nodes'"):
            parse_instance(load_config(cfg))

    def test_budget_auto_and_int(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[params]\ne_min = auto\nt_min = 4\n")
        params = parse_hyperparams(load_config(cfg))
        assert params.e_min is None
        assert params.t_min == 4

    @pytest.mark.parametrize("key", ["strict_lemma_mode", "prune_closure", "max_iters"])
    def test_removed_switches_are_not_keys(self, tmp_path, key):
        cfg = write(tmp_path / "a.ini", f"[params]\n{key} = true\n")
        with pytest.raises(ValueError, match=rf"unknown key '{key}' in \[params\]"):
            parse_hyperparams(load_config(cfg))

    def test_params_bool(self, tmp_path):
        """No key takes a bool: a bool literal is refused, not read as 1."""
        for key, kind in (("e_min", "int"), ("gamma", "float")):
            cfg = write(tmp_path / "a.ini", f"[params]\n{key} = true\n")
            with pytest.raises(ValueError, match=f"'{key}': cannot parse 'true' as {kind}"):
                parse_hyperparams(load_config(cfg))

    def test_sweep_spec(self, tmp_path):
        cfg = write(tmp_path / "a.ini", TINY_SWEEP)
        spec = parse_sweep(load_config(cfg))
        assert spec.variable == "node_noise_std"
        assert spec.grid == (0.0, 0.1)
        assert spec.n_trials == 2
        assert spec.base_seed == 5
        assert spec.methods == ("GreedySCL", "RC")
        assert spec.instance.n_nodes == 7
        assert spec.params.t_min is None

    def test_sweep_method_names_canonicalized(self, tmp_path):
        cfg = write(
            tmp_path / "a.ini",
            "[sweep]\nvariable = observed_fraction\ngrid = 0.5\nmethods = greedyscl, sepSCL\n",
        )
        spec = parse_sweep(load_config(cfg))
        assert spec.methods == ("GreedySCL", "SepSCL")

    @pytest.mark.parametrize("methods", ["RC, rc", "GreedySCL, RC, greedyscl", "SepSCL, SepSCL"])
    def test_sweep_repeated_method(self, tmp_path, methods):
        """A method listed twice, in any spelling, is refused: run twice,
        its copies would be pooled into one series with shrunken whiskers."""
        cfg = write(
            tmp_path / "a.ini",
            f"[sweep]\nvariable = observed_fraction\ngrid = 0.5\nmethods = {methods}\n",
        )
        with pytest.raises(ValueError, match=r"^method '\w+' is listed more than once$"):
            parse_sweep(load_config(cfg))

    def test_sweep_unknown_method(self, tmp_path):
        cfg = write(
            tmp_path / "a.ini",
            "[sweep]\nvariable = observed_fraction\ngrid = 0.5\nmethods = Magic\n",
        )
        message = f"unknown method 'Magic', expected one of {METHOD_NAMES}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep(load_config(cfg))

    @pytest.mark.parametrize("field, name", [("n_trials", "trials"), ("base_seed", "base_seed")])
    @pytest.mark.parametrize(
        "value, kind", [(2.0, "float"), (0.5, "float"), (True, "bool"), (np.float64(1.0), "float64")],
        ids=["float", "fraction", "bool", "np-float"],
    )
    def test_sweep_counts_must_be_integers(self, field, name, value, kind):
        """A float trial count or seed is refused, not run or turned into error rows."""
        spec = dict(
            variable="node_noise_std", grid=(0.0,), n_trials=1, base_seed=0, methods=("RC",),
            instance=InstanceParams(n_nodes=5), params=HyperParams(),
        )
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {kind}$"):
            SweepSpec(**{**spec, field: value})
        assert getattr(SweepSpec(**{**spec, field: np.int64(2)}), field) == 2

    def test_sweep_bad_variable(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[sweep]\nvariable = fill_fraction\ngrid = 0.5\n")
        with pytest.raises(ValueError, match="sweep variable"):
            parse_sweep(load_config(cfg))

    def test_sweep_grid_must_increase(self, tmp_path):
        cfg = write(
            tmp_path / "a.ini", "[sweep]\nvariable = node_noise_std\ngrid = 0.2, 0.1\n"
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_sweep(load_config(cfg))

    def test_sweep_requires_section(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[instance]\nn_nodes = 5\n")
        with pytest.raises(ValueError, match=r"no \[sweep\] section"):
            parse_sweep(load_config(cfg))

    @pytest.mark.parametrize(
        "section, field",
        [("instance", f) for f in dataclasses.fields(InstanceParams)]
        + [("params", f) for f in dataclasses.fields(HyperParams)],
        ids=lambda v: v if isinstance(v, str) else v.name,
    )
    def test_every_field_is_a_key(self, tmp_path, section, field):
        default = field.default
        if default is None:
            value, text = 3, "3"
        else:
            # A float field moves to a third of its default plus 0.1: a new
            # value for every field that keeps probabilities and fractions
            # inside [0, 1].
            value = default + 1 if isinstance(default, int) else default / 3 + 0.1
            text = repr(value)
        parse = {"instance": lambda p: parse_instance(p)[0], "params": parse_hyperparams}[section]
        cfg = write(tmp_path / "a.ini", f"[{section}]\n{field.name} = {text}\n")
        parsed = getattr(parse(load_config(cfg)), field.name)
        assert parsed == value
        assert type(parsed) is type(value)
        if default is None:
            cfg = write(tmp_path / "a.ini", f"[{section}]\n{field.name} = auto\n")
            assert getattr(parse(load_config(cfg)), field.name) is None

    def test_malformed_ini(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "n_nodes = 5\n")
        with pytest.raises(ValueError, match="bad config"):
            load_config(cfg)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def npy_bytes(arr, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=allow_pickle)
    return buf.getvalue()


class TestGenerate:
    def test_bundle_files_and_determinism(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.ini", TINY_INSTANCE)
        for sub in ("d1", "d2"):
            assert main(["generate", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        names = ["complex.json", "meta.json", "observed_edges.npy", "x0.npy", "x1_obs.npy"]
        assert sorted(os.listdir(tmp_path / "d1")) == names
        for name in names:
            assert read_bytes(tmp_path / "d1" / name) == read_bytes(tmp_path / "d2" / name)
        assert "wrote dataset" in capsys.readouterr().out

    def test_seed_flag_changes_bundle(self, tmp_path):
        cfg = write(tmp_path / "a.ini", TINY_INSTANCE)
        main(["generate", "--config", cfg, "--out", str(tmp_path / "d1")])
        main(["generate", "--config", cfg, "--out", str(tmp_path / "d2"), "--seed", "12"])
        assert read_bytes(tmp_path / "d1" / "x0.npy") != read_bytes(tmp_path / "d2" / "x0.npy")

    def test_impossible_graph_fails_cleanly(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "a.ini",
            "[instance]\nn_nodes = 6\nedge_prob = 0.0\nn_node_signals = 5\nn_edge_signals = 5\n",
        )
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: generation-failure:")

    def test_bad_config_key_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.ini", "[instance]\nnodes = 6\n")
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-argument:")

    @pytest.mark.parametrize(
        "line, prefix",
        [
            pytest.param(line, prefix, id=line)
            for line, prefix in [
                ("n_edge_signals = 0", "n_edge_signals must be >= "),
                ("n_node_signals = 0", "n_node_signals must be >= "),
                ("node_noise_std = -1", "node_noise_std must be >= "),
                ("edge_noise_std = -0.5", "edge_noise_std must be >= "),
                ("edge_prob = 1.5", "edge_prob must be in [0, 1]"),
                ("fill_fraction = 2", "fill_fraction must be in [0, 1]"),
                ("curl_atten = -1", "curl_atten must be >= 0"),
                ("observed_fraction = 0", "observed_fraction must be in (0, 1]"),
            ]
        ],
    )
    def test_out_of_range_instance_rejected(self, tmp_path, capsys, line, prefix):
        cfg = write(tmp_path / "a.ini", f"[instance]\nn_nodes = 6\n{line}\n")
        out = tmp_path / "d"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid-argument: {prefix}")
        assert not out.exists()


    @pytest.mark.parametrize(
        "config, flags, seed",
        [("[instance]\nn_nodes = 6\nseed = -3\n", [], -3),
         ("[instance]\nn_nodes = 6\n", ["--seed", "-4"], -4)],
        ids=["config-seed", "seed-flag"],
    )
    def test_negative_seed_named(self, tmp_path, capsys, config, flags, seed):
        cfg = write(tmp_path / "a.ini", config)
        out = tmp_path / "d"
        assert main(["generate", "--config", cfg, "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid-argument: seed must be >= 0, got {seed}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    """A small noiseless fully observed bundle, generated once."""
    root = tmp_path_factory.mktemp("bundle")
    cfg = write(root / "a.ini", TINY_INSTANCE)
    assert main(["generate", "--config", cfg, "--out", str(root / "ds")]) == 0
    return root / "ds"


class TestLearn:
    def test_greedy_recovers_clean_instance(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["learn", str(bundle_dir), "--method", "GreedySCL", "--out", str(out)])
        assert code == 0
        result = json.loads(read_bytes(out / "result.json"))
        assert result["method"] == "GreedySCL"
        assert result["eval"]["edge_f1"] == 1.0
        assert result["converged"] is True
        assert result["closure_violations"] == 0
        assert list(result["complex"]) == ["edges", "n_nodes", "triangles"]
        trace = result["objective_trace"]
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
        out_text = capsys.readouterr().out
        assert "GreedySCL: nerr_l0=" in out_text
        assert "edge_f1=1.0000" in out_text

    def test_save_x1(self, bundle_dir, tmp_path):
        out = tmp_path / "run"
        main(["learn", str(bundle_dir), "--out", str(out), "--save-x1"])
        est = np.load(out / "x1_est.npy", allow_pickle=False)
        meta = json.loads(read_bytes(bundle_dir / "meta.json"))
        skel_edges = meta["n_nodes"] * (meta["n_nodes"] - 1) // 2
        assert est.shape == (skel_edges, meta["n_edge_signals"])
        assert est.dtype == np.float64 and np.isfinite(est).all()
        assert sorted(os.listdir(out)) == ["result.json", "x1_est.npy"]

    def test_rc_result_shape(self, bundle_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["learn", str(bundle_dir), "--method", "RC", "--out", str(out)])
        assert code == 0
        result = json.loads(read_bytes(out / "result.json"))
        assert result["method"] == "RC"
        assert result["objective_trace"] == []
        assert result["iterations_run"] == 1
        assert "eval" in result

    def test_budget_flags(self, bundle_dir, tmp_path):
        # The bundle is fully observed, so e_min must cover all 12
        # active edges. With no triangles no edge score is negative, so
        # exactly 13 are kept.
        out = tmp_path / "run"
        code = main(
            [
                "learn",
                str(bundle_dir),
                "--out",
                str(out),
                "--e-min",
                "13",
                "--t-min",
                "0",
            ]
        )
        assert code == 0
        result = json.loads(read_bytes(out / "result.json"))
        assert len(result["complex"]["edges"]) == 13
        assert result["complex"]["triangles"] == []

    def test_rc_rejects_negative_t_min(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["learn", str(bundle_dir), "--method", "RC", "--t-min", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-argument: t_min must be in")
        assert not out.exists()

    def test_max_iters_rejected_at_parse(self, bundle_dir, tmp_path, capsys):
        # The iteration cap is learner.MAX_ITERS, not a config key.
        cfg = write(tmp_path / "p.ini", "[params]\nmax_iters = 0\n")
        out = tmp_path / "run"
        code = main(
            ["learn", str(bundle_dir), "--method", "RC", "--config", cfg, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument: unknown key 'max_iters' in [params]")
        assert not out.exists()

    def test_negative_weight_rejected_at_parse(self, bundle_dir, tmp_path, capsys):
        cfg = write(tmp_path / "p.ini", "[params]\neta = -1\n")
        out = tmp_path / "run"
        assert main(["learn", str(bundle_dir), "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid-argument: eta must be")
        assert not out.exists()

    def test_rc_rejects_save_x1(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["learn", str(bundle_dir), "--method", "RC", "--save-x1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-argument: --save-x1")
        assert not out.exists()

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_closure_key_is_eval_count(self, bundle_dir, tmp_path, method):
        out = tmp_path / "run"
        assert main(["learn", str(bundle_dir), "--method", method, "--out", str(out)]) == 0
        result = json.loads(read_bytes(out / "result.json"))
        assert result["closure_violations"] == result["eval"]["closure_violations"]

    @pytest.mark.parametrize("flag", ["--strict-lemma", "--no-prune-closure"])
    def test_removed_switches_are_usage_errors(self, bundle_dir, flag):
        with pytest.raises(SystemExit) as exc:
            main(["learn", str(bundle_dir), flag])
        assert exc.value.code == 2

    def test_unknown_method_is_usage_error(self, bundle_dir):
        with pytest.raises(SystemExit) as exc:
            main(["learn", str(bundle_dir), "--method", "Magic"])
        assert exc.value.code == 2

    def test_missing_bundle(self, tmp_path, capsys):
        code = main(["learn", str(tmp_path / "absent")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: missing-file:")
        assert "complex.json" in err

    def test_non_finite_signal_rejected(self, bundle_dir, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        for path in bundle_dir.iterdir():
            (ds / path.name).write_bytes(path.read_bytes())
        x0 = np.load(ds / "x0.npy", allow_pickle=False)
        x0[0, 0] = np.nan
        np.save(ds / "x0.npy", x0, allow_pickle=False)
        code = main(["learn", str(ds), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid-argument: {ds / 'x0.npy'}: non-finite values (nan or inf)\n"
        assert not (tmp_path / "run" / "result.json").exists()

    @pytest.mark.parametrize(
        "name, corrupt, message",
        [
            ("x0.npy", lambda good: b"", "x0.npy: not a readable .npy matrix: "),
            ("meta.json", lambda good: b'{"seed": 11,', "invalid JSON in "),
            ("x0.npy", lambda good: b"1.0,2.0\n", "x0.npy: not a readable .npy matrix: "),
            ("x1_obs.npy", lambda good: good[:-8], "x1_obs.npy: not a readable .npy matrix: "),
            ("x0.npy", lambda good: npy_bytes(np.array([[0.5, None]], dtype=object), True),
             "x0.npy: not a readable .npy matrix: Object arrays cannot be loaded"),
            ("x0.npy", lambda good: npy_bytes(np.ones((7, 40), dtype=np.int64)),
             "x0.npy: expected a 2-D float64 matrix, got 2-D int64"),
            ("x1_obs.npy", lambda good: npy_bytes(np.ones(40)),
             "x1_obs.npy: expected a 2-D float64 matrix, got 1-D float64"),
            ("x0.npy", lambda good: npy_bytes(np.ones((7, 40, 1))),
             "x0.npy: expected a 2-D float64 matrix, got 3-D float64"),
            ("x1_obs.npy", lambda good: npy_bytes(np.full((12, 40), np.inf)),
             "x1_obs.npy: non-finite values (nan or inf)"),
        ],
        ids=["empty-x0", "malformed-meta", "text-x0", "truncated-x1-obs", "object-x0",
             "int-x0", "1d-x1-obs", "3d-x0", "inf-x1-obs"],
    )
    def test_bad_bundle_file_one_error_line(
        self, bundle_dir, tmp_path, capsys, name, corrupt, message
    ):
        ds = tmp_path / "ds"
        ds.mkdir()
        for path in bundle_dir.iterdir():
            (ds / path.name).write_bytes(path.read_bytes())
        (ds / name).write_bytes(corrupt((ds / name).read_bytes()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["learn", str(ds), "--out", str(tmp_path / "run")])
        assert code == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: invalid-argument:")
        assert message in err
        assert str(ds / name) in err

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("observed_edges.npy", npy_bytes(np.array([5, 3], dtype=np.int64)),
             "observed_edges must be strictly increasing"),
            ("x1_obs.npy", npy_bytes(np.array([[0.5]])), "1 rows but 12 edges are observed"),
            ("x0.npy", npy_bytes(np.zeros((6, 40))), "6 rows but 7 nodes are in the complex"),
        ],
        ids=["unsorted-observed", "x1-obs-row-mismatch", "x0-row-mismatch"],
    )
    def test_bundle_index_errors_name_the_file(
        self, bundle_dir, tmp_path, capsys, name, data, message
    ):
        ds = tmp_path / "ds"
        shutil.copytree(bundle_dir, ds)
        (ds / name).write_bytes(data)
        code = main(["learn", str(ds), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-argument: {ds / name}: ")
        assert message in err

    def test_csv_bundle_is_missing_file(self, bundle_dir, tmp_path, capsys):
        """A bundle written with the float matrices as CSV text fails on the
        first .npy it lacks; nothing reads the CSV files."""
        ds = tmp_path / "ds"
        shutil.copytree(bundle_dir, ds)
        for name in ("x0", "x1_obs"):
            arr = np.load(ds / f"{name}.npy", allow_pickle=False)
            np.savetxt(ds / f"{name}.csv", arr, fmt="%.16e", delimiter=",")
            (ds / f"{name}.npy").unlink()
        assert main(["learn", str(ds), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: missing-file: {ds / 'x0.npy'}\n"
        assert not (tmp_path / "run").exists()

    def test_csv_observed_edges_is_missing_file(self, bundle_dir, tmp_path, capsys):
        """A bundle whose observed edges are still the old one-index-per-line
        CSV fails on observed_edges.npy; nothing reads the CSV."""
        ds = tmp_path / "ds"
        shutil.copytree(bundle_dir, ds)
        observed = np.load(ds / "observed_edges.npy", allow_pickle=False)
        np.savetxt(ds / "observed_edges.csv", observed[:, None], fmt="%d", delimiter=",")
        (ds / "observed_edges.npy").unlink()
        assert main(["learn", str(ds), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: missing-file: {ds / 'observed_edges.npy'}\n"
        assert not (tmp_path / "run").exists()


class TestEval:
    def test_self_comparison_is_ideal(self, bundle_dir, tmp_path, capsys):
        code = main(
            ["eval", "--est", str(bundle_dir / "complex.json"), "--truth", str(bundle_dir)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nerr_l0"] == 0.0
        assert report["edge_f1"] == 1.0
        assert report["triangle_f1"] == 1.0

    def test_result_json_accepted_and_out_written(self, bundle_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main(["learn", str(bundle_dir), "--out", str(run)])
        capsys.readouterr()
        out_file = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--est",
                str(run / "result.json"),
                "--truth",
                str(bundle_dir),
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        on_disk = json.loads(read_bytes(out_file))
        printed = json.loads(capsys.readouterr().out)
        assert on_disk == printed
        assert set(on_disk) == {
            "nerr_l0",
            "nerr_lu",
            "edge_precision",
            "edge_recall",
            "edge_f1",
            "triangle_precision",
            "triangle_recall",
            "triangle_f1",
            "closure_violations",
        }

    @pytest.mark.parametrize("edges", [[1, 2], [[0, 1.7]], [[0, True]], [["0", "1"]]])
    def test_malformed_edge_entry(self, bundle_dir, tmp_path, capsys, edges):
        doc = {"n_nodes": 7, "edges": edges, "triangles": []}
        est = write(tmp_path / "bad.json", json.dumps(doc))
        code = main(["eval", "--est", est, "--truth", str(bundle_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: invalid-argument: {est}: edge entry")

    def test_node_count_mismatch(self, bundle_dir, tmp_path, capsys):
        other = {"n_nodes": 3, "edges": [[0, 1]], "triangles": []}
        est = write(tmp_path / "other.json", json.dumps(other))
        code = main(["eval", "--est", est, "--truth", str(bundle_dir)])
        assert code == 1
        assert "node count mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "est, truth, message",
        [
            (
                {"n_nodes": 4, "edges": [[0, 9]], "triangles": []},
                {"n_nodes": 4, "edges": [[1, 0]], "triangles": []},
                "{est}: invalid edge (0, 9) for 4 nodes",
            ),
            (
                {"n_nodes": 4, "edges": [[0, 9]], "triangles": []},
                {"n_nodes": 3, "edges": [], "triangles": []},
                "{est}: invalid edge (0, 9) for 4 nodes",
            ),
            (
                {"n_nodes": 4, "edges": [], "triangles": []},
                {"n_nodes": 5, "edges": [[0, 1]], "triangles": [[0, 1, 2]]},
                "{truth}: triangle (0, 1, 2) lists inactive edge(s) [(0, 2), (1, 2)]; "
                "complex is not downward closed",
            ),
            (
                {"n_nodes": 4, "edges": [], "triangles": []},
                {"n_nodes": 3, "edges": [[0, 3]], "triangles": []},
                "{truth}: invalid edge (0, 3) for 3 nodes",
            ),
            (
                {"n_nodes": 4, "edges": [], "triangles": []},
                {"n_nodes": 4, "edges": [[0, 1]], "triangles": [[0, 1, 2]]},
                "{truth}: triangle (0, 1, 2) lists inactive edge(s) [(0, 2), (1, 2)]; "
                "complex is not downward closed",
            ),
            (
                {"n_nodes": 4, "edges": [], "triangles": []},
                {"n_nodes": 4.0, "edges": [], "triangles": []},
                "{truth}: n_nodes must be an integer, got float",
            ),
            (
                {"n_nodes": 4, "edges": [], "triangles": []},
                {"n_nodes": 41, "edges": [], "triangles": []},
                "{truth}: n_nodes must be in [2, %d], got 41" % MAX_NODES,
            ),
            (
                {"n_nodes": 4, "edges": [], "triangles": []},
                {"n_nodes": 5, "edges": [[0, 1]], "triangles": []},
                "node count mismatch: estimate has 4, reference has 5",
            ),
        ],
        ids=[
            "invalid-estimate-before-invalid-truth",
            "invalid-estimate-before-mismatch",
            "invalid-larger-truth-before-mismatch",
            "invalid-smaller-truth-before-mismatch",
            "invalid-truth-of-same-size",
            "float-n-nodes-of-same-value",
            "out-of-range-truth-before-mismatch",
            "mismatch",
        ],
    )
    def test_error_precedence(self, tmp_path, capsys, est, truth, message):
        """One skeleton serves both documents, yet the estimate's faults
        still come first, then the reference's, then the size mismatch;
        each document's fault names its file."""
        est_path = write(tmp_path / "est.json", json.dumps(est))
        truth_path = write(tmp_path / "truth.json", json.dumps({"complex": truth}))
        assert main(["eval", "--est", est_path, "--truth", truth_path]) == 1
        message = message.format(est=est_path, truth=truth_path)
        assert capsys.readouterr().err == f"error: invalid-argument: {message}\n"

    def test_invalid_estimate_before_missing_truth(self, tmp_path, capsys):
        est = write(tmp_path / "est.json", json.dumps({"n_nodes": 1, "edges": [], "triangles": []}))
        assert main(["eval", "--est", est, "--truth", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid-argument: {est}: n_nodes must be in [2, {MAX_NODES}], got 1\n"
        )

    def test_shared_skeleton_builds_once(self, bundle_dir, monkeypatch, capsys):
        calls = []
        build = scinfer.topology.build_skeleton
        monkeypatch.setattr(
            scinfer.topology, "build_skeleton", lambda n: calls.append(n) or build(n)
        )
        complex_json = str(bundle_dir / "complex.json")
        assert main(["eval", "--est", complex_json, "--truth", str(bundle_dir)]) == 0
        assert calls == [7]


class TestFaultyComplexNamesItsFile:
    @pytest.fixture
    def bad_bundle(self, bundle_dir, tmp_path):
        """A copy of the bundle whose complex.json first lists edge [5, 2]."""
        ds = tmp_path / "bad"
        shutil.copytree(bundle_dir, ds)
        doc = json.loads(read_bytes(ds / "complex.json"))
        doc["edges"].insert(0, [5, 2])
        write(ds / "complex.json", json.dumps(doc))
        return ds

    @pytest.mark.parametrize("bad", ["est", "truth"])
    def test_eval_names_the_faulty_document(self, bundle_dir, bad_bundle, tmp_path, capsys, bad):
        run = tmp_path / "run"
        assert main(["learn", str(bundle_dir), "--out", str(run)]) == 0
        docs = {"est": str(run / "result.json"), "truth": str(bundle_dir)}
        docs[bad] = str(bad_bundle)
        capsys.readouterr()
        assert main(["eval", "--est", docs["est"], "--truth", docs["truth"]]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid-argument: {bad_bundle / 'complex.json'}: "
            "invalid edge (5, 2) for 7 nodes\n"
        )

    def test_learn_names_the_bundle_complex_json(self, bad_bundle, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["learn", str(bad_bundle), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid-argument: {bad_bundle / 'complex.json'}: "
            "invalid edge (5, 2) for 7 nodes\n"
        )
        assert not out.exists()


def test_every_json_document_is_the_compact_sorted_dump(bundle_dir, tmp_path, capsys):
    """generate, learn (each method) and eval --out write every JSON file
    as ``json.dumps(doc, sort_keys=True)`` plus a newline, and eval prints
    the text of its --out file."""
    files = [bundle_dir / "complex.json", bundle_dir / "meta.json"]
    for method in METHOD_NAMES:
        run = tmp_path / method
        assert main(["learn", str(bundle_dir), "--method", method, "--out", str(run)]) == 0
        report = tmp_path / f"{method}.report.json"
        capsys.readouterr()
        argv = ["eval", "--est", str(run / "result.json"), "--truth", str(bundle_dir)]
        assert main([*argv, "--out", str(report)]) == 0
        assert capsys.readouterr().out.encode() == read_bytes(report)
        files += [run / "result.json", report]
    for path in files:
        text = read_bytes(path).decode()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", path


@pytest.mark.parametrize(
    "command, text",
    [
        ("generate", "[instance]\ncurl_atten = nan\n"),
        ("generate", "[instance]\nedge_noise_std = inf\n"),
        ("learn", "[params]\ngamma = inf\n"),
        ("sweep", "[sweep]\nvariable = node_noise_std\ngrid = 0, nan\ntrials = 1\n"),
        ("sweep", "[sweep]\nvariable = observed_fraction\ngrid = 0.5, inf\ntrials = 1\n"),
    ],
    ids=["curl_atten-nan", "edge_noise_std-inf", "gamma-inf", "grid-nan", "grid-inf"],
)
def test_non_finite_config_floats_rejected(command, text, bundle_dir, tmp_path, capsys):
    cfg = write(tmp_path / "a.ini", text)
    out = str(tmp_path / "out")
    argv = {
        "generate": ["generate", "--config", cfg, "--out", out],
        "learn": ["learn", str(bundle_dir), "--config", cfg, "--out", out],
        "sweep": ["sweep", "--config", cfg, "--out", out],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: invalid-argument: key '")
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["generate", "--config", "{cfg}", "--out", "{file}"], "file"),
        (["learn", "{bundle}", "--out", "{file}"], "file"),
        (["eval", "--est", "{bundle}", "--truth", "{bundle}", "--out", "{dir}"], "dir"),
        (["generate", "--config", "{dir}", "--out", "{out}"], "dir"),
        (["eval", "--est", "{bundle}", "--truth", "{bundle}", "--out", "{nodir}"], "nodir"),
    ],
    ids=[
        "generate-out-file",
        "learn-out-file",
        "eval-out-dir",
        "generate-config-dir",
        "eval-out-missing-dir",
    ],
)
def test_unusable_path_is_one_error_line(argv, bad, bundle_dir, tmp_path, capsys):
    """A path that cannot be used as asked (it exists as the wrong kind, or
    an output's directory is missing) is an argument error naming it, not
    a traceback, and nothing is printed before it."""
    paths = {
        "cfg": write(tmp_path / "a.ini", TINY_INSTANCE),
        "file": write(tmp_path / "a.txt", ""),
        "dir": str(tmp_path / "adir"),
        "bundle": str(bundle_dir),
        "out": str(tmp_path / "out"),
        "nodir": str(tmp_path / "nodir" / "r.json"),
    }
    os.mkdir(paths["dir"])
    assert main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid-argument: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert paths[bad] in err
    assert "Traceback" not in err


def run_fresh(*args):
    """Run ``python args...`` in a new interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(scinfer.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def result_without_seconds(out_dir):
    result = json.loads(read_bytes(os.path.join(out_dir, "result.json")))
    del result["phase_seconds"]
    return result


class TestOneParser:
    """``main`` parses every call with one parser built at import."""

    @pytest.mark.parametrize("command", [None, "generate", "learn", "eval", "sweep"])
    def test_help_matches_a_fresh_parser(self, command, capsys):
        argv = ["--help"] if command is None else [command, "--help"]
        screens = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            out, err = capsys.readouterr()
            assert err == ""
            screens.append(out)
        assert screens[0] == screens[1]
        if command is None:
            assert screens[0] == build_parser().format_help()

    def test_budgets_do_not_leak_between_calls(self, bundle_dir, tmp_path, capsys):
        a, b, fresh = (str(tmp_path / name) for name in ("a", "b", "fresh"))
        assert main(["learn", str(bundle_dir), "--method", "RC", "--e-min", "5", "--out", a]) == 0
        assert main(["learn", str(bundle_dir), "--method", "RC", "--out", b]) == 0
        run_fresh("-m", "scinfer.cli", "learn", str(bundle_dir), "--method", "RC", "--out", fresh)
        assert result_without_seconds(b) == result_without_seconds(fresh)
        assert result_without_seconds(a)["complex"] != result_without_seconds(b)["complex"]

    def test_save_x1_does_not_leak_between_calls(self, bundle_dir, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["learn", str(bundle_dir), "--out", str(a), "--save-x1"]) == 0
        assert main(["learn", str(bundle_dir), "--out", str(b)]) == 0
        assert sorted(os.listdir(a)) == ["result.json", "x1_est.npy"]
        assert sorted(os.listdir(b)) == ["result.json"]

    def test_main_builds_no_parser(self, bundle_dir, monkeypatch, capsys):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(scinfer.cli, "build_parser", refuse)
        assert main(["eval", "--est", str(bundle_dir), "--truth", str(bundle_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["edge_f1"] == 1.0


def test_cli_import_loads_no_process_pool():
    """The worker pool is imported only by a sweep that starts workers."""
    proc = run_fresh(
        "-c",
        "import sys, scinfer.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
    )
    assert proc.stdout == "[]\n"


def strip_seconds(csv_text):
    lines = csv_text.splitlines()
    idx = lines[0].split(",").index("seconds")
    return [",".join(col for i, col in enumerate(line.split(",")) if i != idx) for line in lines]


class TestSweep:
    @pytest.mark.parametrize(
        "sweep, instance, params, prefix",
        [
            ("variable = node_noise_std\ngrid = -0.1, 0", "n_nodes = 6", "",
             "node_noise_std must be >= 0"),
            ("variable = observed_fraction\ngrid = 0, 0.5", "n_nodes = 6", "",
             "observed_fraction must be in (0, 1]"),
            ("variable = node_noise_std\ngrid = 0\nbase_seed = -5", "n_nodes = 6", "",
             "base_seed must be >= 0"),
            ("variable = node_noise_std\ngrid = 0", f"n_nodes = {MAX_NODES + 1}", "",
             f"n_nodes must be in [2, {MAX_NODES}]"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6\nedge_prob = 1.5", "",
             "edge_prob must be in [0, 1]"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6\nfill_fraction = 2", "",
             "fill_fraction must be in [0, 1]"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6\ncurl_atten = -1", "",
             "curl_atten must be >= 0"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6", "e_min = -2",
             "e_min must be in [0, 15], got -2"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6", "e_min = 16",
             "e_min must be in [0, 15], got 16"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6", "t_min = 21",
             "t_min must be in [0, 20], got 21"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6", "max_iters = 0",
             "unknown key 'max_iters' in [params]"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6", "beta2 = -5",
             "beta2 must be >= 0 and finite, got -5.0"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6\nseed = 12345", "",
             "key 'seed' in [instance] is unused by a sweep; [sweep] base_seed sets it"),
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 6\nnode_noise_std = 0.7", "",
             "key 'node_noise_std' in [instance] is unused by a sweep; [sweep] grid sets it"),
            ("variable = observed_fraction\ngrid = 0.5", "n_nodes = 6\nobserved_fraction = 1",
             "", "key 'observed_fraction' in [instance] is unused by a sweep; [sweep] grid sets it"),
        ],
        ids=["noise-grid", "observed-grid", "base-seed", "n-nodes", "edge-prob",
             "fill-fraction", "curl-atten", "e-min-negative", "e-min-above", "t-min-above",
             "max-iters", "beta2-negative", "instance-seed", "instance-noise", "instance-observed"],
    )
    def test_out_of_range_grid_rejected_at_parse(
        self, tmp_path, capsys, sweep, instance, params, prefix
    ):
        cfg = write(
            tmp_path / "s.ini",
            f"[sweep]\n{sweep}\ntrials = 1\n\n"
            f"[instance]\n{instance}\nn_node_signals = 5\nn_edge_signals = 5\n\n"
            f"[params]\n{params}\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-argument: {prefix}")
        assert not out.exists()

    def test_jobs_defaults_to_one(self, monkeypatch):
        monkeypatch.setenv("SCINFER_JOBS", "3")
        args = build_parser().parse_args(["sweep", "--config", "s.ini", "--out", "o"])
        assert args.jobs == 1

    def test_workers_capped_at_cell_count(self, tmp_path, monkeypatch):
        spec = parse_sweep(load_config(write(tmp_path / "s.ini", TINY_SWEEP)))
        spec = dataclasses.replace(spec, n_trials=1)
        workers = []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        runs = [run_sweep(spec, tmp_path / f"o{jobs}", jobs=jobs) for jobs in (1, 2, 10**6)]
        assert workers == [2, 2]
        for rows in runs[1:]:
            assert [{**r, "seconds": 0} for r in rows] == [{**r, "seconds": 0} for r in runs[0]]

    def test_row_count_and_files(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.ini", TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "8 rows, 0 failed" in capsys.readouterr().out
        csv_lines = read_bytes(out / "results.csv").decode().splitlines()
        assert csv_lines[0] == ",".join(CSV_COLUMNS)
        assert len(csv_lines) == 1 + 2 * 2 * 2
        for name in ("nerr_l0.svg", "nerr_lu.svg"):
            svg = read_bytes(out / name).decode()
            assert svg.startswith("<svg")
            assert "polyline" in svg
            assert "GreedySCL" in svg

    def test_deterministic_and_parallel_equal(self, tmp_path):
        cfg = write(tmp_path / "s.ini", TINY_SWEEP)
        texts = []
        for sub, jobs in (("o1", "1"), ("o2", "1"), ("o4", "4")):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / sub), "--jobs", jobs])
            texts.append(read_bytes(tmp_path / sub / "results.csv").decode())
        assert strip_seconds(texts[0]) == strip_seconds(texts[1])
        assert strip_seconds(texts[0]) == strip_seconds(texts[2])

    def test_single_cell(self, tmp_path):
        cfg = write(
            tmp_path / "s.ini",
            "[sweep]\nvariable = observed_fraction\ngrid = 0.8\ntrials = 1\n"
            "methods = GreedySCL, SepSCL, RC\n\n"
            "[instance]\nn_nodes = 6\nedge_prob = 0.6\nn_node_signals = 15\nn_edge_signals = 15\n",
        )
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        lines = read_bytes(out / "results.csv").decode().splitlines()
        assert len(lines) == 4
        assert [line.split(",")[2] for line in lines[1:]] == ["GreedySCL", "SepSCL", "RC"]

    def test_failed_cells_keep_rows(self, tmp_path):
        cfg = write(
            tmp_path / "s.ini",
            "[sweep]\nvariable = node_noise_std\ngrid = 0, 0.1\ntrials = 1\n"
            "methods = GreedySCL, RC\n\n"
            "[instance]\nn_nodes = 6\nedge_prob = 0.0\nn_node_signals = 5\nn_edge_signals = 5\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = read_bytes(out / "results.csv").decode().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] == "nan"
            assert "GenerationError" in cells[-1]

    def test_failed_method_keeps_its_rows(self, tmp_path, monkeypatch):
        """A method that raises inside a cell fills only its own rows with
        nan; the other methods of the same cells are scored as usual."""
        spec = parse_sweep(load_config(write(tmp_path / "s.ini", TINY_SWEEP)))
        spec = dataclasses.replace(spec, methods=("GreedySCL", "SepSCL", "RC"))
        normal = run_sweep(spec, tmp_path / "normal")

        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setitem(scinfer.sweep.METHODS, "SepSCL", boom)
        rows = run_sweep(spec, tmp_path / "failed")
        assert len(rows) == len(normal) == 2 * 2 * 3
        for row, before in zip(rows, normal):
            assert row["method"] == before["method"]
            if row["method"] == "SepSCL":
                assert row["status"] == "ValueError: boom"
                assert all(math.isnan(row[key]) for key in CSV_COLUMNS[3:-1])
            else:
                assert {**row, "seconds": 0} == {**before, "seconds": 0}
                assert row["status"] == "ok"

    def test_out_file_fails_before_any_cell(self, tmp_path, monkeypatch, capsys):
        """An ``--out`` that is an existing file is refused before a single
        instance is generated, as one error line naming the path."""
        calls = []

        def counting(*args):
            calls.append(args)
            raise AssertionError("a cell ran")

        monkeypatch.setattr(scinfer.sweep, "generate_instance", counting)
        cfg = write(tmp_path / "s.ini", TINY_SWEEP)
        out = write(tmp_path / "afile", "")
        assert main(["sweep", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument: ")
        assert err.count("\n") == 1 and out in err
        assert calls == []

    def test_paired_instances_across_grid(self, tmp_path, monkeypatch):
        """Same trial at different noise levels sees the same graph."""
        generate = scinfer.sweep.generate_instance
        seen = {}

        def recording(instance, seed):
            truth, signals = generate(instance, seed)
            digest = hashlib.sha256(truth.selection.w1.tobytes() + truth.selection.w2.tobytes())
            seen.setdefault(seed, {})[instance.node_noise_std] = digest.hexdigest()
            return truth, signals

        monkeypatch.setattr(scinfer.sweep, "generate_instance", recording)
        spec = parse_sweep(load_config(write(tmp_path / "s.ini", TINY_SWEEP)))
        run_sweep(spec, tmp_path / "out")
        assert sorted(seen) == [spec.base_seed + t for t in range(spec.n_trials)]
        for by_value in seen.values():
            assert list(by_value) == list(spec.grid)
            assert len(set(by_value.values())) == 1


class TestSvgPlot:
    def test_empty_series_says_no_data(self, tmp_path):
        path = tmp_path / "p.svg"
        line_plot_svg(path, [0.0, 1.0], [("A", [math.nan, math.nan], [0, 0])], "t", "x", "y")
        svg = read_bytes(path).decode()
        assert "no data" in svg
        assert "polyline" not in svg

    def test_whiskers_drawn(self, tmp_path):
        path = tmp_path / "p.svg"
        line_plot_svg(path, [0.0, 1.0], [("A", [0.5, 0.7], [0.1, 0.0])], "t", "x", "y")
        svg = read_bytes(path).decode()
        assert svg.count("<circle") == 2
        assert "<polyline" in svg

    def test_labels_are_xml_escaped(self, tmp_path):
        path = tmp_path / "p.svg"
        line_plot_svg(path, [0.0, 1.0], [("A&B", [0.5, 0.7], [0.1, 0.0])], "t > s", "x <lab>", "y")
        texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert {"A&B", "x <lab>", "t > s"} <= set(texts)

    @pytest.mark.parametrize(
        "x_values, series, digest",
        [
            ([0.0, 1.0], [("A", [math.nan, math.nan], [0, 0])],
             "9a754433c64566d1003c71f594d4a30fbc9969b422d4e361b478fc84ae8163b6"),
            ([0.3], [("A", [None], [None]), ("B", [0.4], [None])],
             "545ee045f67dd5aebe7718dbaebf53c74f4e6551a5bb9315a4a61e267946db41"),
            ([0.0, 0.5, 1.0],
             [(f"S{i}", [0.1 * i, math.nan, 0.9 - 0.1 * i],
               [0.0, None, 0.02 * i if i % 2 else None]) for i in range(7)],
             "9bb479d9ebc36295b25ac96de4343e7963de1cceded0c2e619672431634adf42"),
        ],
        ids=["no-data", "single-point", "seven-series"],
    )
    def test_chart_bytes_pinned(self, tmp_path, x_values, series, digest):
        """Chart paths the golden sweeps do not reach: the "no data" label,
        the widened x range of a single grid point with None means and
        stderrs, and a palette that wraps past six series with NaN means
        and zero or None stderrs."""
        path = tmp_path / "p.svg"
        line_plot_svg(path, x_values, series, "t", "x", "y")
        assert hashlib.sha256(read_bytes(path)).hexdigest() == digest



def _readme() -> str:
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_matches_cli_and_config():
    """Every flag of README's ``scinfer learn`` examples parses, and every
    InstanceParams and HyperParams field is named in README."""
    readme = _readme()
    examples = [line for line in readme.splitlines() if line.startswith("scinfer learn ")]
    assert examples
    for line in examples:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
    names = [f.name for cls in (InstanceParams, HyperParams) for f in dataclasses.fields(cls)]
    assert [name for name in names if not re.search(rf"\b{name}\b", readme)] == []


def test_readme_instance_block_is_the_defaults(tmp_path):
    """README's ``[instance]`` block parses to the defaults it claims to show."""
    block = re.search(r"```ini\n(\[instance\]\n.*?)```", _readme(), re.S)
    cfg = write(tmp_path / "readme.ini", block.group(1))
    assert parse_instance(load_config(cfg)) == (InstanceParams(), 0)


def test_readme_params_list_is_the_fields():
    """README's ``[params]`` list names exactly the HyperParams fields: a
    removed key leaves no stale entry, a new one is not left out."""
    paragraph = re.search(r"^`\[params\]` \(all optional\):.*?\n\n", _readme(), re.S | re.M)
    groups = re.findall(r"`([a-z0-9_]+(?:, [a-z0-9_]+)*)`\s\(", paragraph.group(0))
    listed = [name for group in groups for name in group.split(", ")]
    assert listed == [f.name for f in dataclasses.fields(HyperParams)]


def test_sweep_row_and_result_json_are_one_record(tmp_path):
    """For one instance and each method, the sweep's results.csv row and
    ``scinfer learn``'s result.json show the same run: every metric cell is
    the ``_fmt_cell`` text of the matching result.json field (top level,
    else under ``eval``), and the result.json keys are README's list."""
    cfg = write(
        tmp_path / "s.ini",
        "[sweep]\nvariable = node_noise_std\ngrid = 0.1\ntrials = 1\nbase_seed = 3\n"
        "methods = GreedySCL, SepSCL, RC\n\n"
        "[instance]\nn_nodes = 7\nedge_prob = 0.6\nn_node_signals = 20\nn_edge_signals = 20\n",
    )
    spec = parse_sweep(load_config(cfg))
    run_sweep(spec, tmp_path / "sweep")
    with open(tmp_path / "sweep" / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    instance = dataclasses.replace(spec.instance, node_noise_std=spec.grid[0])
    write_dataset(tmp_path / "ds", *generate_instance(instance, spec.base_seed), instance)
    block = re.search(r"`result.json` holds:\n\n```\n(.*?)```", _readme(), re.S).group(1)
    readme_keys = {key.strip() for key in re.sub(r"\{[^}]*\}", "", block).split(",")}
    given = ("sweep_value", "trial", "seconds", "status")
    metric_columns = [key for key in CSV_COLUMNS if key not in given]

    assert [row["method"] for row in rows] == list(spec.methods)
    for row in rows:
        out = tmp_path / row["method"]
        args = ["learn", str(tmp_path / "ds"), "--method", row["method"], "--out", str(out)]
        assert main(args) == 0
        result = json.loads(read_bytes(out / "result.json"))
        assert set(result) == readme_keys
        assert row["status"] == "ok"
        for key in metric_columns:
            field = result[key] if key in result else result["eval"][key]
            assert row[key] == _fmt_cell(key, field), (row["method"], key)
