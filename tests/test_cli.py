"""Config parsing, CLI subcommands, and the sweep harness."""

import dataclasses
import json
import math
import os
import shutil
import warnings

import numpy as np
import pytest

from scinfer.cli import build_parser, main
from scinfer.config import load_config, parse_hyperparams, parse_instance, parse_sweep
from scinfer.learner import HyperParams
from scinfer.sweep import CSV_COLUMNS, run_sweep
from scinfer.svgplot import line_plot_svg
from scinfer.synth import InstanceParams


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
max_iters = 20
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

    def test_bad_value_names_key(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[instance]\nn_nodes = five\n")
        with pytest.raises(ValueError, match="'n_nodes'"):
            parse_instance(load_config(cfg))

    def test_budget_auto_and_int(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[params]\ne_min = auto\nt_min = 4\n")
        params = parse_hyperparams(load_config(cfg))
        assert params.e_min is None
        assert params.t_min == 4

    def test_params_bool(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[params]\nstrict_lemma_mode = true\nprune_closure = no\n")
        params = parse_hyperparams(load_config(cfg))
        assert params.strict_lemma_mode is True
        assert params.prune_closure is False

    def test_sweep_spec(self, tmp_path):
        cfg = write(tmp_path / "a.ini", TINY_SWEEP)
        spec = parse_sweep(load_config(cfg))
        assert spec.variable == "node_noise_std"
        assert spec.grid == (0.0, 0.1)
        assert spec.n_trials == 2
        assert spec.base_seed == 5
        assert spec.methods == ("GreedySCL", "RC")
        assert spec.instance.n_nodes == 7
        assert spec.params.max_iters == 20

    def test_sweep_method_names_canonicalized(self, tmp_path):
        cfg = write(
            tmp_path / "a.ini",
            "[sweep]\nvariable = observed_fraction\ngrid = 0.5\nmethods = greedyscl, sepSCL\n",
        )
        spec = parse_sweep(load_config(cfg))
        assert spec.methods == ("GreedySCL", "SepSCL")

    def test_sweep_unknown_method(self, tmp_path):
        cfg = write(
            tmp_path / "a.ini",
            "[sweep]\nvariable = observed_fraction\ngrid = 0.5\nmethods = Magic\n",
        )
        with pytest.raises(ValueError, match="unknown method 'Magic'"):
            parse_sweep(load_config(cfg))

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
        elif isinstance(default, bool):
            value = not default
            text = str(value).lower()
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


class TestGenerate:
    def test_bundle_files_and_determinism(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.ini", TINY_INSTANCE)
        for sub in ("d1", "d2"):
            assert main(["generate", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        names = ["complex.json", "meta.json", "observed_edges.csv", "x0.csv", "x1_obs.csv"]
        assert sorted(os.listdir(tmp_path / "d1")) == names
        for name in names:
            assert read_bytes(tmp_path / "d1" / name) == read_bytes(tmp_path / "d2" / name)
        assert "wrote dataset" in capsys.readouterr().out

    def test_seed_flag_changes_bundle(self, tmp_path):
        cfg = write(tmp_path / "a.ini", TINY_INSTANCE)
        main(["generate", "--config", cfg, "--out", str(tmp_path / "d1")])
        main(["generate", "--config", cfg, "--out", str(tmp_path / "d2"), "--seed", "12"])
        assert read_bytes(tmp_path / "d1" / "x0.csv") != read_bytes(tmp_path / "d2" / "x0.csv")

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
        est = np.loadtxt(out / "x1_est.csv", delimiter=",")
        meta = json.loads(read_bytes(bundle_dir / "meta.json"))
        skel_edges = meta["n_nodes"] * (meta["n_nodes"] - 1) // 2
        assert est.shape == (skel_edges, meta["n_edge_signals"])

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
        # active edges; strict mode then keeps exactly 13.
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
                "--strict-lemma",
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
        # RC never iterates, so only the parse-time check can catch this.
        cfg = write(tmp_path / "p.ini", "[params]\nmax_iters = 0\n")
        out = tmp_path / "run"
        code = main(
            ["learn", str(bundle_dir), "--method", "RC", "--config", cfg, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument: max_iters must be at least 1")
        assert not out.exists()

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
        rows = (ds / "x0.csv").read_text().splitlines()
        rows[0] = "nan," + rows[0].split(",", 1)[1]
        (ds / "x0.csv").write_text("\n".join(rows) + "\n")
        code = main(["learn", str(ds), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument:")
        assert "x0.csv" in err
        assert not (tmp_path / "run" / "result.json").exists()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("x0.csv", "", "x0.csv: empty matrix file"),
            ("meta.json", '{"seed": 11,', "invalid JSON in "),
        ],
        ids=["empty-x0", "malformed-meta"],
    )
    def test_bad_bundle_file_one_error_line(self, bundle_dir, tmp_path, capsys, name, text, message):
        ds = tmp_path / "ds"
        ds.mkdir()
        for path in bundle_dir.iterdir():
            (ds / path.name).write_bytes(path.read_bytes())
        (ds / name).write_text(text)
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
        "name, text, message",
        [
            ("observed_edges.csv", "5\n3\n", "observed_edges must be strictly increasing"),
            ("x1_obs.csv", "0.5\n", "1 rows but 12 edges are observed"),
        ],
        ids=["unsorted-observed", "x1-obs-row-mismatch"],
    )
    def test_bundle_index_errors_name_the_file(
        self, bundle_dir, tmp_path, capsys, name, text, message
    ):
        ds = tmp_path / "ds"
        shutil.copytree(bundle_dir, ds)
        (ds / name).write_text(text)
        code = main(["learn", str(ds), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-argument: {ds / name}: ")
        assert message in err


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
        assert capsys.readouterr().err.startswith("error: invalid-argument: edge entry")

    def test_node_count_mismatch(self, bundle_dir, tmp_path, capsys):
        other = {"n_nodes": 3, "edges": [[0, 1]], "triangles": []}
        est = write(tmp_path / "other.json", json.dumps(other))
        code = main(["eval", "--est", est, "--truth", str(bundle_dir)])
        assert code == 1
        assert "node count mismatch" in capsys.readouterr().err


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
            ("variable = node_noise_std\ngrid = 0", "n_nodes = 41", "",
             "n_nodes must be in [2, 40]"),
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
             "max_iters must be at least 1"),
        ],
        ids=["noise-grid", "observed-grid", "base-seed", "n-nodes", "edge-prob",
             "fill-fraction", "curl-atten", "e-min-negative", "e-min-above", "t-min-above",
             "max-iters"],
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

    def test_paired_instances_across_grid(self, tmp_path):
        """Same trial at different noise levels sees the same graph."""
        cfg = write(tmp_path / "s.ini", TINY_SWEEP)
        rows = run_sweep(parse_sweep(load_config(cfg)), tmp_path / "out")
        rc = [row for row in rows if row["method"] == "RC"]
        by_value = {}
        for row in rc:
            by_value.setdefault(row["trial"], {})[row["sweep_value"]] = row["nerr_lu"]
        for trial_rows in by_value.values():
            assert len(set(trial_rows.values())) >= 1


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
