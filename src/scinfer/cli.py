"""Command line entry point.

Subcommands: ``generate`` (write a synthetic dataset bundle), ``learn``
(fit a method to a bundle and write result.json), ``eval`` (score an
estimated complex against a reference), ``sweep`` (run a configured
experiment grid).

Failures exit with status 1 and a single machine-parsable stderr line:
``error: generation-failure: ...``, ``error: missing-file: ...`` or
``error: invalid-argument: ...``. A missing input is ``missing-file``;
any other path a command cannot read or write (an existing file where
``--out`` needs a directory, a directory where a file is read or
written, a file to write in a missing directory) is
``invalid-argument``, and the message names the path.
Unknown flags or methods are argparse usage errors (exit status 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .baselines import METHODS
from .config import (
    METHOD_NAMES,
    load_config,
    parse_hyperparams,
    parse_instance,
    parse_sweep,
    resolve_budgets,
)
from .evaluation import evaluate, run_record
from .learner import HyperParams
from .sweep import run_sweep
from .synth import (
    GenerationError,
    InstanceParams,
    generate_instance,
    read_dataset,
    write_dataset,
    write_matrix_npy,
)
from .topology import complex_to_dict, json_text, read_complex_json, write_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scinfer",
        description="Learn simplicial complex topology from node signals and edge flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset bundle")
    p_gen.add_argument("--config", help="INI file with an [instance] section")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, help="override the config seed")
    p_gen.set_defaults(func=_cmd_generate)

    p_learn = sub.add_parser("learn", help="fit a method to a dataset bundle")
    p_learn.add_argument("dataset", help="dataset bundle directory")
    p_learn.add_argument("--method", choices=METHOD_NAMES, default="GreedySCL")
    p_learn.add_argument("--config", help="INI file with a [params] section")
    p_learn.add_argument("--out", help="output directory (default: the bundle)")
    p_learn.add_argument("--e-min", type=int, help="edge budget (default: from ground truth)")
    p_learn.add_argument("--t-min", type=int, help="triangle budget (default: from ground truth)")
    p_learn.add_argument(
        "--save-x1",
        action="store_true",
        help="also write x1_est.npy: GreedySCL's interpolated flows, "
        "SepSCL's zero-filled observed flows",
    )
    p_learn.set_defaults(func=_cmd_learn)

    p_eval = sub.add_parser("eval", help="score an estimated complex against a reference")
    p_eval.add_argument("--est", required=True, help="bundle, complex.json or result.json")
    p_eval.add_argument("--truth", required=True, help="bundle, complex.json or result.json")
    p_eval.add_argument("--out", help="also write the report as JSON")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run a configured experiment grid")
    p_sweep.add_argument("--config", required=True, help="INI file with a [sweep] section")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def _cmd_generate(args) -> int:
    if args.config is not None:
        instance, seed = parse_instance(load_config(args.config))
    else:
        instance, seed = InstanceParams(), 0
    if args.seed is not None:
        seed = args.seed
    truth, signals = generate_instance(instance, seed)
    write_dataset(args.out, truth, signals, instance)
    print(
        f"wrote dataset to {args.out} "
        f"(nodes={truth.skeleton.n_nodes}, edges={int(truth.selection.w1.sum())}, "
        f"triangles={int(truth.selection.w2.sum())}, "
        f"observed={signals.observed_edges.size})"
    )
    return 0


def _resolve_params(args, truth) -> HyperParams:
    if args.config is not None:
        params = parse_hyperparams(load_config(args.config))
    else:
        params = HyperParams()
    overrides = {}
    if args.e_min is not None:
        overrides["e_min"] = args.e_min
    if args.t_min is not None:
        overrides["t_min"] = args.t_min
    return resolve_budgets(replace(params, **overrides), truth)


def _cmd_learn(args) -> int:
    if args.save_x1 and args.method == "RC":
        raise ValueError("--save-x1 needs an edge-signal estimate, which RC does not make")
    ds = read_dataset(args.dataset)
    params = _resolve_params(args, ds.truth)

    state = METHODS[args.method](ds.skeleton, ds.x0, ds.x1_obs, ds.observed_edges, params)
    report = evaluate(ds.skeleton, state.selection, ds.truth)
    record = run_record(args.method, state, report)
    out_dir = args.out if args.out is not None else args.dataset
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    write_json(result_path, {"complex": complex_to_dict(ds.skeleton, state.selection), **record})
    if args.save_x1:
        write_matrix_npy(os.path.join(out_dir, "x1_est.npy"), state.x1_est)
    print(
        f"{args.method}: nerr_l0={report.nerr_l0:.6g} nerr_lu={report.nerr_lu:.6g} "
        f"edge_f1={report.edge_f1:.4f} triangle_f1={report.triangle_f1:.4f} "
        f"closure_violations={report.closure_violations} -> {result_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    est_skel, est_sel = read_complex_json(args.est)
    # A reference of the estimate's size is read on its skeleton; one of
    # another size is read on its own, so its faults precede the mismatch.
    truth_skel, truth_sel = read_complex_json(args.truth, est_skel)
    if est_skel.n_nodes != truth_skel.n_nodes:
        raise ValueError(
            f"node count mismatch: estimate has {est_skel.n_nodes}, "
            f"reference has {truth_skel.n_nodes}"
        )
    report = evaluate(truth_skel, est_sel, truth_sel).to_dict()
    if args.out is not None:
        try:
            write_json(args.out, report)
        except FileNotFoundError as exc:
            # main reads FileNotFoundError as a missing input; this is an output.
            raise ValueError(str(exc)) from exc
    print(json_text(report), end="")
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_sweep(load_config(args.config))
    rows = run_sweep(spec, args.out, jobs=args.jobs)
    failed = sum(1 for row in rows if row["status"] != "ok")
    print(
        f"wrote {os.path.join(args.out, 'results.csv')} "
        f"({len(rows)} rows, {failed} failed) and nerr_l0.svg / nerr_lu.svg"
    )
    return 0


# Built once, from the static definitions above: parse_args never changes
# it and returns a new Namespace per call, so calls share no options.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except GenerationError as exc:
        print(f"error: generation-failure: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else exc
        print(f"error: missing-file: {missing}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: invalid-argument: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
