"""Command-line interface.

Subcommands: gen-data, train, eval, report, export, import. Exit codes:
0 success, 2 usage error, 3 data or file error, 4 training failed. All randomness
sits behind --seed, so identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import fixedpoint as fx
from .datasets import gen_db1, gen_db2, load_dataset, split, write_dataset
from .emulate import memory_report
from .encoding import encode_matrix, parse_encoding
from .errors import DataError, TrainingFailedError
from .evaluate import evaluate_bits
from .model import parse_activation
from .modelfile import (
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from .train import TrainConfig, prepare_train_data, train

DEFAULT_CLOCK_HZ = 100e6


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scmfpga")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a benchmark dataset")
    g.add_argument("dataset", choices=["db1", "db2"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output CSV path")
    g.add_argument("--scale", type=float, default=0.1,
                   help="db2 training-row scale (1.0 = 40000 rows)")
    g.add_argument("--random-test", action="store_true",
                   help="db2: draw test rows instead of the 67x67 grid")
    g.add_argument("--raw-targets", action="store_true",
                   help="db2: keep targets unscaled")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("data", help="dataset CSV (with manifest if available)")
    t.add_argument("--out", required=True, help="output model path")
    t.add_argument("--encoding", default="s2v2",
                   help="density:N | s1:U | s2v1 | s2v2")
    t.add_argument("--nodes", dest="n_nodes", type=int, help="single-layer node count")
    t.add_argument("--layers", default=None, help="comma-separated node counts")
    t.add_argument("--act", default="step",
                   help="activation per layer (sign/step, comma-separated or one for all)")
    t.add_argument("--t-max", type=int, default=500)
    t.add_argument("--r-schedule", default="0.9,0.99,0.999,0.9999")
    t.add_argument("--lambda-pool", default="1,2,4,8,16,32,64,128")
    t.add_argument("--l-step", type=int, default=20)
    t.add_argument("--tau", type=float, default=0.0)
    t.add_argument("--alpha", type=float, default=1e-4)
    t.add_argument("--val-fraction", type=float, default=0.2)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--no-mechanism", action="store_true")
    t.add_argument("--no-floats", action="store_true",
                   help="omit the float sidecar from the model file")
    t.add_argument("--log", default=None, help="write the training log here")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a model on a dataset")
    e.add_argument("model")
    e.add_argument("data")
    e.add_argument("--mode", choices=["pc", "fpga", "both"], default="both")
    e.add_argument("--rows", choices=["test", "train", "val", "all"], default="test")
    e.add_argument("--out", default=None, help="per-sample outputs CSV")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="memory and cycle report for a model")
    r.add_argument("model")
    r.add_argument("--clock", type=float, default=DEFAULT_CLOCK_HZ, help="clock in Hz")
    r.set_defaults(func=cmd_report)

    x = sub.add_parser("export", help="dump a model file as JSON")
    x.add_argument("model")
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_export)

    i = sub.add_parser("import", help="build a model file from JSON")
    i.add_argument("json")
    i.add_argument("--out", required=True)
    i.add_argument("--no-floats", action="store_true")
    i.set_defaults(func=cmd_import)
    return p


def cmd_gen_data(args) -> int:
    if args.dataset == "db1":
        ds = gen_db1(args.seed)
    else:
        ds = gen_db2(
            args.seed,
            scale=args.scale,
            normalize_targets=not args.raw_targets,
            grid_test=not args.random_test,
        )
    for f in write_dataset(ds, args.out):
        print(f"wrote {f}")
    return 0


def _parse_layer_args(args) -> tuple[tuple[int, ...], tuple]:
    if args.n_nodes is not None and args.layers is not None:
        raise ValueError("use either --nodes or --layers, not both")
    if args.layers is not None:
        sizes = tuple(int(s) for s in args.layers.split(","))
    else:
        n = 60 if args.n_nodes is None else args.n_nodes
        sizes = (n,) if n > 0 else ()
    acts = tuple(parse_activation(a) for a in args.act.split(","))
    if len(acts) == 1 and len(sizes) > 1:
        acts = acts * len(sizes)
    if len(acts) != len(sizes) and sizes:
        raise ValueError(f"{len(sizes)} layers but {len(acts)} activations")
    if not sizes:
        acts = ()
    return sizes, acts


def cmd_train(args) -> int:
    ds = load_dataset(args.data)
    ds = split(ds, args.val_fraction, args.seed)
    spec = parse_encoding(args.encoding)
    sizes, acts = _parse_layer_args(args)
    cfg = TrainConfig(
        layer_sizes=sizes,
        activations=acts,
        t_max=args.t_max,
        r_schedule=tuple(float(r) for r in args.r_schedule.split(",")),
        lambda_pool=tuple(int(v) for v in args.lambda_pool.split(",")),
        l_step=args.l_step,
        tau=args.tau,
        alpha=args.alpha,
        use_mechanism=not args.no_mechanism,
        seed=args.seed,
    )
    data = prepare_train_data(
        ds.x_norm(ds.train_idx),
        ds.y[ds.train_idx],
        ds.x_norm(ds.val_idx),
        ds.y[ds.val_idx],
        spec,
    )
    result = train(data, cfg)
    save_model(result.model, args.out, include_floats=not args.no_floats)
    log_text = result.log_text()
    if args.log:
        Path(args.log).write_text(log_text + "\n" if log_text else "")
    elif log_text:
        print(log_text)
    sizes_str = "-".join(str(s) for s in result.model.layer_sizes) or "0"
    last = result.records[-1] if result.records else None
    tail = (
        f" train_rmse={last.train_rmse:.9g} val_rmse={last.val_rmse:.9g}" if last else ""
    )
    print(f"saved {args.out} nodes={sizes_str}{tail}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    rows = ds.rows(args.rows)
    if rows.size == 0:
        raise DataError(f"no rows in the {args.rows!r} selection")
    if (ds.n_features, ds.n_targets) != (model.n_features, model.n_outputs):
        raise DataError(
            f"dataset has {ds.n_features} features and {ds.n_targets} targets, but the model "
            f"encodes {model.n_features} features and has {model.n_outputs} outputs"
        )
    bits, _ = encode_matrix(ds.x_norm(rows), model.encoding)
    y = ds.y[rows]
    rep = evaluate_bits(model, bits, y, args.mode)
    if rep.rmse_pc is not None:
        print(f"rmse_pc={rep.rmse_pc:.9g}")
    if rep.rmse_fpga is not None:
        print(f"rmse_fpga={rep.rmse_fpga:.9g}")
    if not rep.bound_applies:
        print("saturated=" + ",".join(str(int(c)) for c in rep.saturated))
        print("note: outputs saturated, so quantization_bound does not apply to these rows")
    if rep.rmse_difference is not None:
        print(f"rmse_difference={rep.rmse_difference:.6e}")
        print(f"max_output_delta={rep.max_output_delta:.6e}")
    if args.out:
        _write_outputs_csv(args.out, y, rep)
        print(f"wrote {args.out}")
    return 0


def _write_outputs_csv(path: str, y: np.ndarray, rep) -> None:
    m = y.shape[1]
    header: list[str] = [f"target_{q}" for q in range(m)]
    if rep.outputs_pc is not None:
        header += [f"pc_{q}" for q in range(m)]
    if rep.outputs_fpga_raw is not None:
        header += [f"fpga_{q}" for q in range(m)]
        header += [f"fpga_raw_{q}" for q in range(m)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(y.shape[0]):
            row = [repr(float(v)) for v in y[i]]
            if rep.outputs_pc is not None:
                row += [repr(float(v)) for v in rep.outputs_pc[i]]
            if rep.outputs_fpga_raw is not None:
                row += [fx.fx_to_decimal_string(int(v)) for v in rep.outputs_fpga_raw[i]]
                row += [str(int(v)) for v in rep.outputs_fpga_raw[i]]
            w.writerow(row)


def cmd_report(args) -> int:
    model = load_model(args.model)
    print(memory_report(model, clock_hz=args.clock).text())
    return 0


def cmd_export(args) -> int:
    model = load_model(args.model)
    Path(args.out).write_text(model_to_json(model) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_import(args) -> int:
    model = model_from_json(Path(args.json).read_text())
    save_model(model, args.out, include_floats=not args.no_floats)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingFailedError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
