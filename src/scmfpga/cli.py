"""Command-line interface.

Subcommands: gen-data, train, eval, report, export, import. Exit codes:
0 success, 2 usage error, 3 data or file error, 4 training failed. All randomness
sits behind --seed, so identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import fixedpoint as fx
from .datasets import (gen_db1, gen_db2, load_dataset, manifest_path, split, write_csv,
                       write_dataset)
from .emulate import memory_report
from .encoding import encode_matrix, parse_encoding
from .errors import DataError, TrainingFailedError
from .evaluate import MODES, evaluate_bits
from .model import output_bound, parse_activation
from .modelfile import (
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from .train import TrainConfig, prepare_train_data, train

DEFAULT_CLOCK_HZ = 100e6
# train options named after TrainConfig fields, whose defaults TrainConfig states
CONFIG_OPTIONS = ("t_max", "r_schedule", "l_step", "tau", "alpha", "seed")


def _option_type(default):
    """The argparse type of an option with this default; a tuple's takes comma-separated values."""
    if not isinstance(default, tuple):
        return type(default)
    kind = type(default[0])

    def values(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(","))

    values.__name__ = f"comma-separated {kind.__name__}"  # argparse names it in errors
    return values


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scmfpga")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a benchmark dataset")
    g.add_argument("dataset", choices=["db1", "db2"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output CSV path")
    g.add_argument("--scale", type=float, default=None,
                   help="db2 training-row scale (default 0.1; 1.0 = 40000 rows)")
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
    for f in dataclasses.fields(TrainConfig):
        if f.name in CONFIG_OPTIONS:
            t.add_argument("--" + f.name.replace("_", "-"), type=_option_type(f.default),
                           default=f.default)
    t.add_argument("--val-fraction", type=float, default=0.2)
    t.add_argument("--no-mechanism", action="store_true")
    t.add_argument("--no-floats", action="store_true",
                   help="omit the float sidecar from the model file")
    t.add_argument("--log", default=None, help="write the training log here")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a model on a dataset")
    e.add_argument("model")
    e.add_argument("data")
    e.add_argument("--mode", choices=MODES, default="both")
    e.add_argument("--rows", choices=["test", "train", "val", "all"], default="test",
                   help="rows as the manifest marks them; train re-splits train and val rows "
                        "by --val-fraction and --seed, so 'train' holds its validation rows "
                        "too; gen-data marks no row 'val'; with no manifest every row is 'train'")
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
    # each alone, so that an --out that is its own manifest is write_dataset's usage error
    for path in (args.out, manifest_path(args.out)):
        _check_outputs({"--out": path})
    if args.dataset == "db1":
        given = {"--scale": args.scale is not None, "--random-test": args.random_test,
                 "--raw-targets": args.raw_targets}  # the options that shape db2
        if option := next(filter(given.get, given), None):
            raise ValueError(f"{option} applies to db2 only")
        ds = gen_db1(args.seed)
    else:
        ds = gen_db2(
            args.seed,
            scale=0.1 if args.scale is None else args.scale,
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
        sizes = (n,) if n else ()
    acts = tuple(parse_activation(a) for a in args.act.split(","))
    return sizes, acts * len(sizes) if len(acts) == 1 else acts


def _check_outputs(outputs: dict[str, str | None], *inputs: str | Path) -> None:
    """Refuse, before any work, an output path that is not a file name in a writable
    directory (OSError) or that names an input or another output (ValueError).

    outputs maps each output option to its path, None when it is not given.
    """
    named = {Path(p).resolve(): "an input" for p in inputs}
    for option, path in outputs.items():
        if path is None:
            continue
        parent = Path(path).parent
        if Path(path).is_dir() or not (parent.is_dir() and os.access(parent, os.W_OK | os.X_OK)):
            raise OSError(f"cannot write {path}: not a file name in a writable directory")
        other = named.setdefault(Path(path).resolve(), option)
        if other != option:
            raise ValueError(f"{option} {path} is the same file as {other}")


def cmd_train(args) -> int:
    # paths, then options, refused before reading the data (seconds) and training (minutes)
    _check_outputs({"--out": args.out, "--log": args.log}, args.data, manifest_path(args.data))
    spec = parse_encoding(args.encoding)
    sizes, acts = _parse_layer_args(args)
    cfg = TrainConfig(layer_sizes=sizes, activations=acts, use_mechanism=not args.no_mechanism,
                      **{name: getattr(args, name) for name in CONFIG_OPTIONS})
    if not 0.0 <= args.val_fraction < 1.0:
        raise ValueError(f"val-fraction must be in [0, 1), not {args.val_fraction}")
    ds = split(load_dataset(args.data), args.val_fraction, args.seed)
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
    _check_outputs({"--out": args.out}, args.model, args.data, manifest_path(args.data))
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
        print("note: outputs or parameters saturated, so quantization_bound does not apply")
    _say_if_unsaturable(model)
    if rep.rmse_difference is not None:
        print(f"rmse_difference={rep.rmse_difference:.6e}")
        print(f"max_output_delta={rep.max_output_delta:.6e}")
    if args.out:
        _write_outputs_csv(args.out, y, rep)
        print(f"wrote {args.out}")
    return 0


def _say_if_unsaturable(model) -> None:
    if not model.clamped and all(b < 2**31 for b in output_bound(model)):
        print("note: no input can saturate an output: nothing was clamped, every bound < 2**31")


def _write_outputs_csv(path: str, y: np.ndarray, rep) -> None:
    raw = rep.outputs_fpga_raw  # a kind: name, (samples, m) array or None, conversion, format
    kinds = [("target", y, float, repr), ("pc", rep.outputs_pc, float, repr),
             ("fpga", raw, int, fx.fx_to_decimal_string), ("fpga_raw", raw, int, str)]
    kinds = [k for k in kinds if k[1] is not None]
    header = [f"{name}_{q}" for name, a, _, _ in kinds for q in range(a.shape[1])]
    write_csv(path, header, [map(fmt, map(to, c)) for _, a, to, fmt in kinds for c in a.T])


def cmd_report(args) -> int:
    model = load_model(args.model)
    print(memory_report(model, clock_hz=args.clock).text())
    print("output bound:", ", ".join(f"{b / fx.SCALE:.9g} (raw {b})" for b in output_bound(model)))
    _say_if_unsaturable(model)
    return 0


def cmd_export(args) -> int:
    _check_outputs({"--out": args.out}, args.model)
    model = load_model(args.model)
    Path(args.out).write_text(model_to_json(model) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_import(args) -> int:
    _check_outputs({"--out": args.out}, args.json)
    model = model_from_json(Path(args.json).read_text())
    save_model(model, args.out, include_floats=not args.no_floats)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a warning prints as one stderr line, without its source path and source line
    default, warnings.formatwarning = warnings.formatwarning, lambda msg, *_: f"warning: {msg}\n"
    try:
        return args.func(args)
    except (DataError, OSError, UnicodeDecodeError) as exc:  # unreadable, unwritable, not text
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # such as the candidate work array of a huge --t-max
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except TrainingFailedError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default


if __name__ == "__main__":
    sys.exit(main())
