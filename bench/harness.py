"""Timed runs, correctness checks and traced runs behind bench/run.py."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scmfpga as s
from scmfpga import fixedpoint as fx
from speed import Stopwatch
from tracing import Tracer
from workloads import evaluate, make_model

HERE = Path(__file__).resolve().parent

# a step shorter than this is repeated until this much wall time has passed,
# and timed per call over the whole window
MIN_WINDOW_S = 1.0
# the emulator is timed on this many rows for each prefix model
PREFIX_ROWS = 1000
PREFIX_REPEATS = 3
MAX_LAYERS = 3
# units of the figures a run prints that BENCHMARK.json does not list
EXTRA_UNITS = {"rmse_pc": "1", "rmse_gap": "1", "delta_over_bound": "ratio",
               "fail_rate": "ratio", "iterations": "count", "train_wall_s": "s",
               "eval_wall_rows_per_s": "rows/s"}

# public functions wrapped in the traced run, as module.function under scmfpga
TRACE_TARGETS = [
    "encoding.encode_matrix",
    "mechanism.signals_pm1",
    "mechanism.fit_mechanism",
    "linalg.lasso_fit",
    "linalg.least_squares",
    "train.add_node",
    "train.train",
    "model.predict_float_batch",
    "emulate.predict_fpga_batch",
    "modelfile.model_to_bytes",
    "modelfile.model_from_bytes",
    "evaluate.evaluate_bits",
]


@dataclass
class Iteration:
    """One make_model + evaluate on one case, with its checks."""

    case: int
    model_s: float  # reference seconds of one make_model call
    model_wall_s: float
    eval_s: float  # reference seconds of the read path over all rows
    eval_wall_s: float
    rows: int
    model_sha: str
    outputs_sha: str
    model_bytes: int
    rmse_pc: float
    rmse_fpga: float
    delta_over_bound: float
    bad_rows: int
    result: object  # TrainResult, or None on the read-path workload
    model: object


def timed(fn, min_s: float, kind: str, ticking: bool = True):
    """Call fn until min_s seconds of wall time have passed (at least once).

    Returns (last result, reference seconds per call, wall seconds per call),
    timed with the reference kernel of `kind`.
    """
    calls = 0
    deadline = time.perf_counter() + min_s
    with Stopwatch(kind, ticking) as sw:
        while True:
            out = fn()
            calls += 1
            if time.perf_counter() >= deadline:
                break
    return out, sw.seconds / calls, sw.wall_s / calls


def run_case(index: int, case, min_s: float, ticking: bool = True) -> Iteration:
    # collect earlier steps' garbage now, so that its collection does not
    # fall into this step's time
    gc.collect()
    (blob, result), model_s, model_wall_s = timed(
        lambda: make_model(case), min_s, "mixed", ticking)
    gc.collect()
    # the read path is mostly the per-row emulator: interpreted code
    with Stopwatch("python", ticking) as sw:
        model, rep = evaluate(blob, case.x_eval, case.y_eval)
    out_pc, out_raw = rep.outputs_pc, rep.outputs_fpga_raw
    out_fpga = fx.dequantize_array(out_raw)

    bound = s.quantization_bound(model)
    delta = np.max(np.abs(out_fpga - out_pc), axis=1)
    bad = ~np.isfinite(delta) | (delta > bound)
    rmse = lambda out: float(np.sqrt(np.mean((out - case.y_eval) ** 2)))  # noqa: E731
    return Iteration(
        case=index,
        model_s=model_s,
        model_wall_s=model_wall_s,
        eval_s=sw.seconds,
        eval_wall_s=sw.wall_s,
        rows=out_raw.shape[0],
        model_sha=hashlib.sha256(blob).hexdigest(),
        outputs_sha=hashlib.sha256(out_raw.tobytes()).hexdigest(),
        model_bytes=len(blob),
        rmse_pc=rmse(out_pc),
        rmse_fpga=rmse(out_fpga),
        delta_over_bound=float(np.max(delta)) / bound,
        bad_rows=int(np.count_nonzero(bad)),
        result=result,
        model=model,
    )


class Tally:
    """Attempted and failed operations: one training run or one evaluated row."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, Iteration] = {}

    def attempt(self, index: int, case, min_s: float, ticking: bool = True) -> Iteration | None:
        """Run one iteration; a raise or a wrong result counts as a failure."""
        try:
            it = run_case(index, case, min_s, ticking)
        except Exception:  # the run must go on and report the failure
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += it.rows + (1 if case.cfg is not None else 0)
        self.failed += it.bad_rows
        # a repeat of a case must give the same model bytes, outputs and rmse
        ref = self.first.setdefault(index, it)
        key = lambda i: (i.model_sha, i.outputs_sha, i.rmse_fpga)  # noqa: E731
        if key(it) != key(ref):
            print(f"check_failed case={index}: a repeat gave other results, "
                  f"model_sha256 {ref.model_sha} then {it.model_sha}")
            self.failed += 1
        return it


def measure(wl, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics with tracing off, timed in reference seconds."""
    # every case once, then case 0 again for the determinism check, then
    # round-robin until the run's time is up. Each iteration makes its case
    # afresh, so set-up is sampled over the whole run. Peak memory is read
    # after the fixed part, so it does not depend on how many iterations fit.
    its: list[Iteration] = []
    setup_s: list[float] = []
    deadline = time.perf_counter() + seconds
    n = 0
    seeds = wl.case_seeds(seed)
    peak_rss_mb = 0.0
    while n < len(seeds) + 1 or time.perf_counter() < deadline:
        i = n % len(seeds)
        case, per_call, _ = timed(lambda: wl.setup(seeds[i]), MIN_WINDOW_S, "mixed")
        setup_s.append(per_call)
        it = tally.attempt(i, case, MIN_WINDOW_S)
        if it is not None:
            its.append(it)
            print(f"iteration {n} case={it.case} model_s={it.model_s:.6f} "
                  f"eval_s={it.eval_s:.6f} model_wall_s={it.model_wall_s:.6f} "
                  f"eval_wall_s={it.eval_wall_s:.6f}")
        n += 1
        if n == len(seeds) + 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    done = sorted({it.case for it in its})
    if len(done) < len(seeds):
        return {}
    per_case = [[it for it in its if it.case == c] for c in done]
    for group in per_case:
        it = group[0]
        print(f"case {it.case} seed={seeds[it.case]} runs={len(group)} "
              f"model_sha256={it.model_sha} model_bytes={it.model_bytes}")
    # per case the median over its repeats, then the mean over cases; every
    # case of a workload evaluates the same number of rows
    per_case_mean = lambda f: statistics.fmean(  # noqa: E731
        statistics.median(f(it) for it in g) for g in per_case)
    rows = its[0].rows
    return {
        "setup_s": statistics.median(setup_s),
        "train_s": per_case_mean(lambda it: it.model_s),
        "eval_rows_per_s": rows / per_case_mean(lambda it: it.eval_s),
        "peak_rss_mb": peak_rss_mb,
        "rmse_fpga": statistics.fmean(g[0].rmse_fpga for g in per_case),
        # wall-clock and fidelity figures, printed but not gated: see README.md
        "train_wall_s": per_case_mean(lambda it: it.model_wall_s),
        "eval_wall_rows_per_s": rows / per_case_mean(lambda it: it.eval_wall_s),
        "rmse_pc": statistics.fmean(g[0].rmse_pc for g in per_case),
        "rmse_gap": max(abs(g[0].rmse_fpga - g[0].rmse_pc) for g in per_case),
        "delta_over_bound": max(it.delta_over_bound for it in its),
        "fail_rate": tally.failed / tally.attempted,
        "iterations": len(its),
    }


def search_waste(result, cfg) -> dict:
    """Candidate-search ratios from the training records and events."""
    if result is None:
        return {"train.candidates_drawn": 0, "train.accept_ratio": 0.0,
                "train.r_attempts_mean": 0.0}
    sched = cfg.r_schedule
    levels = [sched.index(rec.r) + 1 for rec in result.records]
    misses = sum(1 for ev in result.events if ev.get("reason") == "no_candidate")
    attempts = sum(levels) + misses * len(sched)
    drawn = attempts * cfg.t_max
    return {
        "train.candidates_drawn": drawn,
        "train.accept_ratio": len(levels) / drawn if drawn else 0.0,
        "train.r_attempts_mean": attempts / (len(levels) + misses) if attempts else 0.0,
    }


def layer_costs(model, case) -> list[float]:
    """Emulated us/row of the mechanism, then of each hidden layer.

    Times predict_fpga_batch on prefix models holding the first k layers and
    takes differences between consecutive prefixes.
    """
    bits, _ = s.encode_matrix(case.x_eval[:PREFIX_ROWS], model.encoding)
    us = []
    for k in range(len(model.layers) + 1):
        prefix = s.ScmModel(model.encoding, model.mechanism, model.layers[:k], model.n_outputs)
        times = []
        for _ in range(PREFIX_REPEATS):
            t0 = time.perf_counter()
            s.predict_fpga_batch(prefix, bits)
            times.append(time.perf_counter() - t0)
        us.append(statistics.median(times) / len(bits) * 1e6)
    return [us[0]] + [b - a for a, b in zip(us, us[1:])]


def trace_run(wl, workload: str, seed: int, tally: Tally) -> dict:
    """Per-layer metrics from one traced case, checked against an untraced one.

    Span times are wall-clock: the Stopwatch's kernel would run inside
    whichever span is open, so it is off while tracing.
    """
    case_seed = wl.case_seeds(seed)[0]
    case = wl.setup(case_seed)
    # an untraced run first warms caches and the allocator; the traced run
    # repeats it, so attempt() checks that tracing changed no result
    plain = tally.attempt(0, case, 0.0)
    tracer = Tracer()
    with tracer.installed(TRACE_TARGETS):
        traced = tally.attempt(0, case, 0.0, ticking=False)
    if plain is None or traced is None:
        return {}
    tracer.write(HERE / "out" / f"spans-{workload}-seed{seed}.json")

    st = tracer.self_times()
    sec = lambda name: st.get(name, (0.0, 0))[0]  # noqa: E731
    calls = lambda name: st.get(name, (0.0, 0))[1]  # noqa: E731
    costs = layer_costs(traced.model, case)
    costs += [0.0] * (MAX_LAYERS + 1 - len(costs))
    metrics = {
        "encoding.encode_matrix_s": sec("encoding.encode_matrix"),
        "encoding.rows_per_s": case.rows_encoded / sec("encoding.encode_matrix"),
        "mechanism.signals_pm1_s": sec("mechanism.signals_pm1"),
        "mechanism.fit_mechanism_s": sec("mechanism.fit_mechanism"),
        "linalg.lasso_fit_s": sec("linalg.lasso_fit"),
        "linalg.least_squares_s": sec("linalg.least_squares"),
        "linalg.least_squares_calls": calls("linalg.least_squares"),
        "train.add_node_s": sec("train.add_node"),
        "train.add_node_calls": calls("train.add_node"),
        "train.self_s": sec("train.train"),
        **search_waste(traced.result, case.cfg),
        "model.predict_float_batch_s": sec("model.predict_float_batch"),
        "emulate.predict_fpga_batch_s": sec("emulate.predict_fpga_batch"),
        "emulate.us_per_row": sec("emulate.predict_fpga_batch") / traced.rows * 1e6,
        "emulate.mech.us_per_row": costs[0],
        **{f"emulate.layer{k}.us_per_row": costs[k] for k in range(1, MAX_LAYERS + 1)},
        "modelfile.to_bytes_s": sec("modelfile.model_to_bytes"),
        "modelfile.from_bytes_s": sec("modelfile.model_from_bytes"),
        "modelfile.bytes": traced.model_bytes,
        "evaluate.evaluate_bits_self_s": sec("evaluate.evaluate_bits"),
        "evaluate.rmse_gap": abs(traced.rmse_fpga - traced.rmse_pc),
        "evaluate.delta_over_bound": traced.delta_over_bound,
        "evaluate.fail_rate": tally.failed / tally.attempted,
        "trace.overhead_s": tracer.call_cost_s() * len(tracer.spans),
    }
    print(f"case 0 seed={case_seed} model_sha256={traced.model_sha} "
          f"untraced_wall_s={plain.model_wall_s + plain.eval_wall_s:.6f} "
          f"traced_wall_s={traced.model_wall_s + traced.eval_wall_s:.6f} spans={len(tracer.spans)}")
    return metrics


def environment(seed: int, root: Path, blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "git_commit": commit,
        "seed": seed,
    }
