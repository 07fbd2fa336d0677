"""The benchmark drives the package through names that must keep existing.

bench/workloads.py packs ScmNode lists with ScmLayer(activation, nodes) and
writes them with model_to_bytes. This checks that the model it builds for
run seed 1 still has the bytes recorded in bench/baseline.json, and that the
file reads back to the same bytes, and pins the read path's integer results
(encoded words and emulated outputs) on that case. It pins what training gives on
the first case of db2-desk and deep-mix, bounds the memory that case takes to
train and the sweeps its L1 fit takes. It also checks that every function the
traced run (bench/run.py --trace 1) wraps still exists, and that each one but
linalg.least_squares, which training no longer calls, records a span when a
small training case runs through the benchmark's two steps.
"""

import functools
import hashlib
import importlib
import inspect
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scmfpga as s
from scmfpga.train import TrainState

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_eval_full_model_bytes_match_the_baseline(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    baseline = json.loads((BENCH / "baseline.json").read_text())
    expected = baseline["workloads"]["eval-full"]["model_sha256_seed1"]["case0"]

    case = workloads.setup_eval_full(workloads.WORKLOADS["eval-full"].case_seeds(1)[0])
    blob, result = workloads.make_model(case)
    assert result is None
    assert hashlib.sha256(blob).hexdigest() == expected
    assert s.model_to_bytes(s.model_from_bytes(blob)) == blob


# sha256 of the eval-full run-seed-1 case's encoded words and emulated raw
# outputs, recorded before the read path's kernels were rewritten. The
# reference outputs are not pinned: their float64 products depend on the
# BLAS build.
EVAL_FULL_WORDS_SHA256 = "8351ff4199381447af9e735a91dcb615627287586b1f1f563ac7415ed1bf9c24"
EVAL_FULL_FPGA_RAW_SHA256 = "be41ab5d21ecc66c9fdce9fad5d528c9814fa6707d0690d8f0de402a1dc92f64"


def test_eval_full_read_path_integers_match_the_pins(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    case = workloads.setup_eval_full(workloads.WORKLOADS["eval-full"].case_seeds(1)[0])
    blob, _ = workloads.make_model(case)
    with pytest.warns(UserWarning, match="clamped"):  # rows outside the model's range
        model, rep = workloads.evaluate(blob, case.x_eval, case.y_eval)
        bits, _ = s.encode_matrix(case.x_eval, model.encoding)
    assert hashlib.sha256(bits.words.tobytes()).hexdigest() == EVAL_FULL_WORDS_SHA256
    raw = np.ascontiguousarray(rep.outputs_fpga_raw, dtype="<i4")
    assert hashlib.sha256(raw.tobytes()).hexdigest() == EVAL_FULL_FPGA_RAW_SHA256


# sha256 of the model file without its float sidecar and of log_text() for case
# 0 of each training workload at run seed 1. Neither depends on the BLAS build,
# so a change to the readout or to candidate scoring cannot change which nodes
# the 3200-row cases accept.
TRAIN_PINS = {
    "db2-desk": ("6554ef66ec7fe325c39d205a063a7554c49e3e54fcf99d6948deabaeb6b31b37",
                 "6c22662b42dac3ff01663bb880485e2e3d8a6c597f58e2b098ca9040b444cf65"),
    "deep-mix": ("14422c393af1a34c4828bcb166b30377475b9ae86eb0a12f6adde718d8e0b88b",
                 "5d7db0c962b57fcb6aecd6f9c8357a63fdaad2745ccec8b1a7773d3a8eb03520"),
}


@functools.cache
def _first_case(name: str) -> tuple[s.TrainData, s.TrainConfig]:
    """The TrainData and config of a workload's first case at run seed 1."""
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name]
    case = wl.setup(wl.case_seeds(1)[0])
    data = s.prepare_train_data(case.x_train, case.y_train, case.x_val, case.y_val, case.spec)
    return data, case.cfg


@functools.cache
def _traced_training(name: str) -> tuple[s.TrainResult, int]:
    """train on the first case, and the peak bytes that tracemalloc saw it allocate."""
    data, cfg = _first_case(name)
    tracemalloc.start()
    try:
        result = s.train(data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("name", sorted(TRAIN_PINS))
def test_the_first_training_case_matches_the_pins(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    result, _ = _traced_training(name)
    model_sha, log_sha = TRAIN_PINS[name]
    assert hashlib.sha256(s.model_to_bytes(result.model, include_floats=False)).hexdigest() \
        == model_sha
    assert hashlib.sha256(result.log_text().encode()).hexdigest() == log_sha


def test_training_the_first_desk_case_holds_hidden_outputs_as_int8(monkeypatch):
    # 3200 + 800 rows by 60 nodes: a float64 H and its float64 Gram-Schmidt
    # basis took 3.7 MB of a 6.44 MiB traced peak. An int8 H (256 KB) read in
    # float64 copies of 1024 rows peaked at 2.56 MiB in the readout; in
    # row_blocks of 256 rows, with the residuals written in place, about 1.8 MiB
    monkeypatch.syspath_prepend(str(BENCH))
    _, peak = _traced_training("db2-desk")
    assert peak <= 2.25 * 2**20
    assert TrainState(*_first_case("db2-desk")).H.dtype == np.int8


def test_the_first_desk_case_fits_the_mechanism_in_few_sweeps(monkeypatch):
    # the slow desk case: its constant integer-bit column took 937 sweeps when
    # the L1 fit centred the targets but not the columns; sweeps do not
    # depend on timing
    monkeypatch.syspath_prepend(str(BENCH))
    result, _ = _traced_training("db2-desk")
    (fit,) = [ev for ev in result.events if ev["event"] == "l1_fit"]
    assert fit["converged"] and fit["constant_columns"] == 1
    assert fit["sweeps"] <= 20


def test_trace_targets_name_package_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    assert harness.TRACE_TARGETS
    for qual in harness.TRACE_TARGETS:
        mod_name, fn_name = qual.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"scmfpga.{mod_name}"), fn_name, None)
        assert inspect.isfunction(fn), qual


def test_every_trace_target_records_a_span(monkeypatch):
    # a function the package reaches other than through a module attribute
    # (a method, a default argument) bypasses its wrapper and would report
    # zero seconds and zero calls. least_squares is the exception: training
    # solves no least-squares problem, so it must record none
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    ds = s.gen_db1(seed=0)
    x, y = ds.x_norm(ds.train_idx[:250]), ds.y[ds.train_idx[:250]]
    case = workloads.Case(
        spec=s.parse_encoding("s1:3"), x_eval=x, y_eval=y,
        cfg=s.TrainConfig.single_layer(3, s.Activation.STEP, t_max=50, seed=0),
        x_train=x[:200], y_train=y[:200], x_val=x[200:], y_val=y[200:],
    )
    with tracing.Tracer().installed(harness.TRACE_TARGETS) as tracer:
        blob, result = workloads.make_model(case)
        workloads.evaluate(blob, case.x_eval, case.y_eval)
    assert result.model.layer_sizes == (3,)
    calls = {name: n for name, (_, n) in tracer.self_times().items()}
    assert {qual: calls.get(qual, 0) > 0 for qual in harness.TRACE_TARGETS} == \
        {qual: qual != "linalg.least_squares" for qual in harness.TRACE_TARGETS}
