"""The benchmark drives the package through names that must keep existing.

bench/workloads.py packs ScmNode lists with ScmLayer(activation, nodes) and
writes them with model_to_bytes. This checks that the model it builds for
run seed 1 still has the bytes recorded in bench/baseline.json, and that the
file reads back to the same bytes, and pins the read path's integer results
(encoded words and emulated outputs) on that case. It also checks that every function the
traced run (bench/run.py --trace 1) wraps still exists.
"""

import hashlib
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import scmfpga as s

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


def test_trace_targets_name_package_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    assert harness.TRACE_TARGETS
    for qual in harness.TRACE_TARGETS:
        mod_name, fn_name = qual.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"scmfpga.{mod_name}"), fn_name, None)
        assert inspect.isfunction(fn), qual
