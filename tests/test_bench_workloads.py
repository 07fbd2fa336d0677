"""The benchmark drives the package through names that must keep existing.

bench/workloads.py packs ScmNode lists with ScmLayer(activation, nodes) and
writes them with model_to_bytes. This checks that the model it builds for
run seed 1 still has the bytes recorded in bench/baseline.json, and that the
file reads back to the same bytes. It also checks that every function the
traced run (bench/run.py --trace 1) wraps still exists.
"""

import hashlib
import importlib
import inspect
import json
from pathlib import Path

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


def test_trace_targets_name_package_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    assert harness.TRACE_TARGETS
    for qual in harness.TRACE_TARGETS:
        mod_name, fn_name = qual.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"scmfpga.{mod_name}"), fn_name, None)
        assert inspect.isfunction(fn), qual
