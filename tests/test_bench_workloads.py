"""The benchmark builds its eval-full model through the public constructors.

bench/workloads.py packs ScmNode lists with ScmLayer(activation, nodes) and
writes them with model_to_bytes. This checks that the model it builds for
run seed 1 still has the bytes recorded in bench/baseline.json, and that the
file reads back to the same bytes.
"""

import hashlib
import importlib
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
