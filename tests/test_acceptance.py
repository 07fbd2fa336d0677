"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The training-quality
criteria are stochastic by nature and train five seeded models per dataset;
everything else is exact or tolerance-pinned.
"""

import statistics
import time
import warnings

import numpy as np
import pytest

import scmfpga as s
from scmfpga import emulate
from scmfpga.datasets import db1_function
from scmfpga.emulate import cycle_estimate
from scmfpga.train import early_stop_check

from builders import layer
from oracles import bit_strings

warnings.filterwarnings("ignore", message="clamped")


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- criterion 1: exact bit-op oracles --------------------------------------


def _bit_table(n: int) -> np.ndarray:
    """(2**n, n) matrix of the bits of every n-bit integer, bit 0 first."""
    return np.unpackbits(
        np.arange(2**n, dtype=np.uint32).view(np.uint8).reshape(-1, 4),
        bitorder="little", axis=1,
    )[:, :n].astype(np.int64)


def _dots(w01: np.ndarray, x01: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) dots of K weight rows with B input rows, from the emulator's popcounts
    on word-major inputs: n - 2·count(w XOR x) with x read as ±1, and
    2·count(w AND x) - ones(x) with x as 0/1."""
    w, x = s.BitMatrix.from01(w01).words, s.BitMatrix.from01(x01).words.T.copy()
    pm1 = w01.shape[1] - 2 * emulate._counts(w, x, True)
    return pm1, 2 * emulate._counts(w, x, False) - x01.sum(axis=1)


def test_criterion_1_bit_op_oracles():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    # the figures' -1/+1 vectors as bits: bit 1 stands for +1
    fig1 = int(_dots(np.array([[0, 1, 0, 0]]), np.array([[0, 1, 1, 0]]))[0][0, 0])
    fig5 = int(_dots(np.array([[0, 1, 0, 1]]), np.array([[1, 0, 1, 1]]))[1][0, 0])
    ok = fig1 == 2 and fig5 == -1

    # 1e5 random pairs, lengths up to 1024, grouped by length: pair i is
    # weight row i with input row i, the diagonal of the group's dots
    lengths, counts = np.unique(rng.integers(1, 1025, size=100_000), return_counts=True)
    for n, k in zip(lengths, counts):
        a = rng.integers(0, 2, size=(k, n), dtype=np.uint8).astype(np.int64)
        b = rng.integers(0, 2, size=(k, n), dtype=np.uint8).astype(np.int64)
        sb = 2 * b - 1
        pm1, ones = _dots(b, a)
        ok &= np.array_equal(pm1.diagonal(), np.einsum("ij,ij->i", 2 * a - 1, sb))
        ok &= np.array_equal(ones.diagonal(), np.einsum("ij,ij->i", a, sb))

    # exhaustive: all pairs for len <= 8; for len 9..16 sweep the input over
    # all values against fixed weight patterns
    for n in range(1, 17):
        table = _bit_table(n)
        w01 = table if n <= 8 else table[[0, 2**n - 1, int("10" * (n // 2) + "1" * (n % 2), 2),
                                          int(rng.integers(0, 2**n))]]
        pm1, ones = _dots(w01, table)
        ok &= np.array_equal(pm1, (2 * w01 - 1) @ (2 * table - 1).T)
        ok &= np.array_equal(ones, (2 * w01 - 1) @ table.T)

    elapsed = time.time() - t0
    ok = bool(ok) and elapsed < 10.0
    _report(1, "bit-op oracles", ok, f"elapsed={elapsed:.1f}s fig1={fig1} fig5={fig5}")


# -- criterion 2: encoding golden vectors ------------------------------------


def test_criterion_2_encoding_golden_vectors():
    ok = True
    detail = []
    v1 = bit_strings(s.encode_matrix(np.array([[0.867]]), s.parse_encoding("s1:3"))[0])[0]
    expect1 = "0" + "011111111" + "000111111" + "001111111"
    ok &= v1 == expect1
    v2 = bit_strings(s.encode_matrix(np.array([[0.8674]]), s.parse_encoding("s2v2"))[0])[0]
    expect2 = "0" + "011111111" + "000111111" + "0111" + "01"
    ok &= v2 == expect2
    counts = []
    for d, spec_text, expected in [
        (1, "s2v2", 25), (2, "s1:3", 56), (36, "s2v1", 576), (14, "s2v1", 224),
    ]:
        spec = s.parse_encoding(spec_text)
        _, d_enc = s.encode_matrix(np.full((1, d), 0.5), spec)
        counts.append(d_enc)
        ok &= d_enc == expected
    detail.append(f"counts={counts}")
    _report(2, "encoding golden vectors", ok, " ".join(detail))


# -- criteria 3 & 4: resource tables ------------------------------------------


def _shape_model(spec_text, d, sizes):
    spec = s.parse_encoding(spec_text)
    d_enc = d * spec.bits_per_input
    mech = s.external_mechanism(np.zeros((d_enc, 1)), np.zeros(1))
    layers = [layer(s.Activation.STEP, np.zeros((n, fan_in)))
              for fan_in, n in zip((d_enc, *sizes), sizes)]
    return s.ScmModel(spec, mech, layers, 1)


def test_criterion_3_memory_tables():
    ok = True
    # inputs table: (spec, d, real bits, packed bits, exact reduction)
    for spec_text, d, real, packed in [
        ("s2v2", 1, 64, 25), ("s1:3", 2, 128, 56),
        ("s2v1", 36, 2304, 576), ("s2v1", 14, 896, 224),
    ]:
        rep = s.memory_report(_shape_model(spec_text, d, ()))
        ok &= rep.inputs_real_bits == real and rep.inputs_fpga_bits == packed
        ok &= rep.input_reduction == 1 - packed / real
    # weights table: (spec, d, nodes, real bits, packed bits, pct)
    for spec_text, d, n, real, packed, pct in [
        ("s2v2", 1, 60, 3840, 1500, 60.9375),
        ("s1:3", 2, 60, 7680, 3360, 56.25),
        ("s2v1", 36, 20, 46080, 11520, 75.0),
        ("s2v1", 14, 25, 22400, 5600, 75.0),
    ]:
        rep = s.memory_report(_shape_model(spec_text, d, (n,)))
        ok &= rep.weight_real_bits == real and rep.weight_fpga_bits == packed
        ok &= round(rep.weight_reduction * 100, 4) == pct
    rep = s.memory_report(_shape_model("s2v2", 1, (60,)))
    ok &= rep.beta_reduction == 0.5
    _report(3, "memory tables", ok)


CYCLE_ROWS = [
    ("s2v2", 1, (60,), 9), ("s2v2", 1, (60,), 9),
    ("s2v2", 1, (40, 40, 40), 23), ("s2v2", 1, (60, 60), 18),
    ("s1:3", 2, (60,), 10), ("s1:3", 2, (60,), 10),
    ("s1:3", 2, (40, 40, 40), 24), ("s1:3", 2, (40, 40, 40), 24),
    ("s2v1", 36, (20,), 10), ("s2v1", 36, (20,), 10),
    ("s2v1", 36, (20, 20, 20), 24), ("s2v1", 36, (20, 20), 19),
    ("s2v1", 14, (25,), 10), ("s2v1", 14, (25,), 10),
    ("s2v1", 14, (20, 8), 19), ("s2v1", 14, (20, 18), 19),
]


def test_criterion_4_cycle_table():
    got = [cycle_estimate(_shape_model(t, d, sz)) for t, d, sz, _ in CYCLE_ROWS]
    expected = [e for *_, e in CYCLE_ROWS]
    _report(4, "cycle table", got == expected, f"rows={got}")


# -- criteria 5 & 6: training quality and emulation fidelity -----------------


def _train_and_eval(dataset, spec_text, act, seed):
    if dataset == "db1":
        ds = s.gen_db1(seed=seed)
    else:
        ds = s.gen_db2(seed=seed, scale=0.1)
    ds = s.split(ds, 0.2, seed=seed)
    spec = s.parse_encoding(spec_text)
    data = s.prepare_train_data(
        ds.x_norm(ds.train_idx), ds.y[ds.train_idx],
        ds.x_norm(ds.val_idx), ds.y[ds.val_idx], spec,
    )
    cfg = s.TrainConfig.single_layer(60, act, t_max=500, seed=seed)
    model = s.train(data, cfg).model
    bits_test, _ = s.encode_matrix(ds.x_norm(ds.test_idx), spec)
    rep = s.evaluate_bits(model, bits_test, ds.y[ds.test_idx], "both")
    return model, rep


@pytest.fixture(scope="module")
def trained_models():
    out = {}
    for dataset, spec_text, act in [
        ("db1", "s2v2", s.Activation.STEP),
        ("db2", "s1:3", s.Activation.STEP),
    ]:
        t0 = time.time()
        runs = [_train_and_eval(dataset, spec_text, act, seed) for seed in range(5)]
        out[dataset] = {"runs": runs, "seconds": time.time() - t0}
    return out


def test_criterion_5_training_quality(trained_models):
    ok = True
    details = []
    for dataset, limit in [("db1", 0.06), ("db2", 0.08)]:
        info = trained_models[dataset]
        rmses = [rep.rmse_pc for _, rep in info["runs"]]
        med = statistics.median(rmses)
        ok &= med <= limit and info["seconds"] < 300.0
        details.append(f"{dataset}: median={med:.4f} (limit {limit}) in {info['seconds']:.0f}s")
    _report(5, "training quality", ok, "; ".join(details))


def test_criterion_6_pc_vs_fpga_fidelity(trained_models):
    ok = True
    details = []
    for dataset in ("db1", "db2"):
        worst_rmse_gap = 0.0
        worst_excess = -1.0
        for model, rep in trained_models[dataset]["runs"]:
            bound = s.quantization_bound(model)
            worst_rmse_gap = max(worst_rmse_gap, rep.rmse_difference)
            worst_excess = max(worst_excess, rep.max_output_delta - bound)
            ok &= rep.rmse_difference < 1e-4
            ok &= rep.max_output_delta <= bound
        details.append(f"{dataset}: max|dRMSE|={worst_rmse_gap:.2e} bound_margin={-worst_excess:.2e}")
    _report(6, "pc-vs-fpga fidelity", ok, "; ".join(details))


# -- criterion 7: residual monotonicity ---------------------------------------


def test_criterion_7_residual_monotonicity():
    rng = np.random.default_rng(77)
    ok = True
    checked = 0
    for i in range(20):
        n = int(rng.integers(40, 90))
        x = rng.uniform(size=(n + 12, 1))
        freq = float(rng.uniform(0.5, 3.0))
        y = np.sin(2 * np.pi * freq * x) * 0.4 + rng.normal(scale=0.05, size=x.shape)
        spec = s.parse_encoding("density:8")
        data = s.prepare_train_data(x[:n], y[:n], x[n:], y[n:], spec)
        # no mechanism: the property under test is the readout refit alone
        cfg = s.TrainConfig.single_layer(
            8, s.Activation.STEP, t_max=100, seed=int(rng.integers(1 << 31)),
            tau=-1.0, use_mechanism=False,
        )
        result = s.train(data, cfg)
        rmses = [r.train_rmse for r in result.records]
        checked += len(rmses)
        ok &= len(rmses) >= 2
        for a, b in zip(rmses, rmses[1:]):
            ok &= b <= a + 1e-10
    _report(7, "residual monotonicity", ok, f"instances=20 nodes_checked={checked}")


# -- criterion 8: early-stop unit vectors --------------------------------------


def test_criterion_8_early_stop_vectors():
    a = early_stop_check([1.0, 0.5, 0.25, 0.125], l_step=2, tau=0.01) is None
    b = early_stop_check([0.4, 0.4, 0.4, 0.4], l_step=2, tau=0.0) == 3
    c = early_stop_check([1.0, 0.9, 0.89, 0.889], l_step=2, tau=0.05) == 2
    _report(8, "early-stop vectors", a and b and c, f"continue={a} flat={b} computed={c}")


# -- criterion 9: determinism ---------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    """Two identical runs in one process give byte-identical model files.

    The promise holds within one BLAS build. Across builds (another OpenBLAS
    core type or thread count) only the file without its float sidecar and
    the training records are reproducible; test_train.py's
    test_raw_model_and_records_do_not_depend_on_the_blas_build checks that.
    """
    from scmfpga.cli import main as cli_main

    data = tmp_path / "db1.csv"
    assert cli_main(["gen-data", "db1", "--seed", "4", "--out", str(data)]) == 0
    args = ["--encoding", "s2v2", "--nodes", "10", "--act", "step",
            "--t-max", "100", "--seed", "4"]
    m1, m2 = tmp_path / "m1.scm", tmp_path / "m2.scm"
    assert cli_main(["train", str(data), "--out", str(m1), *args,
                     "--log", str(tmp_path / "l1")]) == 0
    assert cli_main(["train", str(data), "--out", str(m2), *args,
                     "--log", str(tmp_path / "l2")]) == 0
    identical = m1.read_bytes() == m2.read_bytes()
    model = s.load_model(m1)
    roundtrip = s.model_to_bytes(s.model_from_bytes(s.model_to_bytes(model))) == s.model_to_bytes(model)
    _report(9, "determinism", identical and roundtrip,
            f"identical={identical} roundtrip={roundtrip}")


# -- criterion 10: solver oracles ------------------------------------------------


def test_criterion_10_solver_oracles():
    rng = np.random.default_rng(10)
    ok = True

    x = rng.choice([-1.0, 1.0], size=(60, 8))
    y = rng.normal(size=(60, 2))
    fit = s.lasso_fit(x, y, alpha=0.0)
    ols = s.least_squares(x - x.mean(axis=0), y - y.mean(axis=0))  # the centred problem
    ok &= float(np.max(np.abs(fit.p - ols))) < 1e-6
    ok &= float(np.max(np.abs(fit.u - (y.mean(axis=0) - x.mean(axis=0) @ ols)))) < 1e-6

    worst = 0.0
    for _ in range(50):
        n, l = int(rng.integers(6, 30)), int(rng.integers(1, 6))
        h = rng.normal(size=(n, l))
        t = rng.normal(size=(n, 2))
        beta = s.least_squares(h, t)
        oracle = np.linalg.solve(h.T @ h, h.T @ t)
        worst = max(worst, float(np.linalg.norm(h @ beta - h @ oracle)))
    ok &= worst < 1e-9

    r0 = float(s.rastrigin(np.array([[0.0, 0.0]]))[0])
    db1_spot = float(db1_function(np.array([0.4]))[0])
    db1_expected = 0.2 + 0.5 * np.exp(-16.0) + 0.3 * np.exp(-144.0)
    ok &= abs(r0) < 1e-9 and abs(db1_spot - db1_expected) < 1e-9
    _report(10, "solver oracles", ok, f"pinv_worst={worst:.1e} rastrigin0={r0}")
