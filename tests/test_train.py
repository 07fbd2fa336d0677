import copy
import hashlib
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scmfpga.linalg
from scmfpga import fixedpoint as fx
from scmfpga.bits import BitMatrix
from scmfpga.datasets import gen_db2, split
from scmfpga.encoding import encode_matrix, parse_encoding
from scmfpga.errors import TrainingFailedError
from scmfpga.evaluate import evaluate_bits
from scmfpga.linalg import least_squares
from scmfpga.mechanism import external_mechanism, signals_pm1
from scmfpga.model import (
    Activation,
    ScmModel,
    check_fan_in,
    layer_forward_float,
    parse_activation,
    predict_float_batch,
    quantization_bound,
    threshold_bits,
    threshold_edge,
)
from scmfpga.modelfile import model_to_bytes
from scmfpga.train import (
    LIMB_REACH,
    SCORE_ROWS,
    ResidualLimbs,
    TrainConfig,
    TrainData,
    TrainState,
    add_node,
    early_stop_check,
    limb_layout,
    prepare_train_data,
    train,
)

from builders import layer, random_model
from oracles import fx_from_real, predict_fpga, rows


def _column_node(state, k=-1):
    """Hidden column k's node as (+-1 float64 weights, lambda, bias)."""
    w01, shift, bias_raw = state.nodes[k]
    assert w01.dtype == np.uint8 and 0 <= shift <= 7
    return w01 * 2.0 - 1.0, 1 << shift, bias_raw / 2**25


def _toy_data(seed=0, n_train=80, n_val=20, spec="density:6", noise=0.05):
    """One feature, y = 0.3 sin(2 pi x) + 0.5 plus noise.

    density:6 gives seven codes, which the mechanism's six columns and its
    intercept span: with the mechanism on nothing is left for a node to fit
    (test_a_mechanism_that_spans_every_code_leaves_no_first_node). Tests
    that train nodes with the mechanism on use s2v1.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n_train + n_val, 1))
    y = np.sin(2 * np.pi * x) * 0.3 + 0.5 + rng.normal(scale=noise, size=x.shape)
    enc = parse_encoding(spec)
    return prepare_train_data(x[:n_train], y[:n_train], x[n_train:], y[n_train:], enc)


# -- early stopping -------------------------------------------------------


def test_early_stop_improving_continues():
    hist = [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert early_stop_check(hist, l_step=2, tau=0.01) is None


def test_early_stop_flat_rolls_back_to_first():
    hist = [0.4, 0.4, 0.4, 0.4]
    for tau in (0.0, 0.01, 0.5):
        assert early_stop_check(hist, l_step=2, tau=tau) == 3


def test_early_stop_computed_case():
    hist = [1.0, 0.9, 0.89, 0.889]
    # window improvement (0.9 - 0.889) / 0.889 ~= 0.0124 <= 0.05 -> stop,
    # then roll back two nodes (the first step improved by 11%)
    assert early_stop_check(hist, l_step=2, tau=0.05) == 2


def test_early_stop_needs_enough_history():
    assert early_stop_check([1.0, 0.9], l_step=2, tau=0.5) is None


def test_early_stop_can_remove_zero():
    hist = [0.9, 0.85, 1.0, 0.8]
    # window (0.9-0.8)/0.8 = 0.125 <= 0.2 but the last step improved by 25%
    assert early_stop_check(hist, l_step=3, tau=0.2) == 0


# -- add_node -------------------------------------------------------------


def test_add_node_zero_residual_rejects_everything():
    data = _toy_data()
    # constant targets: the mechanism absorbs them exactly, E = 0
    data.y[:] = 0.25
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=50, seed=0)
    state = TrainState(data, cfg)
    state.begin_layer()
    assert np.allclose(state.resid, 0.0)
    assert add_node(state) is None


def test_add_node_accepts_only_positive_xi_and_residual_drops():
    data = _toy_data(seed=1, spec="s2v1")
    cfg = TrainConfig.single_layer(8, Activation.STEP, t_max=100, seed=1)
    state = TrainState(data, cfg)
    state.begin_layer()
    prev = np.linalg.norm(state.resid[: state.n_train])
    for _ in range(8):
        res = add_node(state)
        if res is None:
            break
        assert res.xi_min > 0
        # recompute the score from the stored state to cross-check the log
        cur = np.linalg.norm(state.resid[: state.n_train])
        assert cur <= prev + 1e-10
        prev = cur
    assert state.layer_sizes == [len(state.nodes)] and len(state.nodes) >= 1


def test_add_node_xi_recheck_from_parameters():
    data = _toy_data(seed=2, spec="s2v1")
    cfg = TrainConfig.single_layer(1, Activation.STEP, t_max=200, seed=2)
    state = TrainState(data, cfg)
    state.begin_layer()
    e_before = state.resid[: data.n_train].copy()
    res = add_node(state)
    w, lam, bias = _column_node(state)
    s = signals_pm1(data.bits[: data.n_train])
    pre = (s @ w) * lam + bias
    h = (pre > 0).astype(np.float64) * 2 - 1
    # xi_q = (e_q . h)^2 / (h . h) - (1 - r) e_q . e_q (Wang & Li, 2017)
    xi = (e_before.T @ h) ** 2 / (h @ h) - (1 - res.r) * (e_before**2).sum(axis=0)
    assert np.all(xi > 0)


def _two_output_data(seed, n_train=120, n_val=30, spec="s2v1"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n_train + n_val, 1))
    y = np.column_stack([np.sin(2 * np.pi * x[:, 0]), np.cos(3 * x[:, 0])]) * 0.3 + 0.5
    y += rng.normal(scale=0.02, size=y.shape)
    enc = parse_encoding(spec)
    return prepare_train_data(x[:n_train], y[:n_train], x[n_train:], y[n_train:], enc)


@pytest.mark.parametrize(
    "acts", [(Activation.STEP, Activation.SIGN), (Activation.SIGN, Activation.STEP)]
)
def test_add_node_scores_match_the_scalar_oracle(acts):
    # both activations, fed by +-1 inputs (layer 1) and by the previous
    # layer's {0,1} or {-1,+1} values (layer 2), with two outputs
    data = _two_output_data(seed=4)
    cfg = TrainConfig((4, 2), acts, t_max=200, seed=4, tau=-1.0)
    state = TrainState(data, cfg)
    for k, (size, act) in enumerate(zip(cfg.layer_sizes, acts)):
        state.begin_layer()
        for _ in range(size):
            e_before = state.resid[: state.n_train].copy()
            s = state.cur_in
            res = add_node(state)
            assert res is not None and res.layer == k + 1
            w, lam, bias = _column_node(state)
            pre = (s @ w) * lam + bias
            h = (pre > 0).astype(np.float64)
            if act == Activation.STEP:
                h = h * 2 - 1
            # the column on every row, scored on the training rows
            assert np.array_equal(state.H[:, state.n_hidden - 1], h)
            h = h[: state.n_train]
            xi = (e_before.T @ h) ** 2 / (h @ h) - (1 - res.r) * (e_before**2).sum(axis=0)
            assert res.xi_sum == pytest.approx(xi.sum(), rel=1e-12)
            assert res.xi_min == pytest.approx(xi.min(), rel=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    fan_in=st.integers(1, 600),
    rows=st.integers(1, 12),
    zero_one=st.booleans(),
)
def test_threshold_bits_equal_the_float64_pre_activation(seed, fan_in, rows, zero_one):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=(rows, fan_in)).astype(np.float64)
    if not zero_one:
        s = s * 2.0 - 1.0
    # every scale code, each with seven raw biases: +-lambda, RAW_MAX, RAW_MIN
    # (whose negation overflows int32), 0, a random Q7.25 draw, and one that
    # puts row 0 exactly on the threshold, where it saturates
    shifts = np.arange(8)
    kinds = 7
    shift = np.repeat(shifts, kinds)
    w = rng.choice([-1.0, 1.0], size=(shift.size, fan_in))
    raw = np.empty(shift.size, dtype=np.int64)
    raw[0::kinds] = 1 << (shifts + 25)
    raw[1::kinds] = -raw[0::kinds]
    raw[2::kinds] = fx.RAW_MAX
    raw[3::kinds] = fx.RAW_MIN
    raw[4::kinds] = 0
    raw[5::kinds] = fx.quantize_array(rng.uniform(-1.0, 1.0, size=8) * 2.0**shifts)[0]
    raw[6::kinds] = -(w[6::kinds] @ s[0]).astype(np.int64) << (shifts + 25)
    bias_raw = fx.saturate_array(raw)
    # the float64 pre-activation is exact here: |dot| * 128 + 64 < 2**53
    pre = (s @ w.T) * np.ldexp(1.0, shift) + fx.dequantize_array(bias_raw)
    on_edge = np.abs(raw[6::kinds]) <= fx.RAW_MAX
    assert np.all(pre[0, 6::kinds][on_edge] == 0.0)

    # the bits overwrite the dots in place, as 0.0 and 1.0
    work = np.empty((rows, shift.size), dtype=np.float32)
    edge = threshold_edge(shift.astype(np.uint8), bias_raw)
    got = threshold_bits(s.astype(np.float32), w.astype(np.float32), edge.astype(np.float32), work)
    assert got is work
    assert np.array_equal(work, (pre > 0).astype(np.float32))


# -- exact candidate scores -------------------------------------------------


def _limb_rounded(col: np.ndarray) -> list[float]:
    """Each entry rounded, half to even, to the grid of its column's last limb."""
    step, count, _ = limb_layout(len(col))
    top = float(np.max(np.abs(col)))
    if top == 0.0:
        return [0.0] * len(col)
    unit = Fraction(2) ** (math.frexp(top)[1] + 1 - step * count)
    return [float(round(Fraction(float(v)) / unit) * unit) for v in col]


@pytest.mark.parametrize("n", [1, 7, 4096, 20000])
def test_residual_limb_dots_equal_fsum(n):
    rng = np.random.default_rng(n)
    half = n // 2
    e = np.zeros((n, 4))
    # on the limb grid: integers over 1024, a third of them zero
    e[:, 0] = rng.integers(-1000, 1001, size=n) * (rng.random(n) < 2 / 3) / 1024
    # pairs of arbitrary values that cancel exactly
    pairs = rng.normal(size=half) * 10.0 ** rng.uniform(-5, 5, size=half)
    e[: 2 * half, 1] = np.concatenate([pairs, -pairs])
    # magnitudes spread from 1e-30 to 1e3; column 3 stays all zero
    e[:, 2] = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-30, 3, size=n)
    both_of_a_pair = np.zeros(n, dtype=bool)
    both_of_a_pair[: 2 * half] = np.tile(rng.random(half) < 0.5, 2)
    bits = np.column_stack(
        [np.zeros(n), np.ones(n), rng.random(n) < 0.5, rng.random(n) < 0.1, both_of_a_pair]
    ).astype(np.float32)
    rounded = [_limb_rounded(e[:, q]) for q in range(4)]
    # nothing is dropped from the grid columns, so they are the raw entries
    assert rounded[0] == e[:, 0].tolist() and rounded[3] == e[:, 3].tolist()

    limbs = ResidualLimbs(e)
    for pm1 in (False, True):
        eh, count = limbs.dots(limbs.lhs @ bits, pm1)
        assert np.array_equal(count, bits.sum(axis=0))
        for j in range(bits.shape[1]):
            sign = np.where(bits[:, j] > 0, 1.0, -1.0 if pm1 else 0.0)
            for q in range(4):
                assert eh[q, j] == math.fsum(sign * rounded[q]), (pm1, j, q)
        # selected pairs cancel, and so do unselected ones under +-1
        assert eh[1, 4] == 0.0 and eh[3].tolist() == [0.0] * 5


def test_residual_limb_dots_round_once():
    # many entries below half the second limb's scale, whose sum the lower limbs
    # carry, and one entry on the second limb's grid that nearly cancels it:
    # one float64 sum of the scaled limb sums, smallest first, rounds twice here
    n = 20000
    step, _, _ = limb_layout(n)
    rng = np.random.default_rng(0)
    e = np.zeros((n, 1))
    e[0] = 0.75  # sets the column's scale, and is not selected
    e[2:, 0] = 2.0 ** (-2 * step) * (0.9 + 0.09 * rng.random(n - 2))
    grid = 2.0 ** (1 - 2 * step)
    e[1] = -np.rint(math.fsum(_limb_rounded(e[:, 0])[2:]) / grid) * grid
    bits = np.ones((n, 1), dtype=np.float32)
    bits[0] = 0.0
    limbs = ResidualLimbs(e)
    eh, _ = limbs.dots(limbs.lhs @ bits, pm1=False)
    assert eh[0, 0] == math.fsum(_limb_rounded(e[:, 0])[1:])


def test_residual_limb_dots_equal_fsum_over_uneven_row_blocks():
    # the limb sums of uneven row blocks, added in float32 in reverse order,
    # are the one product's sums, so the products stay the correctly rounded
    # sums of the selected entries
    n = 2 * SCORE_ROWS + 3
    rng = np.random.default_rng(5)
    e = rng.choice([-1.0, 1.0], size=(n, 2)) * 10.0 ** rng.uniform(-12, 2, size=(n, 2))
    bits = (rng.random((n, 6)) < [0.0, 1.0, 0.5, 0.5, 0.1, 0.9]).astype(np.float32)
    rounded = [_limb_rounded(e[:, q]) for q in range(2)]
    limbs = ResidualLimbs(e)
    cuts = [0, 1, 200, SCORE_ROWS + 7, n - 1, n]
    blocks = [limbs.lhs[:, a:b] @ bits[a:b] for a, b in zip(cuts, cuts[1:])]
    sums = np.zeros_like(blocks[0])
    for part in reversed(blocks):
        sums += part
    assert np.array_equal(sums, limbs.lhs @ bits)
    for pm1 in (False, True):
        eh, count = limbs.dots(sums, pm1)
        assert np.array_equal(count, bits.sum(axis=0))
        for j in range(bits.shape[1]):
            sign = np.where(bits[:, j] > 0, 1.0, -1.0 if pm1 else 0.0)
            for q in range(2):
                assert eh[q, j] == math.fsum(sign * rounded[q]), (pm1, j, q)


def test_limb_layout_keeps_every_sum_exact():
    for n in [1, 2, 3, 7, 255, 256, 3200, 4096, 20000, 2**20 + 1, 2**22, 2**23]:
        step, count, hi = limb_layout(n)
        # a limb has magnitude <= 2**(step - 1), so a sum over n rows fits float32
        assert n * 2 ** (step - 1) <= 2**24
        assert step * count >= LIMB_REACH
        # the two groups of scaled limb sums each add up exactly in float64
        assert step * (hi - 1) <= 28 and step * (count - hi - 1) <= 28
    with pytest.raises(ValueError, match="too many"):
        limb_layout(2**23 + 1)


def _refuse(*args):
    raise AssertionError("signals built before the check")


def test_training_checks_the_exactness_preconditions(monkeypatch):
    # the state checks before it allocates anything: layer 2 would have
    # fan-in 2**24, and t_max 10**5 makes a 100 MB work array
    data = _toy_data()
    monkeypatch.setattr(importlib.import_module("scmfpga.train"), "signals_pm1", _refuse)
    acts = (Activation.STEP, Activation.STEP)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="float32"):
            TrainState(data, TrainConfig((2**24, 1), acts, t_max=10**5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="float32"):
        train(data, TrainConfig((2**24, 1), acts))
    # one node fewer passes the check and goes on to build the signals
    with pytest.raises(AssertionError, match="signals built"):
        train(data, TrainConfig((2**24 - 1, 1), acts))


def test_train_data_width_is_a_multiple_of_the_encoding():
    enc = parse_encoding("density:4")
    bits, _ = encode_matrix(np.random.default_rng(18).uniform(size=(10, 2)), enc)
    y = np.zeros(10)
    assert TrainData(bits, y, 6, enc).bits.n == 8
    odd = BitMatrix.from01(np.ones((10, 6), dtype=np.uint8))
    with pytest.raises(ValueError, match="multiple of 4 bits"):
        TrainData(odd, y, 6, enc)


def test_train_data_needs_an_encoded_bit_and_a_target_column():
    enc = parse_encoding("density:4")
    x, y = np.random.default_rng(21).uniform(size=(10, 1)), np.zeros((10, 1))
    bits, _ = encode_matrix(x, enc)
    none = BitMatrix.from01(np.zeros((10, 0), np.uint8))
    for b, targets in [(none, y), (bits, y[:, :0])]:
        with pytest.raises(ValueError, match="at least 1 encoded bit and 1 target column"):
            TrainData(b, targets, 6, enc)
    with pytest.raises(ValueError, match="at least 1 encoded bit"):
        prepare_train_data(x[:6, :0], y[:6], x[6:, :0], y[6:], enc)


@pytest.mark.parametrize("use_mechanism", [True, False])
@pytest.mark.parametrize("row", [5, 33], ids=["training", "validation"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_train_data_refuses_a_non_finite_target(value, row, use_mechanism):
    # a NaN validation target would make every validation RMSE NaN, which early
    # stopping reads as no improvement, so each layer would end at one node
    rng = np.random.default_rng(22)
    x, y = rng.uniform(size=(40, 2)), rng.normal(size=(40, 2))
    y[row, 1] = value
    cfg = TrainConfig.single_layer(30, Activation.STEP, use_mechanism=use_mechanism)
    with pytest.raises(ValueError, match=f"non-finite target at row {row}, column 1"):
        train(prepare_train_data(x[:30], y[:30], x[30:], y[30:], parse_encoding("s1:2")), cfg)


def test_the_state_refuses_too_few_rows_for_the_l1_fit_before_it_allocates(monkeypatch):
    data = _toy_data(n_train=1, n_val=3)
    monkeypatch.setattr(importlib.import_module("scmfpga.train"), "signals_pm1", _refuse)
    with pytest.raises(ValueError, match="L1 mechanism fit needs at least 2 training rows, not 1"):
        TrainState(data, TrainConfig.single_layer(2))
    # without the mechanism one training row is enough
    with pytest.raises(AssertionError, match="signals built"):
        TrainState(data, TrainConfig.single_layer(2, use_mechanism=False))


def test_train_data_is_one_row_set_with_the_training_rows_first():
    enc = parse_encoding("s1:2")
    rng = np.random.default_rng(20)
    x_tr, x_va = rng.uniform(size=(7, 3)), rng.uniform(size=(4, 3))
    y_tr, y_va = rng.normal(size=(7, 2)), rng.normal(size=(4, 2))
    data = prepare_train_data(x_tr, y_tr, x_va, y_va, enc)
    # each set encoded alone gives the same bits, stacked in this order
    alone = [encode_matrix(x, enc)[0].to01() for x in (x_tr, x_va)]
    assert data.n_train == 7 and np.array_equal(data.bits.to01(), np.vstack(alone))
    assert np.array_equal(data.y, np.vstack([y_tr, y_va]))
    # at least one row on each side of n_train, and one target per row
    for n_train in (-1, 0, 11, 12):
        with pytest.raises(ValueError, match="at least 1 training and 1 validation"):
            TrainData(data.bits, data.y, n_train, enc)
    with pytest.raises(ValueError, match="10 targets do not match 11 inputs"):
        TrainData(data.bits, data.y[:10], 7, enc)
    with pytest.raises(ValueError, match="targets do not match inputs"):
        prepare_train_data(x_tr, y_tr[:6], x_va, np.vstack([y_va, y_va[:1]]), enc)
    # the two sets must have the same features
    with pytest.raises(ValueError, match="3 training features against 2 validation"):
        prepare_train_data(x_tr, y_tr, x_va[:, :2], y_va, enc)


def test_one_dimensional_samples_are_one_column():
    rng = np.random.default_rng(19)
    x = rng.uniform(size=50)
    y = np.sin(3 * x)
    enc = parse_encoding("density:4")
    flat = prepare_train_data(x[:25], y[:25], x[25:], y[25:], enc)
    cols = prepare_train_data(x[:25, None], y[:25, None], x[25:, None], y[25:, None], enc)
    assert flat.n_train == cols.n_train == 25
    assert (len(flat.bits), flat.bits.n) == (50, 4)
    assert np.array_equal(flat.bits.words, cols.bits.words)
    assert flat.y.shape == (50, 1) and np.array_equal(flat.y, cols.y)
    model = random_model(19, 4, [(3, Activation.STEP)])
    assert evaluate_bits(model, flat.bits[25:], y[25:]).rmse_fpga == \
        evaluate_bits(model, flat.bits[25:], y[25:, None]).rmse_fpga


def test_predict_float_refuses_an_inexact_pre_activation(monkeypatch):
    check_fan_in(2**24 - 1)
    with pytest.raises(ValueError, match="float32"):
        check_fan_in(2**24)
    model = _tiny_model()
    bits = BitMatrix.from01(np.ones((1, model.d_enc), dtype=np.uint8))
    predict_float_batch(model, bits)
    # a layer of one node of fan-in 2**24 is refused before any signal is built
    wide = layer(Activation.SIGN, np.ones((1, 2**24), np.uint8))
    monkeypatch.setattr(importlib.import_module("scmfpga.model"), "signals_pm1", _refuse)
    with pytest.raises(ValueError, match="float32"):
        layer_forward_float(wide)


def _oracle_add_node(state, rng):
    """add_node's choice from the same draws, with every e^T h summed by math.fsum."""
    cfg = state.cfg
    act = cfg.activations[len(state.layer_sizes) - 1]
    s = state.cur_in[: state.n_train]
    e = state.resid[: state.n_train]
    fan_in = s.shape[1]
    ee = np.einsum("ij,ij->j", e, e)
    pool = np.array(cfg.lambda_pool, dtype=np.float64)
    for attempt, r in enumerate(cfg.r_schedule, start=1):
        w = rng.integers(0, 2, size=(cfg.t_max, fan_in), dtype=np.int8) * 2.0 - 1.0
        lam = rng.choice(pool, size=cfg.t_max)
        b = fx.dequantize_array(fx.quantize_array(rng.uniform(-lam, lam))[0])
        best, passed = None, 0
        for j in range(cfg.t_max):
            bit = (s @ w[j]) * lam[j] + b[j] > 0
            h = bit * 2.0 - 1.0 if act == Activation.STEP else bit * 1.0
            hh = float(h @ h)
            if hh == 0.0:
                continue
            xi = []
            for q in range(e.shape[1]):
                eh = math.fsum(e[:, q] * h)
                xi.append(eh * eh / hh - (1.0 - r) * ee[q])
            if min(xi) > 0:
                passed += 1
                if best is None or sum(xi) > sum(best[1]):
                    best = (j, xi)
        if best is not None:
            j, xi = best
            return dict(attempt=attempt, w=w[j], lam=lam[j], bias=b[j], passed=passed,
                        xi_sum=sum(xi))
    return None


@given(
    seed=st.integers(0, 2**32 - 1),
    act=st.sampled_from([Activation.STEP, Activation.SIGN]),
    m=st.integers(1, 3),
    rows=st.integers(2, 40),
    fan_in=st.integers(1, 4),
    t_max=st.integers(1, 40),
    levels=st.integers(1, 8),
    nodes=st.integers(1, 4),
)
def test_add_node_matches_an_fsum_oracle(seed, act, m, rows, fan_in, t_max, levels, nodes):
    _check_add_node_against_the_oracle(seed, act, m, rows, fan_in, t_max, levels, nodes)


@given(
    seed=st.integers(0, 2**32 - 1),
    act=st.sampled_from([Activation.STEP, Activation.SIGN]),
    m=st.integers(1, 3),
    rows=st.integers(2, 60),
    fan_in=st.integers(1, 4),
    t_max=st.integers(1, 40),
    levels=st.integers(1, 8),
    nodes=st.integers(1, 4),
    block=st.integers(1, 7),
)
def test_add_node_matches_an_fsum_oracle_in_small_score_blocks(seed, act, m, rows, fan_in, t_max,
                                                               levels, nodes, block):
    # blocks of 1 to 7 rows, so candidates are dropped between blocks
    with mock.patch.object(importlib.import_module("scmfpga.train"), "SCORE_ROWS", block):
        _check_add_node_against_the_oracle(seed, act, m, rows, fan_in, t_max, levels, nodes)


@pytest.mark.parametrize("act", [Activation.STEP, Activation.SIGN])
def test_add_node_matches_an_fsum_oracle_across_score_blocks(act, monkeypatch):
    widths = []  # (rows, candidates) of each threshold_bits call

    def spy(s32, w32, edge32, work):
        widths.append(work.shape)
        return threshold_bits(s32, w32, edge32, work)

    monkeypatch.setattr(importlib.import_module("scmfpga.train"), "threshold_bits", spy)
    # two full blocks of SCORE_ROWS training rows and a partial one of 3
    accepted = _check_add_node_against_the_oracle(
        seed=7, act=act, m=2, rows=2 * SCORE_ROWS + 3, fan_in=12, t_max=40, levels=8, nodes=3)
    assert accepted == 3
    # an attempt's first block scores all 40 candidates; later blocks fewer
    # once some provably cannot pass
    later = [k for rows, k in widths if rows in (SCORE_ROWS, 3)]
    assert max(later) == 40 and min(later) < 40


def _check_add_node_against_the_oracle(seed, act, m, rows, fan_in, t_max, levels, nodes):
    """add_node against _oracle_add_node on the same draws; the nodes accepted."""
    # a thermometer code of fan_in bits has fan_in + 1 distinct rows, so the
    # draws repeat candidates, and targets on a few levels make exact ties
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(rows + 2, 1))
    y = rng.integers(0, levels, size=(rows + 2, m)) / 8.0
    data = prepare_train_data(x[:rows], y[:rows], x[rows:], y[rows:],
                              parse_encoding(f"density:{fan_in}"))
    cfg = TrainConfig.single_layer(nodes, act, t_max=t_max, use_mechanism=False, seed=seed)
    state = TrainState(data, cfg)
    state.begin_layer()
    for k in range(nodes):
        want = _oracle_add_node(state, copy.deepcopy(state.rng))
        got = add_node(state)
        if want is None:
            assert got is None
            return k
        w, lam, bias = _column_node(state)
        assert got.r_attempts == want["attempt"] and got.passed == want["passed"]
        assert np.array_equal(w, want["w"])
        assert lam == want["lam"] == got.lam and bias == want["bias"]
        assert got.xi_sum == pytest.approx(want["xi_sum"], rel=1e-12)
    return nodes


def test_add_node_builds_no_float64_candidate_array():
    n, t = 3000, 500
    data = _toy_data(seed=13, n_train=n, n_val=50, spec="s1:3")
    cfg = TrainConfig.single_layer(1, Activation.STEP, t_max=t, use_mechanism=False, seed=13)
    state = TrainState(data, cfg)
    state.begin_layer()
    tracemalloc.start()
    try:
        res = add_node(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res is not None
    assert state.work.shape == (SCORE_ROWS, t) and state.work.dtype == np.float32
    # rows are scored in blocks: one (N, t) float32 array alone would take
    # 4 * n * t bytes
    assert peak < n * t


@pytest.mark.parametrize("use_mechanism", [False, True])
def test_training_holds_one_signal_matrix_at_a_time(use_mechanism):
    n, k = 3000, 500
    rng = np.random.default_rng(23)
    x = rng.uniform(size=(n + k, 8))
    y = np.sin(2 * np.pi * x.sum(axis=1, keepdims=True)) * 0.3 + 0.5
    data = prepare_train_data(x[:n], y[:n], x[n:], y[n:], parse_encoding("s2v1"))
    f64 = 8 * len(data.bits) * data.bits.n  # one float64 (N + K, d_enc) matrix
    cfg = TrainConfig((3, 1), (Activation.STEP, Activation.STEP), t_max=100,
                      use_mechanism=use_mechanism, seed=23)
    tracemalloc.start()
    try:
        state = TrainState(data, cfg)
        dtypes, added = [], []
        for size in cfg.layer_sizes:
            state.begin_layer()
            dtypes.append(state.cur_in.dtype)
            added += [add_node(state) for _ in range(size)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert None not in added and not hasattr(state, "in_ordered")
    # each layer's signals are one int8 matrix, and the L1 fit, its targets
    # and candidate scoring read float copies of a few rows at a time, so no
    # float signal matrix is built: one int8 matrix takes an eighth of f64
    assert dtypes == [np.int8, np.int8]
    assert peak < f64 // 2


def test_preallocated_readout_matches_column_stack():
    data = _toy_data(seed=14, n_train=150, n_val=40, spec="s2v1", noise=0.02)
    cfg = TrainConfig((2, 2), (Activation.STEP, Activation.SIGN), t_max=200, seed=14)
    state = TrainState(data, cfg)  # capacity 4: the sixth layer-1 node doubles it twice

    def columns(s, nodes, act):
        # activation values: {0, 1} for SIGN, {-1, +1} for STEP
        bits = [((s @ w) * lam + bias > 0).astype(np.float64) for w, lam, bias in nodes]
        return [2.0 * b - 1.0 for b in bits] if act == Activation.STEP else bits

    def check():
        # every column on every row, the training rows first
        cols, s, n = [], signals_pm1(data.bits), data.n_train
        assert sum(state.layer_sizes) == len(state.nodes) == state.n_hidden
        ends = np.cumsum(state.layer_sizes)
        for end, size, act in zip(ends, state.layer_sizes, cfg.activations):
            nodes = [_column_node(state, k) for k in range(end - size, end)]
            layer_cols = columns(s, nodes, act)
            cols += layer_cols
            s = np.column_stack(layer_cols)
        h = np.column_stack(cols)
        # the QR readout is lstsq's far below the Q7.25 resolution (2**-25)
        beta = state.beta
        assert np.max(np.abs(beta - least_squares(h[:n], state.target[:n]))) <= 2.0**-40
        assert np.array_equal(state.resid, state.target - h @ beta)
        return h

    state.begin_layer()
    for _ in range(6):
        assert add_node(state) is not None
        check()
    assert state.H.shape[1] == 8
    state.remove_trailing(2)
    check()
    assert add_node(state) is not None  # rewrites a removed column
    h_layer1 = check()
    state.begin_layer()  # layer 2 reads layer 1's columns
    assert np.array_equal(state.cur_in, h_layer1)
    for _ in range(2):
        assert add_node(state).layer == 2
        check()
    # a large configured node count is not allocated up front
    big = TrainState(data, TrainConfig.single_layer(1000, t_max=10, seed=14))
    assert big.H.shape == (len(data.bits), 64)


def _check_readout(state, before):
    """The QR readout against the lstsq oracle, and the residuals against beta.

    A dependent column gets readout 0, so the oracle fits only the columns
    that have a column of R; it fits the training rows, the first n_train.
    `before` is the residual of the previous state, on every row, or None;
    after a dependent append the residuals must be exactly those.
    """
    assert len(state.nodes) == len(state.in_basis) == state.n_hidden == sum(state.layer_sizes)
    cols = np.array(state.in_basis, dtype=bool)
    n, h = state.n_train, state.H[:, : state.n_hidden]
    oracle = np.zeros((state.n_hidden, state.m))
    if cols.any():
        oracle[cols] = least_squares(h[:n, cols], state.target[:n])
    assert np.all(np.abs(state.beta - oracle) <= 2.0**-40 * np.maximum(1.0, np.abs(oracle)))
    if before is not None and state.in_basis and not state.in_basis[-1]:
        assert np.array_equal(state.resid, before)
    else:
        assert np.array_equal(state.resid, state.target - h @ state.beta)
    return state.resid.copy()


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    acts=st.lists(st.sampled_from([Activation.STEP, Activation.SIGN]), min_size=1, max_size=3),
    sizes=st.lists(st.integers(1, 6), min_size=3, max_size=3),
    drops=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    bits=st.sampled_from([3, 8, 70]),
    rows=st.integers(6, 60),
    m=st.integers(1, 2),
    levels=st.integers(2, 8),
)
def test_incremental_readout_matches_the_lstsq_oracle(seed, acts, sizes, drops, bits, rows, m,
                                                      levels):
    # density:70 gives layer 1 a fan-in above 64; targets on a few levels
    # allow exact fits, after which a dependent column can pass
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(rows + 4, 1))
    y = rng.integers(0, levels, size=(rows + 4, m)) / 8.0
    data = prepare_train_data(x[:rows], y[:rows], x[rows:], y[rows:],
                              parse_encoding(f"density:{bits}"))
    cfg = TrainConfig(tuple(sizes[: len(acts)]), tuple(acts), t_max=40, use_mechanism=False,
                      seed=seed)
    state = TrainState(data, cfg)
    before = _check_readout(state, None)
    for size, drop in zip(cfg.layer_sizes, drops):
        state.begin_layer()
        for _ in range(size):
            rmse = state.train_rmse()
            if add_node(state) is None:
                break
            before = _check_readout(state, before)
            assert state.train_rmse() <= rmse + 1e-12
        kept = state.layer_sizes[-1]
        if kept == 0:
            return
        # an early stop that keeps at least one node, then a node that
        # rewrites a removed column
        drop = min(drop, kept - 1)
        if drop:
            state.remove_trailing(drop)
            before = _check_readout(state, None)
            if add_node(state) is not None:
                before = _check_readout(state, before)


def test_a_dependent_column_gets_readout_zero():
    data = _two_output_data(seed=15)
    cfg = TrainConfig.single_layer(5, Activation.STEP, t_max=100, use_mechanism=False, seed=15)
    state = TrainState(data, cfg)
    state.begin_layer()
    for _ in range(3):
        assert add_node(state) is not None
    beta, before = state.beta.copy(), _check_readout(state, None)
    # a copy of the second column adds no rank
    state.append_node(state.nodes[1], state.H[:, 1].copy())
    assert state.n_hidden == 4 and state.in_basis.count(False) == 1
    assert state.in_basis == [True, True, True, False]
    assert np.array_equal(state.beta, np.vstack([beta, np.zeros((1, 2))]))
    assert np.array_equal(state.resid, before)
    assert add_node(state) is not None
    assert state.in_basis == [True, True, True, False, True]
    _check_readout(state, None)
    state.remove_trailing(2)
    assert state.in_basis.count(False) == 0
    assert np.array_equal(state.beta, beta)
    assert state.finalize().layer_sizes == (3,)


def test_an_ill_conditioned_column_sequence_matches_the_lstsq_oracle():
    # column i is one +-1 column with its first i rows flipped, so each new
    # column is mostly the span of the others; the readout's correction pass
    # keeps beta at the oracle and the residuals at target - H beta
    n = 3200
    data = _toy_data(seed=17, n_train=n, n_val=10)
    state = TrainState(data, TrainConfig.single_layer(12, use_mechanism=False))
    state.begin_layer()
    h = np.random.default_rng(17).choice([-1.0, 1.0], size=n)
    for i in range(12):
        col = h.copy()
        col[:i] *= -1.0
        state.append_node((np.ones(6, np.uint8), 0, 0), np.concatenate([col, np.ones(10)]))
    assert state.in_basis.count(False) == 0
    _check_readout(state, None)


def test_a_near_exact_fit_of_near_collinear_columns_needs_the_correction_pass():
    # column i is one +-1 column with row i - 1 flipped, so the 40 columns are
    # nearly collinear (cond(R) about 1.1e3), and the target lies in their span
    # up to 1e-6 noise. Without append_node's correction pass the seminormal
    # equations miss the oracle by about 1e-11, above 2**-40; with it, by 1e-13
    n, k = 3200, 40
    data = _toy_data(seed=17, n_train=n, n_val=10)
    rng = np.random.default_rng(17)
    cols = np.ones((n + 10, k), np.int8)
    cols[:n] = rng.choice([-1, 1], size=(n, 1))
    cols[np.arange(k - 1), np.arange(1, k)] *= -1
    data.y[:, 0] = cols @ rng.uniform(-1.0, 1.0, size=k) + rng.normal(scale=1e-6, size=n + 10)
    state = TrainState(data, TrainConfig.single_layer(k, use_mechanism=False))
    state.begin_layer()
    for i in range(k):
        state.append_node((np.ones(6, np.uint8), 0, 0), cols[:, i])
    assert state.in_basis.count(False) == 0 and np.linalg.cond(state.R[:k, :k]) > 1e3
    _check_readout(state, None)


@pytest.mark.parametrize("use_mechanism", [True, False])
def test_training_solves_no_least_squares_problem(monkeypatch, use_mechanism):
    # the readout is an incremental QR and the L1 fit's warm start one LU
    # solve, so training reaches neither least_squares nor an SVD
    orig = scmfpga.linalg.least_squares
    seen = []

    def counted(h, t):
        seen.append(h.shape)
        return orig(h, t)

    def refused(*args, **kwargs):
        raise AssertionError("training ran an SVD")

    for name, mod in list(sys.modules.items()):
        if name == "scmfpga" or name.startswith("scmfpga."):
            for attr in [a for a, v in vars(mod).items() if v is orig]:
                monkeypatch.setattr(mod, attr, counted)
    data = _toy_data(seed=16, n_train=150, n_val=40, spec="s2v1", noise=0.02)
    cfg = TrainConfig((6, 4, 3), (Activation.STEP, Activation.SIGN, Activation.STEP),
                      t_max=200, use_mechanism=use_mechanism, seed=16, tau=-1.0)
    for attr in ("lstsq", "svd", "pinv"):
        monkeypatch.setattr(np.linalg, attr, refused)
    result = train(data, cfg)
    assert len(result.records) == 13
    assert seen == []


# -- full training ---------------------------------------------------------


def test_train_mechanism_only():
    data = _toy_data()
    cfg = TrainConfig((), (), seed=0)
    result = train(data, cfg)
    model = result.model
    assert model.layer_sizes == ()
    bits = data.bits[data.n_train :]
    out = predict_float_batch(model, bits)
    s = signals_pm1(bits)
    expected = s @ model.mechanism.weights + model.mechanism.intercepts
    assert np.allclose(out, expected, atol=1e-12)


def test_train_without_the_mechanism_carries_none():
    # the model file records the mechanism's source, so its bytes depend on it
    cfg = TrainConfig.single_layer(3, t_max=50, use_mechanism=False, seed=0)
    model = train(_toy_data(), cfg).model
    mech = model.mechanism
    assert mech.source == "none" and mech.saturated == 0 and mech.fit is None
    assert (mech.d_enc, mech.n_outputs) == (model.d_enc, model.n_outputs)
    assert not mech.weights_raw.any() and not mech.intercepts_raw.any()


def test_train_zero_residual_fails():
    data = _toy_data()
    data.y[:] = 0.25
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=20, seed=0)
    with pytest.raises(TrainingFailedError):
        train(data, cfg)


def _per_code_rms(data):
    """The rms of the mechanism's training residual, and after removing its mean per input code."""
    n = data.n_train
    resid = TrainState(data, TrainConfig.single_layer(1)).resid[:n, 0]
    _, code = np.unique(data.bits[:n].to01(), axis=0, return_inverse=True)
    means = np.bincount(code, resid) / np.bincount(code)
    return np.sqrt(np.mean(resid * resid)), np.sqrt(np.mean((resid - means[code]) ** 2))


def test_a_mechanism_that_spans_every_code_leaves_no_first_node():
    # density:6 on one feature has seven codes; six +-1 thermometer columns and
    # the intercept span every function of them, so the mechanism's residual
    # is orthogonal to every candidate: up to the L1 penalty's shrinkage, its
    # per-code means are zero and removing them leaves its rms as it is.
    # s2v1's columns do not span its codes, which is why the tests that train
    # nodes with the mechanism on use it
    before, after = _per_code_rms(_toy_data())
    assert after == pytest.approx(before, rel=1e-8)
    before, after = _per_code_rms(_toy_data(spec="s2v1"))
    assert after < 0.7 * before
    data = _toy_data()
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=100, seed=0)
    with pytest.raises(TrainingFailedError, match="the mechanism may leave nothing"):
        train(data, cfg)
    off = train(data, TrainConfig.single_layer(3, Activation.STEP, t_max=100,
                                               use_mechanism=False, seed=0))
    assert off.model.layer_sizes[0] >= 1


def test_records_count_nodes_from_1_within_each_layer():
    # l_step 2 stops both layers early, and each stop removes trailing nodes
    data = _two_output_data(seed=2)
    cfg = TrainConfig((8, 6), (Activation.STEP, Activation.SIGN), t_max=100, l_step=2, seed=2)
    result = train(data, cfg)
    stops = {ev["layer"]: ev["removed"] for ev in result.events if ev["event"] == "early_stop"}
    assert set(stops) == {1, 2} and min(stops.values()) > 0
    for layer, size in enumerate(result.model.layer_sizes, start=1):
        nodes = [rec.node for rec in result.records if rec.layer == layer]
        assert nodes == list(range(1, len(nodes) + 1))
        assert size == len(nodes) - stops[layer]
    assert [rec.layer for rec in result.records] == sorted(rec.layer for rec in result.records)


def test_train_planted_node_recovered():
    rng = np.random.default_rng(42)
    x = rng.uniform(size=(120, 1))
    enc = parse_encoding("density:4")
    bits, _ = encode_matrix(x, enc)
    s = signals_pm1(bits)
    w = np.array([1, -1, 1, 1], dtype=np.float64)
    h = ((s @ w + 0.3) > 0).astype(np.float64) * 2 - 1
    y = (0.7 * h)[:, None]
    data = TrainData(bits, y, 100, enc)
    cfg = TrainConfig.single_layer(
        1, Activation.STEP, t_max=2000, lambda_pool=(1,), use_mechanism=False, seed=3
    )
    result = train(data, cfg)
    assert result.records[-1].train_rmse < 1e-9
    assert result.records[-1].val_rmse < 1e-9


def test_train_residual_monotone():
    data = _toy_data(seed=5, spec="s2v1")
    cfg = TrainConfig.single_layer(10, Activation.STEP, t_max=100, seed=5, tau=-1.0)
    result = train(data, cfg)
    rmses = [r.train_rmse for r in result.records]
    for a, b in zip(rmses, rmses[1:]):
        assert b <= a + 1e-10


def test_train_rollback_path():
    data = _toy_data(seed=6, spec="s2v1")
    cfg = TrainConfig.single_layer(10, Activation.STEP, t_max=100, seed=6, l_step=2, tau=1e9)
    result = train(data, cfg)
    assert any(ev["event"] == "early_stop" for ev in result.events)
    # an absurd tolerance rolls the layer back to a single node
    assert result.model.layer_sizes == (1,)


def test_train_deep_model_and_log():
    # a 16-bit encoding gives layer 2 a rich enough input space to fill
    data = _toy_data(seed=7, n_train=150, n_val=40, spec="s2v1", noise=0.02)
    cfg = TrainConfig(
        layer_sizes=(10, 4),
        activations=(Activation.STEP, Activation.SIGN),
        t_max=300,
        seed=7,
        tau=-1.0,
    )
    result = train(data, cfg)
    assert result.model.layer_sizes == (10, 4)
    assert result.model.layers[0].fan_in == data.encoding.bits_per_input
    assert result.model.layers[1].fan_in == 10
    lines = result.log_text().splitlines()
    node_lines = [ln for ln in lines if ln.startswith("layer=")]
    assert len(node_lines) == 14
    assert node_lines[0].startswith("layer=1 node=1 r=")
    assert "val_rmse=" in node_lines[0]
    assert "r_attempts=" in node_lines[0]
    assert [ln.split()[0] for ln in node_lines[-4:]] == ["layer=2"] * 4
    # no early stop here, so the only events are the L1 fit, the readout's
    # dependent columns and the saturation counts
    event_lines = [ln for ln in lines if not ln.startswith("layer=")]
    assert [ln.split()[0] for ln in event_lines] == [
        "event=l1_fit", "event=readout", "event=saturation"]
    assert event_lines[1] == "event=readout dependent_columns=0"
    assert "converged=True" in event_lines[0]
    # the objective prints at %.9g, as the records' floats do
    assert f" objective={result.events[0]['objective']:.9g} " in event_lines[0]
    # the integer bit is constant: the toy inputs lie in [0, 1) and no row sets it
    s = signals_pm1(data.bits[: data.n_train])
    constant = int(np.count_nonzero((s == s[0]).all(axis=0)))
    assert constant >= 1
    assert result.events[0]["constant_columns"] == constant
    assert event_lines[0].endswith(f" constant_columns={constant}")
    for rec in result.records:
        assert cfg.r_schedule[rec.r_attempts - 1] == rec.r
        assert rec.drawn == rec.r_attempts * cfg.t_max
        assert 1 <= rec.passed <= cfg.t_max


def test_train_reports_an_l1_fit_at_its_sweep_cap(monkeypatch):
    data = _toy_data(seed=10, spec="s2v1")

    monkeypatch.setattr(scmfpga.linalg, "LASSO_MAX_SWEEPS", 1)
    cfg = TrainConfig((), (), seed=10)
    with pytest.warns(UserWarning, match="sweep cap"):
        result = train(data, cfg)
    (fit,) = [ev for ev in result.events if ev["event"] == "l1_fit"]
    assert fit["sweeps"] == 1 and fit["converged"] is False
    assert "event=l1_fit sweeps=1 converged=False" in result.log_text()


def test_train_counts_saturated_bias_draws():
    data = _toy_data(seed=11, spec="s2v1")
    for pool, clamps in [((1, 2, 4), False), ((128,), True)]:
        cfg = TrainConfig.single_layer(2, Activation.STEP, t_max=50, lambda_pool=pool, seed=11)
        ev = train(data, cfg).events[-1]
        assert ev["event"] == "saturation"
        assert (ev["bias_draws"] > 0) == clamps
        assert ev["targets_outside"] == ev["mechanism"] == ev["readouts"] == 0


def test_finalize_counts_saturated_readouts():
    data = _toy_data(seed=12, spec="s2v1")
    cfg = TrainConfig.single_layer(2, Activation.STEP, t_max=50, seed=12)
    state = TrainState(data, cfg)
    state.begin_layer()
    assert add_node(state) is not None
    state.beta[:] = 100.0
    model = state.finalize()
    assert model.layers[0].saturated == state.m
    assert model.layers[0].beta_raw[0, 0] == fx.RAW_MAX


def test_raw_targets_outside_q725_are_reported():
    # db2 with raw Rastrigin targets: y reaches ~80, beyond the Q7.25 range
    ds = split(gen_db2(seed=5, scale=0.02, normalize_targets=False), 0.2, seed=5)
    assert ds.y.max() > 64.0
    spec = parse_encoding("s1:3")
    data = prepare_train_data(
        ds.x_norm(ds.train_idx), ds.y[ds.train_idx],
        ds.x_norm(ds.val_idx), ds.y[ds.val_idx], spec,
    )
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=100, seed=5)
    with pytest.warns(UserWarning, match=r"training targets .* outside the Q7\.25 range"):
        result = train(data, cfg)
    ev = result.events[-1]
    assert ev["event"] == "saturation"
    n = data.n_train
    assert ev["targets_outside"] == int(np.count_nonzero(data.y[:n] >= 64.0)) > 0
    # the emulated outputs on those rows clamp, and evaluation counts them
    rep = evaluate_bits(result.model, data.bits[:n], data.y[:n], "both")
    assert rep.saturated.sum() > 0


@pytest.mark.parametrize("normalize", [True, False])
def test_eval_report_says_whether_the_bound_applies(normalize):
    ds = split(gen_db2(seed=6, scale=0.02, normalize_targets=normalize), 0.2, seed=6)
    data = prepare_train_data(
        ds.x_norm(ds.train_idx), ds.y[ds.train_idx],
        ds.x_norm(ds.val_idx), ds.y[ds.val_idx], parse_encoding("s1:3"),
    )
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=100, seed=6)
    with warnings.catch_warnings():
        # test_raw_targets_outside_q725_are_reported checks the raw targets' warning
        warnings.simplefilter("ignore", UserWarning)
        model = train(data, cfg).model
    bits, y = data.bits[: data.n_train], data.y[: data.n_train]
    rep = evaluate_bits(model, bits, y, "both")
    assert rep.bound_applies is normalize
    assert (rep.max_output_delta <= quantization_bound(model)) is normalize
    # without the emulated path nothing was clamped
    assert evaluate_bits(model, bits, y, "pc").bound_applies


def test_train_determinism():
    data = _toy_data(seed=8, spec="s2v1")
    cfg = TrainConfig.single_layer(6, Activation.STEP, t_max=50, seed=8)
    m1 = train(data, cfg).model
    m2 = train(data, cfg).model
    assert model_to_bytes(m1) == model_to_bytes(m2)


@pytest.mark.parametrize("spec, cfg, model_sha, records_sha", [
    ("s1:3", TrainConfig.single_layer(12, Activation.STEP, seed=2),
     "0a242a91838d79320d325bfefdebca233da6d901778f1fb5d7675466e14de1ea",
     "32fa11f0a5c7af17ff8b0a7987d3f3ac06f1adf0bf209e728af847e075861e83"),
    ("s1:4", TrainConfig((6, 6, 6), (Activation.STEP, Activation.SIGN, Activation.STEP),
                         use_mechanism=False, seed=2),
     "d581b9ce8609e847729a0e7cfdbb76daf740e420852d1157401ed7c619e6b3bc",
     "25119d1c11b6e457f8886b03887da068b356db7d1dbb82f172d1f1804a56b65e"),
], ids=["one-step-layer", "step-sign-step"])
def test_trained_model_bytes_and_records_match_the_pins(spec, cfg, model_sha, records_sha):
    # the benchmark's shapes at 640 training rows: the hardware model and the
    # per-node records, which do not depend on the BLAS build, are pinned, so
    # a change to candidate scoring cannot change which nodes are accepted
    ds = split(gen_db2(seed=2, scale=0.02), 0.2, seed=2)
    data = prepare_train_data(ds.x_norm(ds.train_idx), ds.y[ds.train_idx], ds.x_norm(ds.val_idx),
                              ds.y[ds.val_idx], parse_encoding(spec))
    result = train(data, cfg)
    blob = model_to_bytes(result.model, include_floats=False)
    records = "\n".join(rec.to_kv() for rec in result.records)
    assert hashlib.sha256(blob).hexdigest() == model_sha
    assert hashlib.sha256(records.encode()).hexdigest() == records_sha


# trains a two-layer model with the mechanism on, then prints its file without
# the float sidecar and its per-node records
BLAS_RUN = """
import scmfpga as s
ds = s.split(s.gen_db2(seed=3, scale=0.05), 0.2, seed=3)
data = s.prepare_train_data(ds.x_norm(ds.train_idx), ds.y[ds.train_idx],
                            ds.x_norm(ds.val_idx), ds.y[ds.val_idx], s.parse_encoding("s1:3"))
cfg = s.TrainConfig((12, 8), (s.Activation.STEP, s.Activation.SIGN), t_max=200, seed=3)
result = s.train(data, cfg)
print(s.model_to_bytes(result.model, include_floats=False).hex())
print(*(rec.to_kv() for rec in result.records), sep="\\n")
"""


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs an OpenBLAS built with DYNAMIC_ARCH")
def test_raw_model_and_records_do_not_depend_on_the_blas_build():
    # another OpenBLAS core or thread count may round the float sidecar
    # differently (the L1 fit and the readout refit), but not the raw
    # parameters or the records
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])

    def run(**setting):
        return subprocess.run([sys.executable, "-c", BLAS_RUN], env={**env, **setting},
                              capture_output=True, text=True, check=True).stdout

    default = run()
    assert "layer=2 node=1 " in default  # both layers grew
    assert run(OPENBLAS_CORETYPE="Sandybridge") == default
    assert run(OPENBLAS_CORETYPE="Prescott") == default
    assert run(OPENBLAS_NUM_THREADS="2") == default


def test_train_quantization_delta_bound():
    data = _toy_data(seed=9, spec="s2v1")
    cfg = TrainConfig.single_layer(8, Activation.STEP, t_max=100, seed=9)
    model = train(data, cfg).model
    bound = quantization_bound(model)
    bits = BitMatrix.from01(np.random.default_rng(0).integers(0, 2, size=(200, model.d_enc)))
    for f, b in zip(predict_float_batch(model, bits), rows(bits)):
        g = fx.dequantize_array(predict_fpga(model, b))
        assert np.max(np.abs(f - g)) <= bound


# -- reference prediction --------------------------------------------------


def _tiny_model():
    return random_model(0, 6, ((3, Activation.STEP), (2, Activation.SIGN)))


def _straight_line_eval(model, x01):
    """Independent scalar evaluator following the model definition."""
    signal = x01 * 2.0 - 1.0
    out = signal @ model.mechanism.weights + model.mechanism.intercepts
    for layer in model.layers:
        next_signal = []
        for i in range(len(layer)):
            lam, w = 1 << int(layer.shift[i]), layer.w.to01()[i] * 2.0 - 1.0
            pre = lam * float(w @ signal) + layer.bias[i]
            bit = 1 if pre > 0 else 0
            if layer.activation == Activation.SIGN:
                h = float(bit)
            else:
                h = 1.0 if bit else -1.0
            out = out + layer.beta[i] * h
            next_signal.append(h)
        signal = np.array(next_signal)
    return out


def test_predict_float_matches_straight_line_oracle():
    model = _tiny_model()
    rng = np.random.default_rng(1)
    x01 = rng.integers(0, 2, size=(50, model.d_enc))
    for f, x in zip(predict_float_batch(model, BitMatrix.from01(x01)), x01):
        assert np.max(np.abs(f - _straight_line_eval(model, x))) < 1e-12


def test_predict_float_single_node_adds_beta():
    mech = external_mechanism(np.zeros((2, 1)), np.array([0.25]))
    node = layer(Activation.STEP, [[1, 1]], 0, fx_from_real(0.5), (1.0,))
    model = ScmModel(parse_encoding("density:2"), mech, [node], 1)
    out = predict_float_batch(model, BitMatrix.from01([[1, 1]]))
    assert out.shape == (1, 1)  # pre = 2.5 > 0 -> h = 1
    assert np.allclose(out, [1.25])


def test_predict_width_check():
    model = _tiny_model()
    with pytest.raises(ValueError):
        predict_float_batch(model, BitMatrix.from01(np.zeros((1, 4), dtype=np.uint8)))


# -- config validation ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig((5,), (Activation.STEP,), r_schedule=(0.9, 0.5))
    with pytest.raises(ValueError):
        TrainConfig((5,), (Activation.STEP,), r_schedule=(0.9, 1.5))
    with pytest.raises(ValueError):
        TrainConfig((5,), (Activation.STEP,), lambda_pool=(3,))
    with pytest.raises(ValueError):
        TrainConfig((5, 0, 5), (Activation.STEP,) * 3)
    # no layer may be empty: a mechanism-only model is layer_sizes=()
    for sizes in [(0,), (0, 0), (-1,)]:
        with pytest.raises(ValueError, match=">= 1"):
            TrainConfig(sizes, (Activation.STEP, Activation.SIGN)[: len(sizes)])
    with pytest.raises(ValueError, match="1 layers but 0 activations"):
        TrainConfig((5,), ())
    with pytest.raises(ValueError, match="r schedule must be non-empty"):
        TrainConfig((5,), (Activation.STEP,), r_schedule=())
    with pytest.raises(ValueError, match="lambda pool must be non-empty"):
        TrainConfig((5,), (Activation.STEP,), lambda_pool=())
    with pytest.raises(ValueError, match=r"unknown activation 'relu' \(expected sign or step\)"):
        parse_activation("relu")
    assert TrainConfig((), ()).layer_sizes == ()
    # no layers and no mechanism would save a model that outputs 0 for every row
    with pytest.raises(ValueError, match="--nodes 0.*--no-mechanism"):
        TrainConfig((), (), use_mechanism=False)
    with pytest.raises(ValueError, match="a mechanism-only model has no layers"):
        TrainConfig.single_layer(0)
