import copy
import importlib
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scmfpga.linalg
import scmfpga.mechanism
from scmfpga import fixedpoint as fx
from scmfpga.bits import BitMatrix, BitVec
from scmfpga.datasets import gen_db2, split
from scmfpga.encoding import encode_matrix, parse_encoding
from scmfpga.errors import TrainingFailedError
from scmfpga.evaluate import evaluate_bits
from scmfpga.linalg import lasso_fit, least_squares
from scmfpga.mechanism import external_mechanism, signals_pm1
from scmfpga.model import (
    Activation,
    ScmLayer,
    ScmModel,
    ScmNode,
    activation_values,
    check_fan_in,
    node_output_float,
    predict_float,
    predict_float_batch,
    quantization_bound,
    threshold_bits,
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
    xi_score,
)


def _column_node(state, k=-1):
    """Hidden column k's node as (+-1 float64 weights, lambda, bias)."""
    w01, shift, bias_raw = state.nodes[k]
    assert w01.dtype == np.uint8 and 0 <= shift <= 7
    return w01 * 2.0 - 1.0, 1 << shift, fx.fx_to_real(bias_raw)


def _toy_data(seed=0, n_train=80, n_val=20, spec="density:6", noise=0.05):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n_train + n_val, 1))
    y = np.sin(2 * np.pi * x) * 0.3 + 0.5 + rng.normal(scale=noise, size=x.shape)
    enc = parse_encoding(spec)
    return prepare_train_data(x[:n_train], y[:n_train], x[n_train:], y[n_train:], enc)


# -- xi score ------------------------------------------------------------


def test_xi_collinear():
    e = np.array([0.5, -1.0, 2.0])
    for r in (0.5, 0.9, 0.99):
        got = xi_score(e, e, r)
        assert got == pytest.approx(r * float(e @ e))
        assert got > 0


def test_xi_orthogonal_negative():
    e = np.array([1.0, 0.0])
    h = np.array([0.0, 1.0])
    assert xi_score(e, h, 0.9) < 0


def test_xi_hand_example():
    assert xi_score(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 0.9) == pytest.approx(0.5)


def test_xi_zero_h_rejected():
    assert xi_score(np.array([1.0, 2.0]), np.zeros(2), 0.9) is None


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


# -- node output (float path) --------------------------------------------


def _node(w_pm1, shift=0, bias=0.0, m=1):
    return ScmNode(
        w=BitVec.from_pm1(w_pm1),
        shift=shift,
        bias=bias,
        bias_raw=fx.fx_from_real(bias),
        beta=np.zeros(m),
        beta_raw=np.zeros(m, dtype=np.int32),
    )


def test_node_output_all_ones():
    node = _node([1, 1, 1, 1])
    bit, h = node_output_float(BitVec.from_pm1([1, 1, 1, 1]), node, Activation.STEP)
    assert bit == 1 and h == 1.0


def test_node_output_strict_threshold():
    node = _node([1, 1])  # s=(+1,-1) -> dot 0, bias 0 -> pre exactly 0
    bit, h = node_output_float(BitVec.from_pm1([1, -1]), node, Activation.STEP)
    assert bit == 0 and h == -1.0
    bit, h = node_output_float(BitVec.from_pm1([1, -1]), node, Activation.SIGN)
    assert bit == 0 and h == 0.0


def test_node_output_domains():
    node = _node([-1, 1, -1, 1])
    # {0,1} inputs use the conditional-count dot: (1,0,1,1) -> -1
    bit, h = node_output_float(
        BitVec.from01([1, 0, 1, 1]), node, Activation.SIGN, pm1=False
    )
    assert bit == 0 and h == 0.0
    # +-1 inputs use the XNOR dot
    bit, _ = node_output_float(
        BitVec.from_pm1([-1, 1, 1, -1]), _node([-1, 1, -1, -1]), Activation.STEP
    )
    assert bit == 1  # dot = 2, lambda 1, bias 0


def test_node_output_scaling_and_bias():
    node = _node([1, 1, 1, 1], shift=3, bias=-17.0)
    # dot=2 -> 2*8=16, bias -17 -> pre -1 -> bit 0
    bit, _ = node_output_float(BitVec.from_pm1([1, 1, 1, -1]), node, Activation.STEP)
    assert bit == 0


def test_node_output_length_check():
    with pytest.raises(ValueError):
        node_output_float(BitVec(3), _node([1, 1]), Activation.STEP)


# -- add_node -------------------------------------------------------------


def test_add_node_zero_residual_rejects_everything():
    data = _toy_data()
    # constant targets: the mechanism absorbs them exactly, E = 0
    data.y_train[:] = 0.25
    data.y_val[:] = 0.25
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=50, seed=0)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    assert np.allclose(state.resid_train, 0.0)
    rng = np.random.default_rng(0)
    assert add_node(state, 1, cfg, rng) is None


def test_add_node_accepts_only_positive_xi_and_residual_drops():
    data = _toy_data(seed=1)
    cfg = TrainConfig.single_layer(8, Activation.STEP, t_max=100, seed=1)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    rng = np.random.default_rng(1)
    prev = np.linalg.norm(state.resid_train)
    for _ in range(8):
        res = add_node(state, 1, cfg, rng)
        if res is None:
            break
        assert res.xi_min > 0
        # recompute the score from the stored state to cross-check the log
        cur = np.linalg.norm(state.resid_train)
        assert cur <= prev + 1e-10
        prev = cur
    assert state.layer_sizes == [len(state.nodes)] and len(state.nodes) >= 1


def test_add_node_xi_recheck_from_parameters():
    data = _toy_data(seed=2)
    cfg = TrainConfig.single_layer(1, Activation.STEP, t_max=200, seed=2)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    e_before = state.resid_train.copy()
    rng = np.random.default_rng(2)
    res = add_node(state, 1, cfg, rng)
    w, lam, bias = _column_node(state)
    s = signals_pm1(data.bits_train)
    pre = (s @ w) * lam + bias
    h = (pre > 0).astype(np.float64) * 2 - 1
    for q in range(state.m):
        assert xi_score(e_before[:, q], h, res.r) > 0


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
    rng = np.random.default_rng(4)
    for k, (size, act) in enumerate(zip(cfg.layer_sizes, acts)):
        if k:
            state.end_layer()
        state.begin_layer(act)
        for _ in range(size):
            e_before = state.resid_train.copy()
            s = state.cur_in_train
            res = add_node(state, k + 1, cfg, rng)
            assert res is not None
            w, lam, bias = _column_node(state)
            pre = (s @ w) * lam + bias
            h = (pre > 0).astype(np.float64)
            if act == Activation.STEP:
                h = h * 2 - 1
            assert np.array_equal(state.H_train[:, state.n_hidden - 1], h)
            xi = [xi_score(e_before[:, q], h, res.r) for q in range(state.m)]
            assert res.xi_sum == pytest.approx(sum(xi), rel=1e-12)
            assert res.xi_min == pytest.approx(min(xi), rel=1e-12)


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
    got = threshold_bits(s.astype(np.float32), w.astype(np.float32),
                         shift.astype(np.uint8), bias_raw, work)
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
    # train checks before it builds anything: layer 2 would have fan-in 2**24
    data = _toy_data()
    monkeypatch.setattr(importlib.import_module("scmfpga.train"), "signals_pm1", _refuse)
    acts = (Activation.STEP, Activation.STEP)
    with pytest.raises(ValueError, match="float32"):
        train(data, TrainConfig((2**24, 1), acts))
    # one node fewer passes the check and goes on to build the signals
    with pytest.raises(AssertionError, match="signals built"):
        train(data, TrainConfig((2**24 - 1, 1), acts))


def test_predict_float_refuses_an_inexact_pre_activation(monkeypatch):
    check_fan_in(2**24 - 1)
    with pytest.raises(ValueError, match="float32"):
        check_fan_in(2**24)
    model = _tiny_model()
    bits = BitMatrix.from01(np.ones((1, model.d_enc), dtype=np.uint8))
    predict_float_batch(model, bits)
    # layer 2 reads one node of fan-in 2**24, refused before any signal is built
    model.layers[1] = ScmLayer.from_arrays(
        Activation.SIGN, BitMatrix.from01(np.ones((1, 2**24), dtype=np.uint8)),
        np.zeros(1, np.uint8), np.zeros(1, np.int32), np.zeros((1, 1)), np.zeros((1, 1), np.int32),
    )
    monkeypatch.setattr(importlib.import_module("scmfpga.model"), "signals_pm1", _refuse)
    with pytest.raises(ValueError, match="float32"):
        predict_float_batch(model, bits)


def _oracle_add_node(state, cfg, rng):
    """add_node's choice from the same draws, with every e^T h summed by math.fsum."""
    act = state.layer_acts[-1]
    s = state.cur_in_train
    e = state.resid_train
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


@pytest.mark.parametrize("act", [Activation.STEP, Activation.SIGN])
def test_add_node_matches_an_fsum_oracle_across_score_blocks(act):
    # two full blocks of SCORE_ROWS training rows and a partial one of 3
    accepted = _check_add_node_against_the_oracle(
        seed=7, act=act, m=2, rows=2 * SCORE_ROWS + 3, fan_in=12, t_max=40, levels=8, nodes=3)
    assert accepted == 3


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
    state.begin_layer(act)
    for k in range(nodes):
        want = _oracle_add_node(state, cfg, copy.deepcopy(rng))
        got = add_node(state, 1, cfg, rng)
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
    state.begin_layer(Activation.STEP)
    tracemalloc.start()
    try:
        res = add_node(state, 1, cfg, np.random.default_rng(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res is not None
    assert state.work.shape == (SCORE_ROWS, t) and state.work.dtype == np.float32
    # rows are scored in blocks: one (N, t) float32 array alone would take
    # 4 * n * t bytes
    assert peak < n * t


def test_preallocated_readout_matches_column_stack():
    data = _toy_data(seed=14, n_train=150, n_val=40, spec="s2v1", noise=0.02)
    cfg = TrainConfig((2, 2), (Activation.STEP, Activation.SIGN), t_max=200, seed=14)
    state = TrainState(data, cfg)  # capacity 4: the sixth layer-1 node doubles it twice
    rng = np.random.default_rng(14)

    def columns(s, nodes, act):
        return [activation_values((s @ w) * lam + bias > 0, act) for w, lam, bias in nodes]

    def check():
        tr, va = [], []
        s_tr, s_va = signals_pm1(data.bits_train), signals_pm1(data.bits_val)
        assert sum(state.layer_sizes) == len(state.nodes) == state.n_hidden
        ends = np.cumsum(state.layer_sizes)
        for end, size, act in zip(ends, state.layer_sizes, state.layer_acts):
            nodes = [_column_node(state, k) for k in range(end - size, end)]
            tr_cols, va_cols = columns(s_tr, nodes, act), columns(s_va, nodes, act)
            tr += tr_cols
            va += va_cols
            s_tr, s_va = np.column_stack(tr_cols), np.column_stack(va_cols)
        h_tr, h_va = np.column_stack(tr), np.column_stack(va)
        # the QR readout is lstsq's far below the Q7.25 resolution (2**-25)
        beta = state.beta
        assert np.max(np.abs(beta - least_squares(h_tr, state.target_train))) <= 2.0**-40
        assert np.array_equal(state.resid_train, state.target_train - h_tr @ beta)
        assert np.array_equal(state.resid_val, state.target_val - h_va @ beta)
        return h_tr

    state.begin_layer(Activation.STEP)
    for _ in range(6):
        assert add_node(state, 1, cfg, rng) is not None
        check()
    assert state.H_train.shape[1] == 8
    state.remove_trailing(2)
    check()
    assert add_node(state, 1, cfg, rng) is not None  # rewrites a removed column
    h_layer1 = check()
    state.end_layer()
    assert np.array_equal(state.cur_in_train, h_layer1)
    state.begin_layer(Activation.SIGN)
    for _ in range(2):
        assert add_node(state, 2, cfg, rng) is not None
        check()
    # a large configured node count is not allocated up front
    big = TrainState(data, TrainConfig.single_layer(1000, t_max=10, seed=14))
    assert big.H_train.shape == (len(data.bits_train), 64)


def _check_readout(state, before):
    """The QR readout against the lstsq oracle, and the residuals against beta.

    A dependent column gets readout 0, so the oracle fits only the columns
    that own a basis vector. `before` is the (resid_train, resid_val) pair of
    the previous state, or None; after a dependent append the residuals must
    be exactly those.
    """
    assert len(state.nodes) == len(state.in_basis) == state.n_hidden == sum(state.layer_sizes)
    cols = np.array(state.in_basis, dtype=bool)
    h_tr = state.H_train[:, : state.n_hidden]
    h_va = state.H_val[:, : state.n_hidden]
    oracle = np.zeros((state.n_hidden, state.m))
    if cols.any():
        oracle[cols] = least_squares(h_tr[:, cols], state.target_train)
    assert np.all(np.abs(state.beta - oracle) <= 2.0**-40 * np.maximum(1.0, np.abs(oracle)))
    if before is not None and state.in_basis and not state.in_basis[-1]:
        assert np.array_equal(state.resid_train, before[0])
        assert np.array_equal(state.resid_val, before[1])
    else:
        assert np.array_equal(state.resid_train, state.target_train - h_tr @ state.beta)
        assert np.array_equal(state.resid_val, state.target_val - h_va @ state.beta)
    return state.resid_train.copy(), state.resid_val.copy()


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
    for layer, (act, size, drop) in enumerate(zip(acts, sizes, drops), start=1):
        state.begin_layer(act)
        for _ in range(size):
            rmse = state.train_rmse()
            if add_node(state, layer, cfg, rng) is None:
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
            if add_node(state, layer, cfg, rng) is not None:
                before = _check_readout(state, before)
        state.end_layer()


def test_a_dependent_column_gets_readout_zero():
    data = _two_output_data(seed=15)
    cfg = TrainConfig.single_layer(5, Activation.STEP, t_max=100, use_mechanism=False, seed=15)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    rng = np.random.default_rng(15)
    for _ in range(3):
        assert add_node(state, 1, cfg, rng) is not None
    beta, before = state.beta.copy(), _check_readout(state, None)
    # a copy of the second column adds no rank
    state.append_node(state.nodes[1], state.H_train[:, 1].copy(), state.H_val[:, 1].copy())
    assert state.n_hidden == 4 and state.in_basis.count(False) == 1
    assert state.in_basis == [True, True, True, False]
    assert np.array_equal(state.beta, np.vstack([beta, np.zeros((1, 2))]))
    assert np.array_equal(state.resid_train, before[0])
    assert np.array_equal(state.resid_val, before[1])
    assert add_node(state, 1, cfg, rng) is not None
    assert state.in_basis == [True, True, True, False, True]
    _check_readout(state, None)
    state.remove_trailing(2)
    assert state.in_basis.count(False) == 0
    assert np.array_equal(state.beta, beta)
    model, _ = state.finalize(data.encoding)
    assert model.layer_sizes == (3,)


def test_reorthogonalization_keeps_q_orthonormal():
    # column i is one +-1 column with its first i rows flipped, so each new
    # column is mostly the span of the others; one Gram-Schmidt pass alone
    # leaves Q^T Q off the identity by about 7e-11 here
    n = 3200
    data = _toy_data(seed=17, n_train=n, n_val=10)
    state = TrainState(data, TrainConfig.single_layer(12, use_mechanism=False))
    state.begin_layer(Activation.STEP)
    h = np.random.default_rng(17).choice([-1.0, 1.0], size=n)
    for i in range(12):
        col = h.copy()
        col[:i] *= -1.0
        state.append_node(_node([1] * 6), col, np.ones(10))
    assert state.in_basis.count(False) == 0
    q = state.Q[:, :12]
    assert np.max(np.abs(q.T @ q - np.eye(12))) <= 1e-12
    _check_readout(state, None)


@pytest.mark.parametrize("use_mechanism, calls", [(True, 1), (False, 0)])
def test_training_solves_least_squares_only_for_the_lasso_warm_start(
    monkeypatch, use_mechanism, calls
):
    # the readout is an incremental QR; a per-node solve would show up here
    orig = scmfpga.linalg.least_squares
    seen = []

    def counted(*args, **kwargs):
        seen.append(1)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "scmfpga" or name.startswith("scmfpga."):
            for attr in [a for a, v in vars(mod).items() if v is orig]:
                monkeypatch.setattr(mod, attr, counted)
    data = _toy_data(seed=16, n_train=150, n_val=40, spec="s2v1", noise=0.02)
    cfg = TrainConfig((6, 4, 3), (Activation.STEP, Activation.SIGN, Activation.STEP),
                      t_max=200, use_mechanism=use_mechanism, seed=16, tau=-1.0)
    result = train(data, cfg)
    assert len(result.records) == 13
    assert len(seen) == calls


# -- full training ---------------------------------------------------------


def test_train_mechanism_only():
    data = _toy_data()
    cfg = TrainConfig.single_layer(0, seed=0)
    result = train(data, cfg)
    model = result.model
    assert model.layer_sizes == ()
    bits = data.bits_val
    out = predict_float_batch(model, bits)
    s = signals_pm1(bits)
    expected = s @ model.mechanism.weights + model.mechanism.intercepts
    assert np.allclose(out, expected, atol=1e-12)


def test_train_zero_residual_fails():
    data = _toy_data()
    data.y_train[:] = 0.25
    data.y_val[:] = 0.25
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=20, seed=0)
    with pytest.raises(TrainingFailedError):
        train(data, cfg)


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
    data = TrainData(bits[:100], y[:100], bits[100:], y[100:], enc, 1)
    cfg = TrainConfig.single_layer(
        1, Activation.STEP, t_max=2000, lambda_pool=(1,), use_mechanism=False, seed=3
    )
    result = train(data, cfg)
    assert result.records[-1].train_rmse < 1e-9
    assert result.records[-1].val_rmse < 1e-9


def test_train_residual_monotone():
    data = _toy_data(seed=5)
    cfg = TrainConfig.single_layer(10, Activation.STEP, t_max=100, seed=5, tau=-1.0)
    result = train(data, cfg)
    rmses = [r.train_rmse for r in result.records]
    for a, b in zip(rmses, rmses[1:]):
        assert b <= a + 1e-10


def test_train_rollback_path():
    data = _toy_data(seed=6)
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
    # the integer bit is constant: the toy inputs lie in [0, 1) and no row sets it
    s = signals_pm1(data.bits_train)
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

    def capped(x, y, alpha):
        return lasso_fit(x, y, alpha, max_sweeps=1)

    monkeypatch.setattr(scmfpga.mechanism, "lasso_fit", capped)
    cfg = TrainConfig.single_layer(0, seed=10)
    with pytest.warns(UserWarning, match="sweep cap"):
        result = train(data, cfg)
    (fit,) = [ev for ev in result.events if ev["event"] == "l1_fit"]
    assert fit["sweeps"] == 1 and fit["converged"] is False
    assert "event=l1_fit sweeps=1 converged=False" in result.log_text()


def test_train_counts_saturated_bias_draws():
    data = _toy_data(seed=11)
    for pool, clamps in [((1, 2, 4), False), ((128,), True)]:
        cfg = TrainConfig.single_layer(2, Activation.STEP, t_max=50, lambda_pool=pool, seed=11)
        ev = train(data, cfg).events[-1]
        assert ev["event"] == "saturation"
        assert (ev["bias_draws"] > 0) == clamps
        assert ev["targets_outside"] == ev["mechanism"] == ev["readouts"] == 0


def test_finalize_counts_saturated_readouts():
    data = _toy_data(seed=12)
    cfg = TrainConfig.single_layer(2, Activation.STEP, t_max=50, seed=12)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    assert add_node(state, 1, cfg, np.random.default_rng(12)) is not None
    state.beta[:] = 100.0
    model, saturated = state.finalize(data.encoding)
    assert saturated == state.m
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
    assert ev["targets_outside"] == int(np.count_nonzero(data.y_train >= 64.0)) > 0
    # the emulated outputs on those rows clamp, and evaluation counts them
    rep = evaluate_bits(result.model, data.bits_train, data.y_train, "both")
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
    rep = evaluate_bits(model, data.bits_train, data.y_train, "both")
    assert rep.bound_applies is normalize
    assert (rep.max_output_delta <= quantization_bound(model)) is normalize
    # without the emulated path nothing was clamped
    assert evaluate_bits(model, data.bits_train, data.y_train, "pc").bound_applies


def test_train_determinism():
    data = _toy_data(seed=8)
    cfg = TrainConfig.single_layer(6, Activation.STEP, t_max=50, seed=8)
    m1 = train(data, cfg).model
    m2 = train(data, cfg).model
    assert model_to_bytes(m1) == model_to_bytes(m2)


def test_train_quantization_delta_bound():
    data = _toy_data(seed=9)
    cfg = TrainConfig.single_layer(8, Activation.STEP, t_max=100, seed=9)
    model = train(data, cfg).model
    from scmfpga.emulate import predict_fpga

    bound = quantization_bound(model)
    rng = np.random.default_rng(0)
    width = model.d_enc
    for _ in range(200):
        b = BitVec.from01(rng.integers(0, 2, size=width))
        f = predict_float(model, b)
        g = fx.dequantize_array(predict_fpga(model, b))
        assert np.max(np.abs(f - g)) <= bound


# -- reference prediction --------------------------------------------------


def _tiny_model(seed=0, layers=((3, Activation.STEP), (2, Activation.SIGN)), m=1, d_enc=6):
    rng = np.random.default_rng(seed)
    mech = external_mechanism(rng.normal(scale=0.1, size=(d_enc, m)), rng.normal(size=m))
    built = []
    fan_in = d_enc
    for n, act in layers:
        nodes = []
        for _ in range(n):
            beta = rng.normal(scale=0.5, size=m)
            w = BitVec.from01(rng.integers(0, 2, size=fan_in))
            shift = int(rng.integers(0, 4))
            bias_raw = fx.fx_from_real(rng.uniform(-2, 2))
            nodes.append(
                ScmNode(
                    w=w,
                    shift=shift,
                    bias=fx.fx_to_real(bias_raw),
                    bias_raw=bias_raw,
                    beta=beta,
                    beta_raw=fx.quantize_array(beta)[0],
                )
            )
        built.append(ScmLayer(act, nodes))
        fan_in = n
    model = ScmModel(parse_encoding("density:6"), mech, built, m)
    model.validate()
    return model


def _straight_line_eval(model, x_bits):
    """Independent scalar evaluator following the model definition."""
    out = x_bits.to_pm1().astype(float) @ model.mechanism.weights + model.mechanism.intercepts
    signal = x_bits.to_pm1().astype(float)
    for layer in model.layers:
        next_signal = []
        for node in map(layer.node, range(len(layer))):
            pre = node.lam * float(node.w.to_pm1().astype(float) @ signal) + node.bias
            bit = 1 if pre > 0 else 0
            if layer.activation == Activation.SIGN:
                h = float(bit)
            else:
                h = 1.0 if bit else -1.0
            out = out + node.beta * h
            next_signal.append(h)
        signal = np.array(next_signal)
    return out


def test_predict_float_matches_straight_line_oracle():
    model = _tiny_model()
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = BitVec.from01(rng.integers(0, 2, size=model.d_enc))
        assert np.max(np.abs(predict_float(model, b) - _straight_line_eval(model, b))) < 1e-12


def test_predict_float_single_node_adds_beta():
    mech = external_mechanism(np.zeros((2, 1)), np.array([0.25]))
    node = ScmNode(
        w=BitVec.from_pm1([1, 1]),
        shift=0,
        bias=0.5,
        bias_raw=fx.fx_from_real(0.5),
        beta=np.array([1.0]),
        beta_raw=fx.quantize_array(np.array([1.0]))[0],
    )
    model = ScmModel(
        parse_encoding("density:2"), mech, [ScmLayer(Activation.STEP, [node])], 1
    )
    out = predict_float(model, BitVec.from_pm1([1, 1]))  # pre = 2.5 > 0 -> h = 1
    assert np.allclose(out, [1.25])


def test_predict_width_check():
    model = _tiny_model()
    with pytest.raises(ValueError):
        predict_float(model, BitVec(4))


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
    with pytest.raises(ValueError):
        TrainConfig((5,), ())
    assert TrainConfig.single_layer(0).layer_sizes == ()
