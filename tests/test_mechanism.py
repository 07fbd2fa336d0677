import json

import numpy as np
import pytest

from scmfpga import fixedpoint as fx
from scmfpga.bits import BitMatrix, BitVec
from scmfpga.errors import ModelFormatError
from scmfpga.mechanism import (
    MechanismModel,
    external_mechanism,
    fit_mechanism,
    mech_eval_float_batch,
    mech_wide_fpga,
    signals_pm1,
)
from scmfpga.modelfile import model_from_json


def mech_eval_float(x_bits, mech):
    """The reference mechanism output of one encoded row."""
    return mech_eval_float_batch(signals_pm1(BitMatrix.from_rows([x_bits])), mech)[0]


def mech_eval_fpga(x_bits, mech):
    """The emulated mechanism output of one encoded row: the wide sum, saturated."""
    return fx.saturate_array(mech_wide_fpga(x_bits.to01()[None, :], mech))[0]


def _random_bits(rng, n, width):
    return BitMatrix.from_rows([BitVec.from01(rng.integers(0, 2, size=width)) for _ in range(n)])


@pytest.mark.parametrize("rows", [0, 7])
@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
def test_float32_signals_are_the_float64_signals_cast(width, rows):
    bits = BitMatrix.from01(np.random.default_rng(width).integers(0, 2, size=(rows, width),
                                                                  dtype=np.uint8))
    for dtype in (np.float32, np.int8):  # int8: training's signals
        s = signals_pm1(bits, dtype)
        assert s.dtype == dtype and s.shape == (rows, width)
        assert np.array_equal(s, signals_pm1(bits).astype(dtype))


def test_constant_target_goes_to_intercept():
    rng = np.random.default_rng(0)
    bits = _random_bits(rng, 30, 8)
    y = np.full((30, 1), 3.25)
    mech = fit_mechanism(signals_pm1(bits), y, alpha=1e3)
    assert np.allclose(mech.weights, 0.0)
    assert np.allclose(mech.intercepts, [3.25])


def test_single_bit_slope_recovered():
    rng = np.random.default_rng(1)
    col = rng.permutation([0] * 25 + [1] * 25)  # balanced, so mean(y) is the intercept
    bits = BitMatrix.from_rows([BitVec.from01([b]) for b in col])
    s = signals_pm1(bits)  # -1/+1 column
    y = 0.35 * s + 0.1
    mech = fit_mechanism(s, y, alpha=0.0)
    # two-point closed form: slope = (mean(y|+1) - mean(y|-1)) / 2
    assert abs(mech.weights[0, 0] - 0.35) < 1e-6
    assert abs(mech.intercepts[0] - 0.1) < 1e-9
    assert mech.fit.converged and mech.fit.p is mech.weights


def test_external_passthrough():
    p = np.array([[0.5], [-0.25]])
    u = np.array([1.5])
    mech = external_mechanism(p, u)
    assert mech.source == "external"
    assert np.array_equal(mech.weights, p)
    assert np.array_equal(mech.intercepts, u)
    assert np.array_equal(mech.weights_raw[:, 0], [fx.fx_from_real(0.5), fx.fx_from_real(-0.25)])


def test_external_mechanism_holds_read_only_copies_of_its_inputs():
    p, u = np.array([[0.5], [-0.25]]), np.array([1.5])
    mech = external_mechanism(p, u)
    p[0, 0] = u[0] = 2.0  # the caller's arrays stay writable and apart from the model
    assert mech.weights[0, 0] == 0.5 and mech.intercepts[0] == 1.5
    for held in (mech.weights, mech.intercepts, mech.weights_raw, mech.intercepts_raw):
        with pytest.raises(ValueError, match="read-only"):
            held[0] += 1


def test_a_mechanism_counts_saturated_values():
    mech = external_mechanism(np.array([[100.0], [0.5], [-64.0]]), np.array([-70.0]))
    assert mech.saturated == 2  # 100 and -70; -64 is the format minimum
    assert mech.weights_raw[0, 0] == fx.RAW_MAX and mech.intercepts_raw[0] == fx.RAW_MIN
    assert external_mechanism(np.array([[0.5]]), np.array([63.0])).saturated == 0


def test_quantized_copies_track_reals():
    rng = np.random.default_rng(2)
    mech = external_mechanism(rng.normal(size=(6, 2)), rng.normal(size=2))
    expect, _ = fx.quantize_array(mech.weights)
    assert np.array_equal(mech.weights_raw, expect)


def test_eval_float_cases():
    p = np.array([[0.5], [0.25], [-0.125]])
    u = np.array([1.0])
    mech = external_mechanism(p, u)
    all_set = BitVec.from01([1, 1, 1])
    assert np.allclose(mech_eval_float(all_set, mech), p.sum() + u)
    zero_w = external_mechanism(np.zeros((3, 1)), u)
    assert np.allclose(mech_eval_float(all_set, zero_w), u)


def test_eval_float_matches_dense_oracle():
    rng = np.random.default_rng(3)
    mech = external_mechanism(rng.normal(size=(12, 3)), rng.normal(size=3))
    for _ in range(20):
        bits = BitVec.from01(rng.integers(0, 2, size=12))
        s = bits.to01() * 2.0 - 1.0
        oracle = s @ mech.weights + mech.intercepts
        assert np.max(np.abs(mech_eval_float(bits, mech) - oracle)) < 1e-12


def test_eval_fpga_zero_weights_returns_intercept_exactly():
    mech = external_mechanism(np.zeros((4, 1)), np.array([0.75]))
    out = mech_eval_fpga(BitVec.from01([0, 1, 0, 1]), mech)
    assert out[0] == fx.fx_from_real(0.75)


def test_eval_fpga_single_negation():
    mech = external_mechanism(np.array([[1.0]]), np.array([0.0]))
    out = mech_eval_fpga(BitVec.from01([0]), mech)
    assert out[0] == -33554432


def test_eval_fpga_close_to_float():
    # per-weight rounding is at most 2**-26, so d_enc * 2**-25 has 2x slack
    rng = np.random.default_rng(4)
    d = 40
    mech = external_mechanism(rng.normal(scale=0.3, size=(d, 2)), rng.normal(size=2))
    bound = d * 2.0**-25
    worst = 0.0
    for _ in range(10_000):
        bits = BitVec.from01(rng.integers(0, 2, size=d))
        f = mech_eval_float(bits, mech)
        g = fx.dequantize_array(mech_eval_fpga(bits, mech))
        worst = max(worst, float(np.max(np.abs(f - g))))
    assert worst <= bound


def test_eval_fpga_exact_on_grid_weights():
    rng = np.random.default_rng(5)
    raw = rng.integers(-(2**20), 2**20, size=(10, 1))
    mech = external_mechanism(fx.dequantize_array(raw), np.array([0.5]))
    for _ in range(50):
        bits = BitVec.from01(rng.integers(0, 2, size=10))
        f = mech_eval_float(bits, mech)
        g = fx.dequantize_array(mech_eval_fpga(bits, mech))
        assert np.array_equal(f, g)


def test_eval_fpga_sign_flip_symmetry():
    rng = np.random.default_rng(6)
    mech = external_mechanism(rng.normal(scale=0.2, size=(16, 1)), np.array([0.3]))
    u_raw = int(mech.intercepts_raw[0])
    for _ in range(50):
        arr = rng.integers(0, 2, size=16)
        a = BitVec.from01(arr)
        b = BitVec.from01(1 - arr)
        va = int(mech_eval_fpga(a, mech)[0]) - u_raw
        vb = int(mech_eval_fpga(b, mech)[0]) - u_raw
        assert va == -vb


def test_eval_fpga_min_raw_weight_saturates_negation():
    mech = MechanismModel(np.array([[-64.0]]), np.array([0.0]))
    assert mech.weights_raw[0, 0] == fx.RAW_MIN
    # clear bit: two's complement of RAW_MIN saturates to RAW_MAX
    assert mech_eval_fpga(BitVec.from01([0]), mech)[0] == fx.RAW_MAX
    assert mech_eval_fpga(BitVec.from01([1]), mech)[0] == fx.RAW_MIN


def test_length_mismatch():
    mech = external_mechanism(np.zeros((3, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        mech_eval_float(BitVec(2), mech)
    with pytest.raises(ValueError):
        mech_eval_fpga(BitVec(5), mech)


@pytest.mark.parametrize("p,u", [(5.0, 0.0), (0.0, 5.0), (np.nan, 0.0)])
def test_floats_must_round_to_their_raw_values(p, u):
    # such a mechanism's model would claim a quantization bound it does not meet;
    # the reader compares the raw values it reads with the ones the floats give
    doc = {"format": "scmfpga-model", "version": 1, "encoding": "density:1", "n_outputs": 1,
           "mechanism": {"d_enc": 1, "weights": [[p]], "weights_raw": [[0]],
                         "intercepts": [u], "intercepts_raw": [0]}}
    with pytest.raises(ModelFormatError, match="round to their raw values|finite"):
        model_from_json(json.dumps(doc))


def test_a_mechanism_refuses_a_nan_weight():
    # a NaN has no raw value
    with pytest.raises(ValueError, match="finite"):
        MechanismModel(np.array([[np.nan]]), np.zeros(1))
