import json

import numpy as np
import pytest

from scmfpga import fixedpoint as fx
from scmfpga.bits import BitMatrix
from scmfpga.errors import ModelFormatError
from scmfpga.mechanism import (
    SOURCE_NONE,
    MechanismModel,
    external_mechanism,
    fit_mechanism,
    no_mechanism,
    mech_eval_float_batch,
    mech_wide_fpga,
    signals_pm1,
)
from scmfpga.modelfile import model_from_json

from oracles import fx_from_real


def mech_eval_float(x01, mech):
    """The reference mechanism output of one encoded row of 0/1 values."""
    return mech_eval_float_batch(signals_pm1(BitMatrix.from01([x01])), mech)[0]


def mech_eval_fpga(x01, mech):
    """The emulated mechanism output of one encoded row: the wide sum, saturated."""
    return fx.saturate_array(mech_wide_fpga(mech)(np.array([x01]).T))[0]


def _random_bits(rng, n, width):
    return BitMatrix.from01(rng.integers(0, 2, size=(n, width)))


@pytest.mark.parametrize("rows", [0, 7])
@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
def test_float32_signals_are_the_float64_signals_cast(width, rows):
    bits = BitMatrix.from01(np.random.default_rng(width).integers(0, 2, size=(rows, width),
                                                                  dtype=np.uint8))
    s = signals_pm1(bits)  # int8, the one signal form; the reference path casts to float32
    assert s.dtype == np.int8 and s.shape == (rows, width)
    assert np.array_equal(s, 2 * bits.to01().astype(np.int64) - 1)
    assert np.array_equal(s.astype(np.float32), s.astype(np.float64))


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
    bits = BitMatrix.from01(col[:, None])
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
    assert np.array_equal(mech.weights_raw[:, 0], [fx_from_real(0.5), fx_from_real(-0.25)])


def test_external_mechanism_holds_read_only_copies_of_its_inputs():
    p, u = np.array([[0.5], [-0.25]]), np.array([1.5])
    mech = external_mechanism(p, u)
    p[0, 0] = u[0] = 2.0  # the caller's arrays stay writable and apart from the model
    assert mech.weights[0, 0] == 0.5 and mech.intercepts[0] == 1.5
    for held in (mech.weights, mech.intercepts, mech.weights_raw, mech.intercepts_raw):
        with pytest.raises(ValueError, match="read-only"):
            held[0] += 1


def test_a_none_mechanism_holds_read_only_zeros_and_its_shape():
    mech = MechanismModel(np.zeros((7, 2)), np.zeros(2), SOURCE_NONE)
    assert (mech.d_enc, mech.n_outputs, mech.saturated, mech.alpha) == (7, 2, 0, 0.0)
    assert mech.weights_raw.dtype == mech.intercepts_raw.dtype == np.int32
    assert not mech.weights_raw.any() and not mech.intercepts_raw.any()
    for held in (mech.weights, mech.intercepts, mech.weights_raw, mech.intercepts_raw):
        with pytest.raises(ValueError, match="read-only"):
            held[0] += 1


def test_no_mechanism_holds_zero_views_of_any_width_in_constant_memory():
    # a model file's header gives d_enc and m, up to 2**32 - 1 and 65535: their
    # d_enc x m zeros, if allocated or scanned, would be 2 PiB
    mech = no_mechanism(2**32 - 1, 65535)
    assert (mech.d_enc, mech.n_outputs, mech.n_values, mech.saturated) == (2**32 - 1, 65535, 0, 0)
    assert mech.source == SOURCE_NONE and mech.alpha == 0.0
    held = (mech.weights, mech.intercepts, mech.weights_raw, mech.intercepts_raw)
    assert [a.dtype for a in held] == [np.float64, np.float64, np.int32, np.int32]
    assert all(not any(a.strides) and a.flat[0] == 0 and not a.flags.writeable for a in held)


def test_n_values_counts_a_mechanism_by_its_source():
    assert external_mechanism(np.zeros((7, 2)), np.zeros(2)).n_values == (7 + 1) * 2
    assert MechanismModel(np.zeros((7, 2)), np.zeros(2), SOURCE_NONE).n_values == 0


@pytest.mark.parametrize("p, u, alpha", [
    ([[0.0], [1e-9]], [0.0], 0.0), ([[0.0]], [-1.0], 0.0), ([[0.0]], [0.0], 1e-4),
    (np.broadcast_to(1.0, (3, 1)), [0.0], 0.0), ([[0.0]], np.broadcast_to(np.nan, 1), 0.0)])
def test_a_none_mechanism_refuses_values_and_alpha(p, u, alpha):
    # the read paths skip a "none" mechanism, so values it held would be lost;
    # a zero-stride view is checked by its one value
    with pytest.raises(ValueError, match="holds only zeros and alpha 0"):
        MechanismModel(np.asarray(p, np.float64), np.asarray(u, np.float64), SOURCE_NONE, alpha)


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
    all_set = [1, 1, 1]
    assert np.allclose(mech_eval_float(all_set, mech), p.sum() + u)
    zero_w = external_mechanism(np.zeros((3, 1)), u)
    assert np.allclose(mech_eval_float(all_set, zero_w), u)


def test_eval_float_matches_dense_oracle():
    rng = np.random.default_rng(3)
    mech = external_mechanism(rng.normal(size=(12, 3)), rng.normal(size=3))
    for _ in range(20):
        bits = rng.integers(0, 2, size=12)
        s = bits * 2.0 - 1.0
        oracle = s @ mech.weights + mech.intercepts
        assert np.max(np.abs(mech_eval_float(bits, mech) - oracle)) < 1e-12


def test_eval_fpga_zero_weights_returns_intercept_exactly():
    mech = external_mechanism(np.zeros((4, 1)), np.array([0.75]))
    out = mech_eval_fpga([0, 1, 0, 1], mech)
    assert out[0] == fx_from_real(0.75)


def test_eval_fpga_single_negation():
    mech = external_mechanism(np.array([[1.0]]), np.array([0.0]))
    out = mech_eval_fpga([0], mech)
    assert out[0] == -33554432


def test_eval_fpga_close_to_float():
    # per-weight rounding is at most 2**-26, so d_enc * 2**-25 has 2x slack
    rng = np.random.default_rng(4)
    d = 40
    mech = external_mechanism(rng.normal(scale=0.3, size=(d, 2)), rng.normal(size=2))
    bound = d * 2.0**-25
    worst = 0.0
    for _ in range(10_000):
        bits = rng.integers(0, 2, size=d)
        f = mech_eval_float(bits, mech)
        g = fx.dequantize_array(mech_eval_fpga(bits, mech))
        worst = max(worst, float(np.max(np.abs(f - g))))
    assert worst <= bound


def test_eval_fpga_exact_on_grid_weights():
    rng = np.random.default_rng(5)
    raw = rng.integers(-(2**20), 2**20, size=(10, 1))
    mech = external_mechanism(fx.dequantize_array(raw), np.array([0.5]))
    for _ in range(50):
        bits = rng.integers(0, 2, size=10)
        f = mech_eval_float(bits, mech)
        g = fx.dequantize_array(mech_eval_fpga(bits, mech))
        assert np.array_equal(f, g)


def test_eval_fpga_sign_flip_symmetry():
    rng = np.random.default_rng(6)
    mech = external_mechanism(rng.normal(scale=0.2, size=(16, 1)), np.array([0.3]))
    u_raw = int(mech.intercepts_raw[0])
    for _ in range(50):
        arr = rng.integers(0, 2, size=16)
        a, b = arr, 1 - arr
        va = int(mech_eval_fpga(a, mech)[0]) - u_raw
        vb = int(mech_eval_fpga(b, mech)[0]) - u_raw
        assert va == -vb


def test_eval_fpga_min_raw_weight_saturates_negation():
    mech = MechanismModel(np.array([[-64.0]]), np.array([0.0]))
    assert mech.weights_raw[0, 0] == fx.RAW_MIN
    # clear bit: two's complement of RAW_MIN saturates to RAW_MAX
    assert mech_eval_fpga([0], mech)[0] == fx.RAW_MAX
    assert mech_eval_fpga([1], mech)[0] == fx.RAW_MIN


def test_length_mismatch():
    mech = external_mechanism(np.zeros((3, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        mech_eval_float([0, 0], mech)
    with pytest.raises(ValueError):
        mech_eval_fpga([0] * 5, mech)


@pytest.mark.parametrize("p,u", [(5.0, 0.0), (0.0, 5.0), (np.nan, 0.0)])
def test_floats_must_round_to_their_raw_values(p, u):
    # such a mechanism's model would claim a quantization bound it does not meet;
    # the reader compares the raw values it reads with the ones the floats give
    doc = {"format": "scmfpga-model", "version": 1, "encoding": "density:1", "n_outputs": 1,
           "mechanism": {"d_enc": 1, "weights": [[p]], "weights_raw": [[0]],
                         "intercepts": [u], "intercepts_raw": [0]}}
    with pytest.raises(ModelFormatError, match="round to their raw values|finite"):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("p,u,match", [
    (np.zeros(3), np.zeros(1), r"weights must be \(d_enc, m\), intercepts \(m,\)"),
    (np.zeros((3, 2)), np.zeros(1), "output count mismatch between weights and intercepts"),
], ids=["1-D-weights", "output-counts"])
def test_a_mechanism_refuses_misshapen_arrays(p, u, match):
    with pytest.raises(ValueError, match=match):
        MechanismModel(p, u)


def test_a_mechanism_refuses_a_nan_weight():
    # a NaN has no raw value
    with pytest.raises(ValueError, match="finite"):
        MechanismModel(np.array([[np.nan]]), np.zeros(1))
