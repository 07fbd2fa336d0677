import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scmfpga import emulate, mechanism
from scmfpga import model as model_module
from scmfpga import fixedpoint as fx
from scmfpga.bits import HALF, WORD, BitMatrix
from scmfpga.emulate import BLOCK_ROWS, cycle_estimate, memory_report, predict_fpga_batch
from scmfpga.encoding import parse_encoding
from scmfpga.evaluate import evaluate_bits
from scmfpga.mechanism import (SOURCE_NONE, MechanismModel, external_mechanism, mech_wide_fpga,
                               no_mechanism, signals_pm1)
from scmfpga.model import (
    Activation,
    ScmLayer,
    ScmModel,
    layer_forward_float,
    output_bound,
    predict_float_batch,
    quantization_bound,
)

from builders import emulated_layer_bits, layer, random_model
from oracles import (
    fx_from_real, fx_neg, ones_count_dot, predict_fpga, rows, wide_sums, xnor_count,
)


# -- bit-level dot products -------------------------------------------------


def test_xnor_count_known_vectors():
    assert xnor_count(0b0110, 0b0010, 4) == 2  # "0110" and "0100", bit 0 first


def test_xnor_count_identical():
    for n in (1, 5, 64, 130):
        v = rows(BitMatrix.from01(np.random.default_rng(n).integers(0, 2, size=(1, n))))[0]
        assert xnor_count(v, v, n) == n


def test_xnor_count_random_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 256))
        ab = rng.integers(0, 2, size=(2, n))
        oracle = int(((2 * ab[0] - 1) * (2 * ab[1] - 1)).sum())
        assert xnor_count(*rows(BitMatrix.from01(ab)), n) == oracle


def test_ones_count_dot_known_vectors():
    assert ones_count_dot(0b1101, 0b1010) == -1  # [1, 0, 1, 1] and "0101"


def test_ones_count_dot_zero_input():
    assert ones_count_dot(0, 0b101) == 0


def test_ones_count_dot_random_oracle():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(1, 256))
        aw = rng.integers(0, 2, size=(2, n))
        oracle = int((aw[0] * (2 * aw[1] - 1)).sum())
        assert ones_count_dot(*rows(BitMatrix.from01(aw))) == oracle


# -- node pipeline ------------------------------------------------------------


def _one_node(in_bits, act, w_pm1, shift=0, bias=0.0, beta=(1.0,), pm1=True):
    """(bit, raw contribution) on the 0/1 list in_bits, through predict_fpga, of
    one node with weights w_pm1 (+1 or -1), scale code shift, bias and readouts beta.

    The model's mechanism weights and intercepts are zero, so its output is
    the node's contribution, which tells its bit (the readouts are nonzero).
    For pm1=False, a SIGN layer forwards in_bits as literal 0/1: its nodes
    have zero readouts and biases far past their one-input dots.
    """
    node = layer(act, [np.array(w_pm1) > 0], shift, fx_from_real(bias), beta)
    m, n = len(beta), len(in_bits)
    layers = [node]
    if not pm1:
        forced = np.where(in_bits, 2 << fx.FRAC_BITS, -2 << fx.FRAC_BITS)
        layers.insert(0, layer(Activation.SIGN, np.ones((n, 1)), 0, forced, np.zeros(m)))
        in_bits, n = [1], 1
    mech = external_mechanism(np.zeros((n, m)), np.zeros(m))
    model = ScmModel(parse_encoding(f"density:{n}"), mech, layers, m)
    contrib = predict_fpga(model, rows(BitMatrix.from01([in_bits]))[0])
    return int(np.array_equal(contrib, node.beta_raw[0])), contrib


def test_node_forward_shift_semantics():
    # dot = 2, shift 3 -> pre is 16.0 at wide scale, bit set
    bit, contrib = _one_node([1, 1, 1, 0], Activation.STEP, [1, 1, 1, 1], shift=3)
    assert bit == 1
    assert contrib[0] == fx_from_real(1.0)


def test_node_forward_pre_is_exact_wide_value():
    # dot=2 with shift 3 must give pre exactly 16.0 at the wide scale:
    # a bias of -16.0 cancels it to 0 (bit clear under the strict threshold)
    # and one raw step above tips it positive
    x = [1, 1, 1, 0]
    assert _one_node(x, Activation.STEP, [1, 1, 1, 1], shift=3, bias=-16.0)[0] == 0
    assert _one_node(x, Activation.STEP, [1, 1, 1, 1], shift=3, bias=-16.0 + fx.RESOLUTION)[0] == 1


def test_node_forward_zero_pre_gives_zero_bit():
    bit, contrib = _one_node([1, 0], Activation.STEP, [1, 1], shift=0, bias=0.0)
    assert bit == 0
    assert contrib[0] == -fx_from_real(1.0)  # two's complement of beta


def test_node_forward_sign_gates_contribution():
    bit, contrib = _one_node([1, 1], Activation.SIGN, [1, 1], bias=-10.0,
                             beta=(0.5,))
    assert bit == 0
    assert contrib[0] == 0


def test_node_forward_conditional_domain():
    x, node = [1, 0, 1, 1], dict(w_pm1=[-1, 1, -1, 1], bias=1.5)
    # {0,1} input (1,0,1,1): dot -1, pre = -1 + 1.5 > 0
    assert _one_node(x, Activation.SIGN, **node, pm1=False)[0] == 1
    # read as -1/+1 instead, the same bits give dot -2 and pre -0.5
    assert _one_node(x, Activation.SIGN, **node)[0] == 0


# -- whole-model emulation ----------------------------------------------------


def test_mechanism_only_model_matches_mech_eval():
    rng = np.random.default_rng(2)
    mech = external_mechanism(rng.normal(scale=0.2, size=(10, 2)), rng.normal(size=2))
    model = ScmModel(parse_encoding("density:10"), mech, [], 2)
    bits = BitMatrix.from01(rng.integers(0, 2, size=(20, 10)))
    wide = mech_wide_fpga(mech)(bits.to01().T)
    for i, b in enumerate(rows(bits)):
        assert np.array_equal(predict_fpga(model, b), fx.saturate_array(wide)[i])


def _deep_model(acts):
    """Two layers of 4 and 3 nodes with these activations on 12 inputs, 2 outputs."""
    return random_model(0, 12, zip((4, 3), acts), m=2)


@pytest.mark.parametrize(
    "acts",
    [
        (Activation.STEP, Activation.STEP),
        (Activation.SIGN, Activation.SIGN),
        (Activation.STEP, Activation.SIGN),
        (Activation.SIGN, Activation.STEP),
    ],
)
def test_emulated_bits_match_float_path(acts):
    model = _deep_model(acts)
    rng = np.random.default_rng(3)
    bits = BitMatrix.from01(rng.integers(0, 2, size=(100, model.d_enc)))
    for f, b in zip(predict_float_batch(model, bits), rows(bits)):
        g = fx.dequantize_array(predict_fpga(model, b))
        # biases sit on the grid, so only readout rounding separates the paths
        assert np.max(np.abs(f - g)) <= (model.total_nodes + model.d_enc + 3) * fx.RESOLUTION


def test_predict_fpga_deterministic():
    model = _deep_model((Activation.STEP, Activation.SIGN))
    b = rows(BitMatrix.from01(np.random.default_rng(4).integers(0, 2, size=(1, model.d_enc))))[0]
    first = predict_fpga(model, b)
    for _ in range(5):
        assert np.array_equal(predict_fpga(model, b), first)


def test_predict_fpga_saturates_output():
    mech = external_mechanism(np.zeros((2, 1)), np.array([63.0]))
    nodes = layer(Activation.STEP, [[1, 1]], 0, fx_from_real(1.0), (50.0,))
    model = ScmModel(parse_encoding("density:2"), mech, [nodes], 1)
    out = predict_fpga(model, 0b11)
    assert out[0] == fx.RAW_MAX  # 63 + 50 clamps at the format maximum


# -- batch emulator against the scalar oracle ---------------------------------

# raw parameter values: mostly moderate, with the Q7.25 extremes mixed in
EXTREMES = np.array([fx.RAW_MIN, fx.RAW_MAX], dtype=np.int64)


def _raw(rng, size, extreme):
    raw = rng.integers(-(1 << 27), 1 << 27, size=size)
    return np.where(rng.random(size) < extreme, rng.choice(EXTREMES, size=size), raw).astype(
        np.int32
    )


def _random_model(rng, d_enc, acts, sizes, m, extreme):
    w_raw = _raw(rng, (d_enc, m), extreme)
    u_raw = _raw(rng, m, extreme)
    mech = MechanismModel(fx.dequantize_array(w_raw), fx.dequantize_array(u_raw))
    layers = []
    fan_in = d_enc
    for act, size in zip(acts, sizes):
        shift = rng.integers(0, 8, size=size)
        # around the dot product's range at this scale, so bits vary; half
        # the biases are whole multiples of the scale, so some pre-activations
        # are exactly zero and test the strict threshold
        near = fx.quantize_array(rng.uniform(-1, 1, size=size) * fan_in * (1 << shift))[0]
        whole = rng.integers(-fan_in, fan_in + 1, size=size) << (shift + fx.FRAC_BITS)
        bias_raw = np.where(rng.random(size) < 0.5, near, np.clip(whole, fx.RAW_MIN, fx.RAW_MAX))
        layers.append(layer(act, rng.integers(0, 2, size=(size, fan_in)), shift, bias_raw,
                            fx.dequantize_array(_raw(rng, (size, m), extreme))))
        fan_in = size
    return ScmModel(parse_encoding(f"density:{d_enc}"), mech, layers, m)


@st.composite
def random_models(draw, max_layers=4, max_width=150, max_nodes=70):
    n_layers = draw(st.integers(0, max_layers))
    return _random_model(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        d_enc=draw(st.integers(1, max_width)),
        acts=draw(st.lists(st.sampled_from(Activation), min_size=n_layers, max_size=n_layers)),
        sizes=draw(st.lists(st.integers(1, max_nodes), min_size=n_layers, max_size=n_layers)),
        m=draw(st.integers(1, 3)),
        extreme=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
    )


def _check_batch_against_scalar(model, n_rows, seed):
    rng = np.random.default_rng(seed)
    bits = BitMatrix.from01(rng.integers(0, 2, size=(n_rows, model.d_enc)))
    out = predict_fpga_batch(model, bits)
    assert out.dtype == np.int32 and out.shape == (n_rows, model.n_outputs)
    for i, row in enumerate(rows(bits)):
        assert np.array_equal(out[i], predict_fpga(model, row))


@settings(max_examples=60)
@given(random_models(), st.sampled_from([0, 1, 9]), st.integers(0, 2**32 - 1))
def test_batch_matches_scalar_emulator(model, n_rows, seed):
    _check_batch_against_scalar(model, n_rows, seed)


@settings(max_examples=3)
@given(random_models(max_layers=2, max_width=70, max_nodes=70), st.integers(0, 2**32 - 1))
# a hidden layer of three uint32 halves, read as +-1 and as 0/1 by a SIGN layer
@example(_random_model(np.random.default_rng(70), 70, (Activation.STEP, Activation.SIGN),
                       (70, 9), 2, 0.1), 70)
@example(_random_model(np.random.default_rng(71), 70, (Activation.SIGN, Activation.SIGN),
                       (70, 9), 2, 0.1), 71)
def test_batch_matches_scalar_emulator_past_a_block(model, seed):
    _check_batch_against_scalar(model, BLOCK_ROWS + 1, seed)


@settings(max_examples=3)
@given(random_models(max_layers=2, max_width=70, max_nodes=8), st.integers(0, 2**32 - 1))
def test_reference_batch_matches_one_row_at_a_time_past_a_block(model, seed):
    rng = np.random.default_rng(seed)
    bits = BitMatrix.from01(rng.integers(0, 2, size=(BLOCK_ROWS + 1, model.d_enc)))
    out = predict_float_batch(model, bits)
    assert out.shape == (BLOCK_ROWS + 1, model.n_outputs)
    for i in range(len(bits)):
        assert np.array_equal(out[i], predict_float_batch(model, bits[i : i + 1])[0])


def test_the_read_path_holds_few_block_sized_arrays_at_once():
    # a (60, BLOCK_ROWS) float64 array is 480 KiB. The emulator peaks at about
    # 1.4 of them, and at about 3.8 when each layer's XOR and popcount
    # temporaries and its float64 bits live on into the next layer or block;
    # the reference path peaks at about 1.6, and at 2.1 with float64 signals
    # copied to float32
    model = random_model(7, 56, [(60, Activation.STEP)])
    bits = BitMatrix.from01(np.random.default_rng(7).integers(0, 2, size=(4489, 56)))
    for predict in (predict_fpga_batch, predict_float_batch):
        tracemalloc.start()
        try:
            predict(model, bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 60 * BLOCK_ROWS * 8, predict.__name__


@settings(max_examples=60)
@given(random_models(), st.integers(0, 2**32 - 1))
def test_output_bound_holds_every_wide_sum(model, seed):
    # raw readouts and mechanism values up to the Q7.25 extremes
    bound = output_bound(model)
    assert len(bound) == model.n_outputs and all(type(b) is int for b in bound)
    bits = BitMatrix.from01(np.random.default_rng(seed).integers(0, 2, size=(9, model.d_enc)))
    for row in rows(bits):
        assert all(abs(a) <= b for a, b in zip(wide_sums(model, row), bound))


# -- a model without a mechanism ---------------------------------------------


def _with_mechanism(model: ScmModel, source: str) -> ScmModel:
    """The model's layers on no_mechanism ("none") or an all-zero external mechanism."""
    d_enc, m = model.d_enc, model.n_outputs
    mech = (no_mechanism(d_enc, m) if source == SOURCE_NONE
            else external_mechanism(np.zeros((d_enc, m)), np.zeros(m)))
    return ScmModel(model.encoding, mech, model.layers, m)


@settings(max_examples=60)
@given(random_models(), st.sampled_from([1, 9, BLOCK_ROWS + 1]), st.integers(0, 2**32 - 1))
def test_no_mechanism_reads_as_an_all_zero_external_one(model, n_rows, seed):
    # deep SIGN/STEP mixes, m up to 3 and readouts up to the Q7.25 extremes
    none, zero = (_with_mechanism(model, source) for source in (SOURCE_NONE, "external"))
    bits = BitMatrix.from01(np.random.default_rng(seed).integers(0, 2, size=(n_rows, model.d_enc)))
    reports = [evaluate_bits(m, bits, np.zeros((n_rows, model.n_outputs))) for m in (none, zero)]
    # the same bytes: a -0.0 would show
    assert reports[0].outputs_fpga_raw.tobytes() == reports[1].outputs_fpga_raw.tobytes()
    assert reports[0].outputs_pc.tobytes() == reports[1].outputs_pc.tobytes()
    assert np.array_equal(reports[0].saturated, reports[1].saturated)
    assert reports[0].clamped == reports[1].clamped == sum(lay.saturated for lay in model.layers)
    assert none.clamped == zero.clamped == reports[0].clamped


def test_a_zero_layer_prefix_without_a_mechanism_reads_zeros():
    # the benchmark's layer_costs times ScmModel(encoding, model.mechanism, (), m)
    model = _with_mechanism(random_model(5, 12, [(4, Activation.STEP)], m=2), SOURCE_NONE)
    prefix = ScmModel(model.encoding, model.mechanism, (), model.n_outputs)
    bits = BitMatrix.from01(np.random.default_rng(5).integers(0, 2, size=(BLOCK_ROWS + 3, 12)))
    for predict in (predict_fpga_batch, predict_float_batch):
        out = predict(prefix, bits)
        assert out.shape == (BLOCK_ROWS + 3, 2) and not out.any(), predict.__name__


def test_the_read_paths_do_no_mechanism_work_without_a_mechanism(monkeypatch):
    def refuse(*args):
        raise AssertionError("a 'none' mechanism was evaluated")

    model = random_model(6, 20, [(5, Activation.SIGN), (3, Activation.STEP)], m=2)
    none = _with_mechanism(model, SOURCE_NONE)
    bits = BitMatrix.from01(np.random.default_rng(6).integers(0, 2, size=(BLOCK_ROWS + 3, 20)))
    expected = predict_fpga_batch(none, bits), predict_float_batch(none, bits)
    monkeypatch.setattr(emulate, "mech_wide_fpga", refuse)
    monkeypatch.setattr(model_module, "mech_eval_float_batch", refuse)
    with monkeypatch.context() as patch:  # no 0/1 copy of the bits for the mechanism
        patch.setattr(BitMatrix, "to01", refuse)
        assert np.array_equal(predict_fpga_batch(none, bits), expected[0])
    assert np.array_equal(predict_float_batch(none, bits), expected[1])
    for predict in (predict_fpga_batch, predict_float_batch):  # the patches bite
        with pytest.raises(AssertionError, match="evaluated"):
            predict(model, bits)


def test_a_model_without_a_mechanism_counts_and_bounds_none():
    model = random_model(8, 12, [(5, Activation.STEP), (4, Activation.SIGN)], m=3)
    none, zero = (_with_mechanism(model, source) for source in (SOURCE_NONE, "external"))
    assert memory_report(none).mechanism_fpga_bits == 0
    assert "mechanism: 0 bits fixed" in memory_report(none).text().splitlines()
    assert memory_report(zero).mechanism_fpga_bits == 32 * (12 + 1) * 3
    # quantization_bound leaves out the d_enc weight terms and nothing else
    assert quantization_bound(zero) - quantization_bound(none) == 12 * fx.RESOLUTION
    beta = np.abs(np.vstack([lay.beta_raw for lay in model.layers]).astype(np.int64)).sum(0)
    assert output_bound(none) == output_bound(zero) == beta.tolist()


@settings(max_examples=30)
@given(st.integers(1, 150), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_mech_eval_fpga_matches_integer_loop(d_enc, m, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, d_enc, (), (), m, extreme=0.5)
    mech = model.mechanism
    x01 = rng.integers(0, 2, size=d_enc)
    wide = mech_wide_fpga(mech)(x01[:, None])
    for q in range(m):
        acc = int(mech.intercepts_raw[q])
        for i in range(d_enc):
            w = int(mech.weights_raw[i, q])
            acc += w if x01[i] else fx_neg(w)
        assert wide[0, q] == acc


@settings(max_examples=60)
@given(random_models(), st.integers(0, 2**32 - 1))
def test_reference_layer_bits_equal_the_emulated_ones(model, seed):
    # saturated biases (RAW_MIN's negation overflows int32), exact-zero
    # pre-activations and fan-ins up to 150, layer by layer
    x = BitMatrix.from01(np.random.default_rng(seed).integers(0, 2, size=(9, model.d_enc)))
    s = signals_pm1(x).astype(np.float32)
    for layer, fired in zip(model.layers, emulated_layer_bits(model, x)):
        s = layer_forward_float(layer)(s)
        assert np.array_equal(s.T > 0, fired)


# -- the popcount limit at every threshold edge ------------------------------

EDGE_FAN_INS = (1, 63, 64, 65, 130)


def _edge_biases(shift: int) -> list[int]:
    """Raw biases at each whole multiple k * 2**(shift + 25) in int32, one raw
    step either side of each, and RAW_MIN and RAW_MAX."""
    unit = 1 << (shift + fx.FRAC_BITS)
    whole = range(fx.RAW_MIN // unit * unit, fx.RAW_MAX + 1, unit)
    near = {b + d for b in whole for d in (-1, 0, 1)} | {fx.RAW_MIN, fx.RAW_MAX}
    return sorted(b for b in near if fx.RAW_MIN <= b <= fx.RAW_MAX)


def _edge_layer(rng, fan_in: int, act: Activation) -> ScmLayer:
    """One node per scale code 0..7 and edge bias, three times: with all weights
    +1, all -1 and random. Small positive readouts keep every output sum in
    range, so each bit shows in the output."""
    pairs = [(shift, b) for shift in range(8) for b in _edge_biases(shift)]
    w01 = np.vstack([np.ones((len(pairs), fan_in)), np.zeros((len(pairs), fan_in)),
                     rng.integers(0, 2, size=(len(pairs), fan_in))])
    beta = fx.dequantize_array(rng.integers(1, 2**19, size=(3 * len(pairs), 1)))
    return layer(act, w01, [p[0] for p in pairs] * 3, [p[1] for p in pairs] * 3, beta)


def _sweep_rows(rng, width: int, n_random: int = 16) -> np.ndarray:
    """Rows with 0..width ones, then random rows: under all-+1 or all--1
    weights the first rows give every dot from -width to width."""
    return np.vstack([np.tri(width + 1, width, -1, dtype=np.uint8),
                      rng.integers(0, 2, size=(n_random, width), dtype=np.uint8)])


@pytest.mark.parametrize("pm1", [True, False], ids=["pm1", "zero-one"])
@pytest.mark.parametrize("fan_in", EDGE_FAN_INS)
def test_layer_bits_at_every_threshold_edge(fan_in, pm1):
    rng = np.random.default_rng(fan_in)
    layer = _edge_layer(rng, fan_in, Activation.STEP)
    x01 = _sweep_rows(rng, fan_in)
    # the datapath's literal stages in int64: the dot, the shift, the bias and
    # the strict threshold
    x, w = x01.astype(np.int64), layer.w.to01().astype(np.int64) * 2 - 1
    signal = 2 * x - 1 if pm1 else x
    dot = signal @ w.T
    pre = (dot << layer.shift.astype(np.int64) + fx.FRAC_BITS) + layer.bias_raw
    assert np.any(pre == 0)  # some pre-activations lie on the edge
    words = BitMatrix.from01(x01).words
    for word in (WORD, HALF):  # the encoded inputs' width, and the one between layers
        fired = emulate._layer_bits(layer, pm1, word)(words.view(word).T)
        assert fired.shape == pre.T.shape and fired.dtype == bool
        assert np.array_equal(fired, pre.T > 0)
    # the reference path fires on the same edges
    assert np.array_equal(layer_forward_float(layer)(signal) > 0, pre > 0)


@pytest.mark.parametrize("pm1", [True, False], ids=["pm1", "zero-one"])
@pytest.mark.parametrize("fan_in", EDGE_FAN_INS)
def test_batch_matches_scalar_at_every_threshold_edge(fan_in, pm1):
    # the edge layer reads the encoded +-1 inputs, or the 0/1 bits of a SIGN
    # layer of fan_in random nodes
    rng = np.random.default_rng(fan_in)
    d_enc = fan_in if pm1 else 12
    layers = [] if pm1 else [_random_model(rng, d_enc, (Activation.SIGN,), (fan_in,), 1,
                                           0.0).layers[0]]
    layers.append(_edge_layer(rng, fan_in, Activation.STEP))
    mech = MechanismModel(np.zeros((d_enc, 1)), np.zeros(1))
    model = ScmModel(parse_encoding(f"density:{d_enc}"), mech, layers, 1)
    bits = BitMatrix.from01(_sweep_rows(rng, d_enc, n_random=4))
    out = predict_fpga_batch(model, bits)
    for i, row in enumerate(rows(bits)):
        assert np.array_equal(out[i], predict_fpga(model, row))


def test_the_scalar_emulator_calls_no_batch_kernel(monkeypatch):
    # a deep STEP/SIGN mix with a mechanism and Q7.25 extremes, so every
    # kernel the batch path uses is on the way
    rng = np.random.default_rng(6)
    acts = (Activation.STEP, Activation.SIGN, Activation.STEP, Activation.SIGN)
    model = _random_model(rng, 70, acts, (9, 7, 5, 3), 2, extreme=0.2)
    bits = BitMatrix.from01(rng.integers(0, 2, size=(40, model.d_enc)))
    expected = predict_fpga_batch(model, bits)

    def forbidden(*args):
        raise AssertionError("a batch kernel called from predict_fpga")

    for module, name in [(mechanism, "mech_wide_fpga"), (emulate, "mech_wide_fpga"),
                         (fx, "conditional_sum"), (fx, "fx_neg_array"),
                         (fx, "saturate_array"), (emulate, "_layer_bits"),
                         (emulate, "_counts"), (emulate, "_packer")]:
        monkeypatch.setattr(module, name, forbidden)
    for i, row in enumerate(rows(bits)):
        assert np.array_equal(predict_fpga(model, row), expected[i])


def test_batch_rejects_wrong_width():
    model = _deep_model((Activation.STEP, Activation.STEP))
    with pytest.raises(ValueError):
        predict_fpga_batch(model, BitMatrix.from01(np.zeros((2, model.d_enc + 1), dtype=np.uint8)))


def test_evaluate_rejects_targets_of_the_wrong_width():
    model = _saturating_model([1 << 20])
    rows = BitMatrix.from01(np.array([[1], [0], [1]]))
    assert evaluate_bits(model, rows, np.zeros((3, 1))).rmse_pc is not None
    with pytest.raises(ValueError, match=r"\(3, 2\), not \(samples, outputs\) = \(3, 1\)"):
        evaluate_bits(model, rows, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="not"):
        evaluate_bits(model, rows, np.zeros((2, 1)))


@pytest.mark.parametrize("mode", ["pc", "fpga", "both"])
def test_evaluate_refuses_zero_rows(mode):
    model = _saturating_model([1 << 20])
    with pytest.raises(ValueError, match="no samples"):
        evaluate_bits(model, BitMatrix.from01(np.zeros((0, 1), dtype=np.uint8)),
                      np.zeros((0, 1)), mode)


def _saturating_model(m_betas):
    """Two SIGN nodes on one input bit that fire exactly when it is set.

    Together they add 2 * beta, so a readout at RAW_MAX or RAW_MIN drives
    the sum past the Q7.25 range on exactly the rows whose bit is set.
    """
    m = len(m_betas)
    mech = external_mechanism(np.zeros((1, m)), np.zeros(m))
    nodes = layer(Activation.SIGN, np.ones((2, 1)), beta=fx.dequantize_array(m_betas))
    return ScmModel(parse_encoding("density:1"), mech, [nodes], m)


def test_saturation_counted_per_output():
    model = _saturating_model([fx.RAW_MAX, fx.RAW_MIN, 1 << 20])
    rows = BitMatrix.from01(np.array([[1], [0], [1], [1], [0]]))
    y = np.zeros((5, 3))
    rep = evaluate_bits(model, rows, y, "fpga")
    assert rep.saturated.tolist() == [3, 3, 0]
    assert rep.outputs_fpga_raw[:, 0].tolist() == [fx.RAW_MAX, 0, fx.RAW_MAX, fx.RAW_MAX, 0]
    assert rep.outputs_fpga_raw[:, 1].tolist() == [fx.RAW_MIN, 0, fx.RAW_MIN, fx.RAW_MIN, 0]
    pc = evaluate_bits(model, rows, y, "pc")
    assert pc.saturated is pc.outputs_fpga is pc.max_output_delta is None
    with pytest.raises(ValueError, match=r"mode must be one of \('pc', 'fpga', 'both'\)"):
        evaluate_bits(model, rows, y, "fast")


def test_mechanism_saturation_is_counted():
    # with no nodes the mechanism sum is the whole output, so it saturates at the end
    w_raw = np.full((2, 1), fx.RAW_MAX, dtype=np.int32)
    mech = MechanismModel(fx.dequantize_array(w_raw), np.zeros(1))
    model = ScmModel(parse_encoding("density:2"), mech, [], 1)
    rows = BitMatrix.from01(np.array([[1, 1], [1, 0], [0, 0]]))
    saturated = np.zeros(1, dtype=np.int64)
    out = predict_fpga_batch(model, rows, saturated)
    assert out[:, 0].tolist() == [fx.RAW_MAX, 0, fx.RAW_MIN]
    assert saturated.tolist() == [2]


def test_mechanism_sum_saturates_only_with_the_final_sum():
    # 2 * RAW_MAX is past the Q7.25 range, but the firing node's RAW_MIN readout
    # brings the whole sum back inside it, so nothing may clamp
    w_raw = np.full((2, 1), fx.RAW_MAX, dtype=np.int32)
    mech = MechanismModel(fx.dequantize_array(w_raw), np.zeros(1))
    model = ScmModel(parse_encoding("density:2"), mech,
                     [layer(Activation.SIGN, [[1, 1]], beta=(fx.REAL_MIN,))], 1)
    rep = evaluate_bits(model, BitMatrix.from01(np.array([[1, 1]])), np.zeros((1, 1)), "both")
    assert rep.outputs_fpga_raw[0, 0] == 2 * fx.RAW_MAX + fx.RAW_MIN == 2147483646
    assert predict_fpga(model, 0b11)[0] == 2147483646
    assert rep.saturated.tolist() == [0]
    assert rep.max_output_delta <= quantization_bound(model)


# -- cycle model ----------------------------------------------------------


# the reference hardware's encoding at each of its encoded widths
SPECS = {25: "s2v2", 56: "s1:3", 576: "s2v1", 224: "s2v1"}


def _shape_stub(d_enc, sizes, act=Activation.STEP):
    """Model with the right widths/shapes; parameter values are irrelevant."""
    mech = external_mechanism(np.zeros((d_enc, 1)), np.zeros(1))
    layers = [layer(act, np.ones((n, fan_in))) for fan_in, n in zip((d_enc, *sizes), sizes)]
    return ScmModel(parse_encoding(SPECS[d_enc]), mech, layers, 1)


# reference hardware rows: (encoded width, layer sizes, expected cycles)
CYCLE_ROWS = [
    (25, (60,), 9),
    (25, (60,), 9),
    (25, (40, 40, 40), 23),
    (25, (60, 60), 18),
    (56, (60,), 10),
    (56, (60,), 10),
    (56, (40, 40, 40), 24),
    (56, (40, 40, 40), 24),
    (576, (20,), 10),
    (576, (20,), 10),
    (576, (20, 20, 20), 24),
    (576, (20, 20), 19),
    (224, (25,), 10),
    (224, (25,), 10),
    (224, (20, 8), 19),
    (224, (20, 18), 19),
]


@pytest.mark.parametrize("d_enc,sizes,expected", CYCLE_ROWS)
def test_cycle_table_rows(d_enc, sizes, expected):
    assert cycle_estimate(_shape_stub(d_enc, sizes)) == expected


def test_cycle_mechanism_only():
    model = _shape_stub(25, ())
    assert cycle_estimate(model) == 1 + 2 + 2


# -- memory model -----------------------------------------------------------


def _half_up_1dp(x: float) -> float:
    from decimal import ROUND_HALF_UP, Decimal

    return float(Decimal(repr(x)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def test_memory_inputs_table():
    rows = [  # d_enc, d, reference one-decimal display
        (25, 1, 60.9),
        (56, 2, 56.3),
        (576, 36, 75.0),
        (224, 14, 75.0),
    ]
    for d_enc, d, pct in rows:
        model = _shape_stub(d_enc, ())
        assert model.n_features == d
        rep = memory_report(model)
        assert rep.inputs_real_bits == 64 * d
        assert rep.inputs_fpga_bits == d_enc
        assert rep.input_reduction == 1 - d_enc / (64 * d)  # exact fraction
        assert _half_up_1dp(rep.input_reduction * 100) == pct


def test_memory_weights_table():
    rows = [  # spec, d, nodes, real bits, fpga bits, pct
        ("s2v2", 1, 60, 3840, 1500, 60.9375),
        ("s1:3", 2, 60, 7680, 3360, 56.25),
        ("s2v1", 36, 20, 46080, 11520, 75.0),
        ("s2v1", 14, 25, 22400, 5600, 75.0),
    ]
    for spec_text, d, n, real_bits, fpga_bits, pct in rows:
        rep = memory_report(_shape_stub(d * parse_encoding(spec_text).bits_per_input, (n,)))
        assert SPECS[rep.inputs_fpga_bits] == spec_text
        assert rep.weight_real_bits == real_bits
        assert rep.weight_fpga_bits == fpga_bits
        assert round(rep.weight_reduction * 100, 4) == pct


def test_memory_deep_weight_bits_match_power_table():
    # reference per-model binary weight counts for the deep configurations
    cases = [
        (25, (40, 40, 40), 4200),
        (25, (60, 60), 5100),
        (56, (40, 40, 40), 5440),
        (576, (20, 20, 20), 12320),
        (576, (20, 20), 11920),
        (224, (20, 8), 4640),
        (224, (20, 18), 4840),
    ]
    for d_enc, sizes, expected in cases:
        model = _shape_stub(d_enc, sizes, Activation.SIGN)
        assert memory_report(model).weight_fpga_bits == expected


def test_memory_beta_reduction_is_half():
    model = _shape_stub(25, (60,))
    rep = memory_report(model)
    assert rep.beta_real_bits == 64 * 60
    assert rep.beta_fpga_bits == 32 * 60
    assert rep.beta_reduction == 0.5
    assert rep.lambda_fpga_bits == 3 * 60


def test_memory_counts_the_raw_biases_and_the_mechanism():
    # 32 bits per node bias, per mechanism weight (d_enc x m) and per intercept
    shapes = [(_shape_stub(25, (60,)), 25, (60,), 1), (_shape_stub(25, ()), 25, (), 1),
              (_shape_stub(56, (40, 40, 40)), 56, (40, 40, 40), 1),
              (random_model(3, 12, [(5, Activation.STEP), (4, Activation.SIGN)], m=3), 12, (5, 4), 3)]
    for model, d_enc, sizes, m in shapes:
        rep = memory_report(model)
        assert rep.bias_fpga_bits == 32 * sum(sizes)
        assert rep.mechanism_fpga_bits == 32 * (d_enc * m + m)
        lines = rep.text().splitlines()
        assert f"biases: {rep.bias_fpga_bits} bits fixed" in lines
        assert f"mechanism: {rep.mechanism_fpga_bits} bits fixed" in lines


def test_report_text_and_time():
    model = _shape_stub(25, (60,))
    rep = memory_report(model, clock_hz=100e6)
    assert rep.cycles == 9
    assert abs(rep.eval_seconds - 90e-9) < 1e-15
    text = rep.text()
    assert "9" in text and "90 ns" in text
