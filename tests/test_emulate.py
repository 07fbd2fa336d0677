import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scmfpga import emulate
from scmfpga import fixedpoint as fx
from scmfpga.bits import BitMatrix, BitVec
from scmfpga.emulate import (
    BLOCK_ROWS,
    cycle_estimate,
    memory_report,
    node_forward_fpga,
    ones_count_dot,
    predict_fpga,
    predict_fpga_batch,
    xnor_count,
)
from scmfpga.encoding import parse_encoding
from scmfpga.evaluate import evaluate_bits
from scmfpga.mechanism import MechanismModel, external_mechanism, mech_eval_fpga, signals_pm1
from scmfpga.model import (
    Activation,
    ScmLayer,
    ScmModel,
    ScmNode,
    layer_forward_float,
    predict_float,
    predict_float_batch,
    quantization_bound,
)


# -- bit-level dot products -------------------------------------------------


def test_xnor_count_known_vectors():
    a = BitVec.from_pm1([-1, 1, 1, -1])
    b = BitVec.from_pm1([-1, 1, -1, -1])
    assert xnor_count(a, b) == 2


def test_xnor_count_identical():
    for n in (1, 5, 64, 130):
        v = BitVec.from01(np.random.default_rng(n).integers(0, 2, size=n))
        assert xnor_count(v, v) == n


def test_xnor_count_random_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 256))
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        oracle = int(((2 * a - 1) * (2 * b - 1)).sum())
        assert xnor_count(BitVec.from01(a), BitVec.from01(b)) == oracle


def test_ones_count_dot_known_vectors():
    a = BitVec.from01([1, 0, 1, 1])
    w = BitVec.from_pm1([-1, 1, -1, 1])
    assert ones_count_dot(a, w) == -1


def test_ones_count_dot_zero_input():
    w = BitVec.from_pm1([1, -1, 1])
    assert ones_count_dot(BitVec(3), w) == 0


def test_ones_count_dot_random_oracle():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(1, 256))
        a = rng.integers(0, 2, size=n)
        w = rng.integers(0, 2, size=n)
        oracle = int((a * (2 * w - 1)).sum())
        assert ones_count_dot(BitVec.from01(a), BitVec.from01(w)) == oracle


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        xnor_count(BitVec(3), BitVec(4))
    with pytest.raises(ValueError):
        ones_count_dot(BitVec(3), BitVec(4))


# -- node pipeline ------------------------------------------------------------


def _node(w_pm1, shift=0, bias=0.0, beta=(1.0,)):
    beta = np.asarray(beta, dtype=np.float64)
    return ScmNode(
        w=BitVec.from_pm1(w_pm1),
        shift=shift,
        bias=bias,
        bias_raw=fx.fx_from_real(bias),
        beta=beta,
        beta_raw=fx.quantize_array(beta)[0],
    )


def test_node_forward_shift_semantics():
    # dot = 2, shift 3 -> pre is 16.0 at wide scale, bit set
    node = _node([1, 1, 1, 1], shift=3)
    bit, contrib = node_forward_fpga(BitVec.from_pm1([1, 1, 1, -1]), node, Activation.STEP)
    assert bit == 1
    assert contrib[0] == fx.fx_from_real(1.0)


def test_node_forward_pre_is_exact_wide_value():
    # dot=2 with shift 3 must give pre exactly 16.0 at the wide scale:
    # a bias of -16.0 cancels it to 0 (bit clear under the strict threshold)
    # and one raw step above tips it positive
    eps = fx.RESOLUTION
    at_zero = _node([1, 1, 1, 1], shift=3, bias=-16.0)
    just_over = _node([1, 1, 1, 1], shift=3, bias=-16.0 + eps)
    x = BitVec.from_pm1([1, 1, 1, -1])
    assert node_forward_fpga(x, at_zero, Activation.STEP)[0] == 0
    assert node_forward_fpga(x, just_over, Activation.STEP)[0] == 1


def test_node_forward_zero_pre_gives_zero_bit():
    node = _node([1, 1], shift=0, bias=0.0)
    bit, contrib = node_forward_fpga(BitVec.from_pm1([1, -1]), node, Activation.STEP)
    assert bit == 0
    assert contrib[0] == -fx.fx_from_real(1.0)  # two's complement of beta


def test_node_forward_sign_gates_contribution():
    node = _node([1, 1], shift=0, bias=-10.0, beta=(0.5,))
    bit, contrib = node_forward_fpga(BitVec.from_pm1([1, 1]), node, Activation.SIGN)
    assert bit == 0
    assert contrib[0] == 0


def test_node_forward_conditional_domain():
    node = _node([-1, 1, -1, 1], bias=1.5)
    # {0,1} input (1,0,1,1): dot -1, pre = -1 + 1.5 > 0
    bit, _ = node_forward_fpga(
        BitVec.from01([1, 0, 1, 1]), node, Activation.SIGN, pm1=False
    )
    assert bit == 1


# -- whole-model emulation ----------------------------------------------------


def test_mechanism_only_model_matches_mech_eval():
    rng = np.random.default_rng(2)
    mech = external_mechanism(rng.normal(scale=0.2, size=(10, 2)), rng.normal(size=2))
    model = ScmModel(parse_encoding("density:10"), mech, [], 2)
    for _ in range(20):
        b = BitVec.from01(rng.integers(0, 2, size=10))
        assert np.array_equal(predict_fpga(model, b), mech_eval_fpga(b, mech))


def _deep_model(acts, d_enc=12, sizes=(4, 3), seed=0, m=2):
    rng = np.random.default_rng(seed)
    mech = external_mechanism(rng.normal(scale=0.1, size=(d_enc, m)), rng.normal(size=m))
    layers = []
    fan_in = d_enc
    for n, act in zip(sizes, acts):
        nodes = []
        for _ in range(n):
            beta = rng.normal(scale=0.4, size=m)
            bias = fx.fx_to_real(fx.fx_from_real(rng.uniform(-3, 3)))
            nodes.append(
                ScmNode(
                    w=BitVec.from01(rng.integers(0, 2, size=fan_in)),
                    shift=int(rng.integers(0, 4)),
                    bias=bias,
                    bias_raw=fx.fx_from_real(bias),
                    beta=beta,
                    beta_raw=fx.quantize_array(beta)[0],
                )
            )
        layers.append(ScmLayer(act, nodes))
        fan_in = n
    model = ScmModel(parse_encoding("density:12"), mech, layers, m)
    model.validate()
    return model


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
    from scmfpga.model import predict_float

    model = _deep_model(acts)
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = BitVec.from01(rng.integers(0, 2, size=model.d_enc))
        f = predict_float(model, b)
        g = fx.dequantize_array(predict_fpga(model, b))
        # biases sit on the grid, so only readout rounding separates the paths
        assert np.max(np.abs(f - g)) <= (model.total_nodes + model.d_enc + 3) * fx.RESOLUTION


def test_predict_fpga_deterministic():
    model = _deep_model((Activation.STEP, Activation.SIGN))
    b = BitVec.from01(np.random.default_rng(4).integers(0, 2, size=model.d_enc))
    first = predict_fpga(model, b)
    for _ in range(5):
        assert np.array_equal(predict_fpga(model, b), first)


def test_predict_fpga_saturates_output():
    mech = external_mechanism(np.zeros((2, 1)), np.array([63.0]))
    nodes = [_node([1, 1], bias=1.0, beta=(50.0,))]
    model = ScmModel(
        parse_encoding("density:2"), mech, [ScmLayer(Activation.STEP, nodes)], 1
    )
    out = predict_fpga(model, BitVec.from_pm1([1, 1]))
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
    mech = MechanismModel(
        fx.dequantize_array(w_raw), fx.dequantize_array(u_raw), w_raw, u_raw
    )
    layers = []
    fan_in = d_enc
    for act, size in zip(acts, sizes):
        nodes = []
        for _ in range(size):
            shift = int(rng.integers(0, 8))
            # around the dot product's range at this scale, so bits vary; half
            # the biases are whole multiples of the scale, so some pre-activations
            # are exactly zero and test the strict threshold
            if rng.random() < 0.5:
                bias_raw = int(fx.quantize_array(rng.uniform(-1, 1) * fan_in * (1 << shift))[0])
            else:
                bias_raw = fx.saturate_to_fx(int(rng.integers(-fan_in, fan_in + 1)) << (shift + 25))
            beta_raw = _raw(rng, m, extreme)
            nodes.append(
                ScmNode(
                    w=BitVec.from01(rng.integers(0, 2, size=fan_in)),
                    shift=shift,
                    bias=fx.fx_to_real(bias_raw),
                    bias_raw=bias_raw,
                    beta=fx.dequantize_array(beta_raw),
                    beta_raw=beta_raw,
                )
            )
        layers.append(ScmLayer(act, nodes))
        fan_in = size
    model = ScmModel(parse_encoding(f"density:{d_enc}"), mech, layers, m)
    model.validate()
    return model


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
    rows = [BitVec.from01(rng.integers(0, 2, size=model.d_enc)) for _ in range(n_rows)]
    out = predict_fpga_batch(model, BitMatrix.from_rows(rows, model.d_enc))
    assert out.dtype == np.int32 and out.shape == (n_rows, model.n_outputs)
    for i, row in enumerate(rows):
        assert np.array_equal(out[i], predict_fpga(model, row))


@settings(max_examples=60)
@given(random_models(), st.sampled_from([0, 1, 9]), st.integers(0, 2**32 - 1))
def test_batch_matches_scalar_emulator(model, n_rows, seed):
    _check_batch_against_scalar(model, n_rows, seed)


@settings(max_examples=3)
@given(random_models(max_layers=2, max_width=70, max_nodes=8), st.integers(0, 2**32 - 1))
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
        assert np.array_equal(out[i], predict_float(model, bits[i]))


@settings(max_examples=30)
@given(st.integers(1, 150), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_mech_eval_fpga_matches_integer_loop(d_enc, m, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, d_enc, (), (), m, extreme=0.5)
    mech = model.mechanism
    x = BitVec.from01(rng.integers(0, 2, size=d_enc))
    for q in range(m):
        acc = int(mech.intercepts_raw[q])
        for i in range(d_enc):
            w = int(mech.weights_raw[i, q])
            acc += w if x.get(i) else fx.fx_neg(w)
        assert mech_eval_fpga(x, mech)[q] == fx.saturate_to_fx(acc)


@settings(max_examples=60)
@given(random_models(), st.integers(0, 2**32 - 1))
def test_reference_layer_bits_equal_the_emulated_ones(model, seed):
    # saturated biases (RAW_MIN's negation overflows int32), exact-zero
    # pre-activations and fan-ins up to 150, layer by layer
    x = BitMatrix.from01(np.random.default_rng(seed).integers(0, 2, size=(9, model.d_enc)))
    s = signals_pm1(x)
    pm1 = True
    for layer in model.layers:
        fired = emulate._layer_bits(layer, x, pm1)
        s = layer_forward_float(s, layer)
        assert np.array_equal(s > 0, fired)
        x, pm1 = BitMatrix.from01(fired), layer.activation == Activation.STEP


def test_batch_does_not_call_the_scalar_emulator(monkeypatch):
    model = _deep_model((Activation.STEP, Activation.SIGN))
    rows = BitMatrix.from01(np.random.default_rng(5).integers(0, 2, size=(20, model.d_enc)))
    expected = np.stack([predict_fpga(model, r) for r in rows])

    def forbidden(*args):
        raise AssertionError("predict_fpga called from the batch path")

    monkeypatch.setattr(emulate, "predict_fpga", forbidden)
    monkeypatch.setattr(emulate, "node_forward_fpga", forbidden)
    assert np.array_equal(predict_fpga_batch(model, rows), expected)


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
    betas = np.array(m_betas, dtype=np.int32)
    m = betas.size
    mech = external_mechanism(np.zeros((1, m)), np.zeros(m))
    node = ScmNode(
        w=BitVec.from_pm1([1]), shift=0, bias=0.0, bias_raw=0,
        beta=fx.dequantize_array(betas), beta_raw=betas,
    )
    layer = ScmLayer(Activation.SIGN, [node, node])
    return ScmModel(parse_encoding("density:1"), mech, [layer], m)


def test_saturation_counted_per_output():
    model = _saturating_model([fx.RAW_MAX, fx.RAW_MIN, 1 << 20])
    rows = BitMatrix.from01(np.array([[1], [0], [1], [1], [0]]))
    y = np.zeros((5, 3))
    rep = evaluate_bits(model, rows, y, "fpga")
    assert rep.saturated.tolist() == [3, 3, 0]
    assert rep.outputs_fpga_raw[:, 0].tolist() == [fx.RAW_MAX, 0, fx.RAW_MAX, fx.RAW_MAX, 0]
    assert rep.outputs_fpga_raw[:, 1].tolist() == [fx.RAW_MIN, 0, fx.RAW_MIN, fx.RAW_MIN, 0]
    assert evaluate_bits(model, rows, y, "pc").saturated is None


def test_mechanism_saturation_is_counted():
    # with no nodes the mechanism sum is the whole output, so it saturates at the end
    w_raw = np.full((2, 1), fx.RAW_MAX, dtype=np.int32)
    mech = MechanismModel(fx.dequantize_array(w_raw), np.zeros(1), w_raw, np.zeros(1, np.int32))
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
    mech = MechanismModel(fx.dequantize_array(w_raw), np.zeros(1), w_raw, np.zeros(1, np.int32))
    layer = ScmLayer(Activation.SIGN, [_node([1, 1], beta=(fx.fx_to_real(fx.RAW_MIN),))])
    model = ScmModel(parse_encoding("density:2"), mech, [layer], 1)
    rows = BitMatrix.from01(np.array([[1, 1]]))
    rep = evaluate_bits(model, rows, np.zeros((1, 1)), "both")
    assert rep.outputs_fpga_raw[0, 0] == 2 * fx.RAW_MAX + fx.RAW_MIN == 2147483646
    assert predict_fpga(model, rows[0])[0] == 2147483646
    assert rep.saturated.tolist() == [0]
    assert rep.max_output_delta <= quantization_bound(model)


# -- cycle model ----------------------------------------------------------


def _shape_stub(d_enc, sizes, acts=None, m=1):
    """Model with the right widths/shapes; parameter values are irrelevant."""
    acts = acts or [Activation.STEP] * len(sizes)
    mech = external_mechanism(np.zeros((d_enc, m)), np.zeros(m))
    layers = []
    fan_in = d_enc
    for n, act in zip(sizes, acts):
        nodes = [_node([1] * fan_in, beta=[0.0] * m) for _ in range(n)]
        layers.append(ScmLayer(act, nodes))
        fan_in = n
    enc = parse_encoding(f"density:{d_enc}") if d_enc <= 255 else parse_encoding("s2v1")
    model = ScmModel(enc, mech, layers, m)
    return model


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
        spec = {25: "s2v2", 56: "s1:3", 576: "s2v1", 224: "s2v1"}[d_enc]
        mech = external_mechanism(np.zeros((d_enc, 1)), np.zeros(1))
        model = ScmModel(parse_encoding(spec), mech, [], 1)
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
        spec = parse_encoding(spec_text)
        d_enc = d * spec.bits_per_input
        mech = external_mechanism(np.zeros((d_enc, 1)), np.zeros(1))
        model = ScmModel(spec, mech, [ScmLayer(Activation.STEP, [
            _node([1] * d_enc) for _ in range(n)
        ])], 1)
        rep = memory_report(model)
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
        spec = {25: "s2v2", 56: "s1:3", 576: "s2v1", 224: "s2v1"}[d_enc]
        mech = external_mechanism(np.zeros((d_enc, 1)), np.zeros(1))
        layers = []
        fan_in = d_enc
        for n in sizes:
            layers.append(ScmLayer(Activation.SIGN, [_node([1] * fan_in) for _ in range(n)]))
            fan_in = n
        model = ScmModel(parse_encoding(spec), mech, layers, 1)
        assert memory_report(model).weight_fpga_bits == expected


def test_memory_beta_reduction_is_half():
    model = _shape_stub(25, (60,))
    rep = memory_report(model)
    assert rep.beta_real_bits == 64 * 60
    assert rep.beta_fpga_bits == 32 * 60
    assert rep.beta_reduction == 0.5
    assert rep.lambda_fpga_bits == 3 * 60


def test_report_text_and_time():
    model = _shape_stub(25, (60,))
    rep = memory_report(model, clock_hz=100e6)
    assert rep.cycles == 9
    assert abs(rep.eval_seconds - 90e-9) < 1e-15
    text = rep.text()
    assert "9" in text and "90 ns" in text
