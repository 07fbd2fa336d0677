import functools
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scmfpga import emulate, fixedpoint as fx
from scmfpga.bits import BitMatrix, BitVec
from scmfpga.encoding import parse_encoding
from scmfpga.errors import ModelFormatError
from scmfpga.evaluate import evaluate_bits
from scmfpga.mechanism import external_mechanism, signals_pm1
from scmfpga.model import (
    Activation,
    ScmLayer,
    ScmModel,
    ScmNode,
    layer_forward_float,
    predict_float,
    quantization_bound,
)
from scmfpga.modelfile import (
    load_model,
    model_from_bytes,
    model_from_json,
    model_to_bytes,
    model_to_json,
    save_model,
)
from scmfpga.train import TrainConfig, prepare_train_data, train


def _model(seed=0, sizes=(3, 2), m=2, d_enc=10):
    rng = np.random.default_rng(seed)
    mech = external_mechanism(rng.normal(scale=0.2, size=(d_enc, m)), rng.normal(size=m))
    layers = []
    fan_in = d_enc
    for i, n in enumerate(sizes):
        nodes = []
        for _ in range(n):
            beta = rng.normal(scale=0.4, size=m)
            bias = fx.fx_to_real(fx.fx_from_real(rng.uniform(-2, 2)))
            nodes.append(
                ScmNode(
                    w=BitVec.from01(rng.integers(0, 2, size=fan_in)),
                    shift=int(rng.integers(0, 8)),
                    bias=bias,
                    bias_raw=fx.fx_from_real(bias),
                    beta=beta,
                    beta_raw=fx.quantize_array(beta)[0],
                )
            )
        layers.append(ScmLayer(Activation.STEP if i % 2 == 0 else Activation.SIGN, nodes))
        fan_in = n
    return ScmModel(parse_encoding("density:10"), mech, layers, m)


def test_bytes_roundtrip_exact():
    model = _model()
    blob = model_to_bytes(model)
    back = model_from_bytes(blob)
    assert model_to_bytes(back) == blob


def test_file_roundtrip(tmp_path):
    model = _model(seed=1)
    p = tmp_path / "m.scm"
    save_model(model, p)
    back = load_model(p)
    assert model_to_bytes(back) == p.read_bytes()
    rng = np.random.default_rng(2)
    for _ in range(10):
        b = BitVec.from01(rng.integers(0, 2, size=model.d_enc))
        assert np.array_equal(predict_float(model, b), predict_float(back, b))


def test_roundtrip_without_sidecar():
    model = _model(seed=3)
    blob = model_to_bytes(model, include_floats=False)
    back = model_from_bytes(blob)
    # float values fall back to the dequantized raw fields
    assert np.array_equal(back.mechanism.weights, fx.dequantize_array(model.mechanism.weights_raw))
    assert model_to_bytes(back, include_floats=False) == blob
    assert len(blob) < len(model_to_bytes(model))


def test_bad_magic():
    blob = bytearray(model_to_bytes(_model()))
    blob[:4] = b"NOPE"
    with pytest.raises(ModelFormatError, match="magic"):
        model_from_bytes(bytes(blob))


def test_version_error_checked_before_crc():
    blob = bytearray(model_to_bytes(_model()))
    blob[4] ^= 0xFF  # flip a version byte; the CRC is now stale too
    with pytest.raises(ModelFormatError, match="version"):
        model_from_bytes(bytes(blob))


def test_truncated_file_fails_crc():
    blob = model_to_bytes(_model())
    with pytest.raises(ModelFormatError, match="CRC|truncated"):
        model_from_bytes(blob[:-3])


def test_corrupt_body_fails_crc():
    blob = bytearray(model_to_bytes(_model()))
    blob[40] ^= 0x01
    with pytest.raises(ModelFormatError, match="CRC"):
        model_from_bytes(bytes(blob))


def _first_layer_pos(model):
    """Offset of the first layer record in a file without the float sidecar."""
    # header: 4+2+1+2+2+4+1+8, then the mechanism arrays and the layer count
    return 24 + 4 * (model.d_enc * model.n_outputs) + 4 * model.n_outputs + 2


def _with_crc(body: bytes) -> bytes:
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)


def test_bad_shift_code_rejected():
    model = _model()
    blob = bytearray(model_to_bytes(model, include_floats=False))
    # find the first layer's shift byte block and poison one entry
    pos = _first_layer_pos(model) + 9  # past the layer header
    pos += len(model.layers[0]) * 8  # one 64-bit word per 10-bit weight row
    blob[pos] = 9
    with pytest.raises(ModelFormatError, match="scale code"):
        model_from_bytes(_with_crc(blob[:-4]))


def test_layer_record_without_nodes_rejected():
    model = _model(sizes=(3,))
    pos = _first_layer_pos(model)
    blob = model_to_bytes(model, include_floats=False)
    body = blob[:pos] + struct.pack("<BII", int(Activation.STEP), 0, model.d_enc)
    with pytest.raises(ModelFormatError, match="has no nodes"):
        model_from_bytes(_with_crc(body))


def test_set_pad_bits_in_weight_rows_are_ignored():
    model = _model()
    blob = model_to_bytes(model, include_floats=False)
    body = bytearray(blob[:-4])
    # the top byte of the first 10-bit row's word holds only pad bits
    body[_first_layer_pos(model) + 9 + 7] = 0xFF
    back = model_from_bytes(_with_crc(body))
    assert model_to_bytes(back, include_floats=False) == blob


def _patched(model, pos, value):
    """The model's file, without the sidecar, with byte `pos` set to `value`
    and a valid CRC."""
    body = bytearray(model_to_bytes(model, include_floats=False)[:-4])
    body[pos] = value
    return _with_crc(body)


@pytest.mark.parametrize(
    "pos,value,match",
    [
        (7, 9, "encoding"),  # encoding kind byte: no kind 9
        (8, 0, "encoding"),  # density takes a parameter in 1..255
        (6, 2, "flag"),  # a flag bit other than the float sidecar
        (6, 0x81, "flag"),
    ],
)
def test_bad_header_bytes_are_format_errors(pos, value, match):
    with pytest.raises(ModelFormatError, match=match):
        model_from_bytes(_patched(_model(), pos, value))


def test_bad_activation_byte_is_a_format_error():
    model = _model()
    with pytest.raises(ModelFormatError, match="activation"):
        model_from_bytes(_patched(model, _first_layer_pos(model), 2))


def test_json_roundtrip_bytes_identical():
    model = _model(seed=4)
    back = model_from_json(model_to_json(model))
    assert model_to_bytes(back) == model_to_bytes(model)


def test_json_floats_only_mechanism():
    text = """
    {
      "format": "scmfpga-model", "version": 1, "encoding": "density:3",
      "n_outputs": 1,
      "mechanism": {"source": "external", "alpha": 0.0, "d_enc": 3,
                    "weights": [[0.5], [-0.25], [0.125]], "intercepts": [1.0]},
      "layers": []
    }
    """
    model = model_from_json(text)
    assert model.mechanism.source == "external"
    assert model.mechanism.weights_raw[0, 0] == fx.fx_from_real(0.5)
    out = predict_float(model, BitVec.from01([1, 1, 1]))
    assert np.allclose(out, [0.5 - 0.25 + 0.125 + 1.0])


def test_json_rejects_a_shift_code_above_7():
    doc = json.loads(model_to_json(_model()))
    doc["layers"][0]["nodes"][0]["shift"] = 8
    with pytest.raises(ModelFormatError):
        model_from_json(json.dumps(doc))


def test_json_rejects_weight_rows_of_different_widths():
    doc = json.loads(model_to_json(_model()))
    nodes = doc["layers"][0]["nodes"]
    nodes[1]["weights"] = nodes[1]["weights"][:-1]
    with pytest.raises(ModelFormatError):
        model_from_json(json.dumps(doc))


def test_json_rejects_garbage():
    with pytest.raises(ModelFormatError):
        model_from_json("{not json")
    with pytest.raises(ModelFormatError):
        model_from_json('{"format": "something-else"}')


@pytest.mark.parametrize("path", [(), ("layers", 0, "nodes", 0), ("layers", 0, "activation")])
def test_json_refuses_a_value_of_the_wrong_type(path):
    doc = json.loads(model_to_json(_model()))
    if not path:
        doc = [doc]
    else:
        *parents, key = path
        parent = doc
        for k in parents:
            parent = parent[k]
        parent[key] = [parent[key]]  # an array where an object or a string belongs
    with pytest.raises(ModelFormatError):
        model_from_json(json.dumps(doc))


# -- float values that must agree with their raw values ----------------------


def test_a_node_refuses_a_bias_off_its_grid_value():
    ScmNode(BitVec.from_pm1([1]), 0, 0.5, 1 << 24, np.zeros(1), np.zeros(1, np.int32))
    with pytest.raises(ValueError, match="bias_raw"):
        ScmNode(BitVec.from_pm1([1]), 0, 1e-9, 0, np.zeros(1), np.zeros(1, np.int32))


def test_a_layer_keeps_only_raw_biases():
    layer = _model().layers[0]
    layer.bias_raw[0] += 1
    assert layer.bias[0] == fx.fx_to_real(int(layer.bias_raw[0]))
    with pytest.raises(AttributeError):
        layer.bias = np.zeros(len(layer))


def _one_node_json(node: dict, mechanism: dict | None = None) -> str:
    """A density:2 model with one STEP node on a zero mechanism, unless given."""
    zero = {"d_enc": 2, "weights": [[0.0], [0.0]], "intercepts": [0.0]}
    return json.dumps({
        "format": "scmfpga-model", "version": 1, "encoding": "density:2", "n_outputs": 1,
        "mechanism": mechanism or zero,
        "layers": [{"activation": "step", "nodes": [node]}],
    })


def test_json_bias_without_raw_takes_its_grid_value():
    # 1e-9 rounds to raw 0, where a stored float 1e-9 would flip the bit at dot 0
    model = model_from_json(_one_node_json({"weights": "10", "shift": 0, "bias": 1e-9,
                                            "beta": [1.0]}))
    assert model.layers[0].bias_raw.tolist() == [0] and model.layers[0].bias.tolist() == [0.0]
    rows = BitMatrix.from01(np.array([[1, 1], [1, 0], [0, 0]]))
    rep = evaluate_bits(model, rows, np.zeros((3, 1)))
    assert rep.outputs_pc[:, 0].tolist() == [-1.0, 1.0, -1.0]
    assert np.array_equal(rep.outputs_pc, rep.outputs_fpga)
    assert rep.bound_applies and rep.max_output_delta <= quantization_bound(model)


@pytest.mark.parametrize(
    "node,mechanism",
    [
        ({"bias": 1e-9, "bias_raw": 0, "beta": [1.0]}, None),
        ({"bias_raw": 0, "beta": [1.0], "beta_raw": [0]}, None),
        ({"bias_raw": 0, "beta": [1.0]},
         {"d_enc": 2, "weights": [[0.0], [0.0]], "intercepts": [0.5], "intercepts_raw": [0]}),
        ({"bias_raw": 0, "beta": [1.0]},
         {"d_enc": 2, "weights": [[2.0**-26], [0.0]], "weights_raw": [[1], [0]],
          "intercepts": [0.0]}),
    ],
    ids=["bias", "readout", "intercept", "mechanism-weight"],
)
def test_json_refuses_floats_that_disagree_with_their_raw_values(node, mechanism):
    node = {"weights": "10", "shift": 0, **node}
    with pytest.raises(ModelFormatError):
        model_from_json(_one_node_json(node, mechanism))


@pytest.mark.parametrize("field", ["bias_raw", "beta_raw"])
def test_json_refuses_a_raw_value_outside_int32(field):
    node = {"weights": "10", "shift": 0, "bias_raw": 0, "beta": [1.0]}
    node[field] = 2**31 if field == "bias_raw" else [2**31]
    with pytest.raises(ModelFormatError, match="out of bounds"):
        model_from_json(_one_node_json(node))


def test_json_accepts_saturated_and_exact_pairs():
    # 100 quantizes (saturating) to RAW_MAX, which quantize_array also gives
    model = model_from_json(_one_node_json({
        "weights": "10", "shift": 0, "bias": -1.5, "bias_raw": -(3 << 24),
        "beta": [100.0], "beta_raw": [fx.RAW_MAX],
    }))
    assert model.layers[0].beta.tolist() == [[100.0]]


# -- JSON fields are read exactly ---------------------------------------------


_INT_MECHANISM = {"d_enc": 2, "weights_raw": [[0], [0]], "intercepts_raw": [0]}


@pytest.mark.parametrize(
    "node,mechanism",
    [
        ({"shift": 1.5}, None),
        ({"shift": "3"}, None),
        ({"shift": True}, None),
        ({"bias_raw": 1.5}, None),
        ({"beta_raw": [1.5]}, None),
        ({}, {**_INT_MECHANISM, "weights_raw": [[1.5], [0]]}),
        ({}, {**_INT_MECHANISM, "intercepts_raw": ["7"]}),
        ({}, {**_INT_MECHANISM, "d_enc": 2.0}),
    ],
    ids=["shift-float", "shift-string", "shift-bool", "bias_raw", "beta_raw", "weights_raw",
         "intercepts_raw", "d_enc"],
)
def test_json_refuses_integer_fields_that_are_not_integers(node, mechanism):
    node = {"weights": "10", "shift": 0, "bias_raw": 0, "beta_raw": [0], **node}
    with pytest.raises(ModelFormatError, match="must be an integer"):
        model_from_json(_one_node_json(node, mechanism))


_ZERO_MECHANISM = {"d_enc": 2, "weights": [[0.0], [0.0]], "intercepts": [0.0]}


@pytest.mark.parametrize(
    "node,mechanism",
    [
        ({"bias": "0.0005"}, None),
        ({"bias_raw": 0, "beta": ["0.5"]}, None),
        ({"bias_raw": 0, "beta": [True]}, None),
        ({"bias_raw": 0}, {**_ZERO_MECHANISM, "weights": [["0.5"], [0.0]]}),
        ({"bias_raw": 0}, {**_ZERO_MECHANISM, "alpha": "0.5"}),
        ({"bias_raw": 0}, {**_ZERO_MECHANISM, "alpha": False}),
    ],
    ids=["bias", "beta", "beta-bool", "weights", "alpha", "alpha-bool"],
)
def test_json_refuses_float_fields_that_are_not_numbers(node, mechanism):
    node = {"weights": "10", "shift": 0, "beta": [1.0], **node}
    with pytest.raises(ModelFormatError, match="must be a number"):
        model_from_json(_one_node_json(node, mechanism))


def test_json_float_fields_take_integers():
    model = model_from_json(_one_node_json(
        {"weights": "10", "shift": 0, "bias": 1, "beta": [-2]},
        {**_ZERO_MECHANISM, "weights": [[1], [0]], "alpha": 0},
    ))
    assert model.layers[0].bias.tolist() == [1.0] and model.layers[0].beta.tolist() == [[-2.0]]
    assert model.mechanism.weights.tolist() == [[1.0], [0.0]] and model.mechanism.alpha == 0.0


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_json_version_must_be_the_integer_1(version):
    doc = json.loads(_one_node_json({"weights": "10", "shift": 0, "bias_raw": 0, "beta": [1.0]}))
    assert model_from_json(json.dumps(doc)).layer_sizes == (1,)
    doc["version"] = version
    with pytest.raises(ModelFormatError, match="unsupported model version"):
        model_from_json(json.dumps(doc))


def _with_fan_in(fan_in) -> str:
    doc = json.loads(_one_node_json({"weights": "10", "shift": 0, "bias_raw": 0, "beta": [1.0]}))
    doc["layers"][0]["fan_in"] = fan_in
    return json.dumps(doc)


def test_json_fan_in_must_be_the_weight_width():
    assert model_from_json(_with_fan_in(2)).layers[0].fan_in == 2
    with pytest.raises(ModelFormatError, match="fan_in 7 != weight width 2"):
        model_from_json(_with_fan_in(7))
    with pytest.raises(ModelFormatError, match="must be an integer"):
        model_from_json(_with_fan_in(2.0))


@pytest.mark.parametrize("weights", [["10", "1x"], ["10", "1 "], [], ["10", 10]],
                         ids=["letter", "space", "no-nodes", "not-a-string"])
def test_json_refuses_bad_weight_rows(weights):
    node = {"shift": 0, "bias_raw": 0, "beta": [1.0]}
    doc = json.loads(_one_node_json({"weights": "10", **node}))
    doc["layers"][0]["nodes"] = [{"weights": w, **node} for w in weights]
    with pytest.raises(ModelFormatError):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "node,mechanism",
    [
        ({"bias": 100.0}, None),
        ({"bias": -64.5}, None),
        ({"bias_raw": 0, "beta": [100.0]}, None),
        ({"bias_raw": 0}, {"d_enc": 2, "weights": [[-64.5], [0.0]], "intercepts": [0.0]}),
        ({"bias_raw": 0}, {"d_enc": 2, "weights": [[0.0], [0.0]], "intercepts": [64.0]}),
    ],
    ids=["bias", "bias-low", "readout", "mechanism-weight", "intercept"],
)
def test_json_refuses_a_lone_float_outside_q725(node, mechanism):
    node = {"weights": "10", "shift": 0, "beta": [1.0], **node}
    with pytest.raises(ModelFormatError, match="outside the Q7.25 range"):
        model_from_json(_one_node_json(node, mechanism))


@functools.cache
def _trained_deep_file() -> bytes:
    """The file of a trained STEP/SIGN/STEP model; three s1:3 features make
    layer 1's 84-bit weight rows span two 64-bit words."""
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(200, 3))
    y = np.sin(4.0 * x).sum(axis=1, keepdims=True) * 0.2 + 0.5
    y += rng.normal(scale=0.02, size=y.shape)
    data = prepare_train_data(x[:160], y[:160], x[160:], y[160:], parse_encoding("s1:3"))
    acts = (Activation.STEP, Activation.SIGN, Activation.STEP)
    return model_to_bytes(train(data, TrainConfig((5, 4, 3), acts, t_max=100, seed=21)).model)


def test_json_roundtrip_of_a_trained_deep_model_with_wide_rows():
    model = model_from_bytes(_trained_deep_file())
    assert model.layer_sizes == (5, 4, 3) and model.layers[0].w.words.shape == (5, 2)
    text = model_to_json(model)
    back = model_from_json(text)
    for include_floats in (True, False):
        assert model_to_bytes(back, include_floats) == model_to_bytes(model, include_floats)
    assert model_to_json(back) == text


def _sidecar_patched(model, index: int, value: float) -> bytes:
    """The model's file with float `index` of its sidecar set to `value`."""
    body = bytearray(model_to_bytes(model)[:-4])
    pos = len(model_to_bytes(model, include_floats=False)) - 4 + 8 * index
    body[pos : pos + 8] = struct.pack("<d", value)
    return _with_crc(body)


@pytest.mark.parametrize("what", ["mechanism-weight", "intercept", "bias", "readout"])
@pytest.mark.parametrize("nudge", [2.0**-20, 1e-9, float("nan"), 1e308])
def test_sidecar_floats_must_agree_with_their_raw_values(what, nudge):
    model = _model()
    p = model.d_enc * model.n_outputs
    index, value = {
        "mechanism-weight": (0, model.mechanism.weights[0, 0]),
        "intercept": (p, model.mechanism.intercepts[0]),
        "bias": (p + model.n_outputs, model.layers[0].bias[0]),
        "readout": (p + model.n_outputs + len(model.layers[0]), model.layers[0].beta[0, 0]),
    }[what]
    # a bias is its raw value exactly; other floats only need to round to theirs
    if what != "bias" and nudge == 1e-9:
        model_from_bytes(_sidecar_patched(model, index, value + nudge))
        return
    with pytest.raises(ModelFormatError, match="inconsistent"):
        model_from_bytes(_sidecar_patched(model, index, value + nudge))


# -- every loadable input is a sound model --------------------------------------


def _check_sound(model):
    """The loaded model keeps the promises: both paths fire the same bits layer by
    layer, outputs stay within quantization_bound unless one saturates, and the
    writers and the report accept it."""
    rows = BitMatrix.from01(np.random.default_rng(0).integers(0, 2, size=(16, model.d_enc)))
    x, s, pm1 = rows, signals_pm1(rows), True
    for layer in model.layers:
        fired = emulate._layer_bits(layer, x, pm1)
        s = layer_forward_float(s, layer)
        assert np.array_equal(s > 0, fired)
        x, pm1 = BitMatrix.from01(fired), layer.activation == Activation.STEP
    rep = evaluate_bits(model, rows, np.zeros((len(rows), model.n_outputs)))
    assert not rep.bound_applies or rep.max_output_delta <= quantization_bound(model)
    model_to_bytes(model)
    model_to_bytes(model, include_floats=False)
    model_to_json(model)
    emulate.memory_report(model)


@settings(max_examples=200)
@given(st.booleans(), st.data())
def test_a_file_with_one_byte_set_is_refused_or_a_sound_model(sidecar, data):
    body = bytearray(model_to_bytes(model_from_bytes(_trained_deep_file()), sidecar)[:-4])
    pos = data.draw(st.integers(0, len(body) - 1), label="pos")
    body[pos] = data.draw(st.integers(0, 255), label="value")
    try:
        model = model_from_bytes(_with_crc(body))
    except ModelFormatError:
        return
    _check_sound(model)


def _json_paths(node, path=()):
    """The path of every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


@settings(max_examples=200)
@given(st.data())
def test_json_with_one_field_perturbed_is_refused_or_a_sound_model(data):
    doc = json.loads(model_to_json(model_from_bytes(_trained_deep_file())))
    *parents, key = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    parent = functools.reduce(lambda node, k: node[k], parents, doc)
    value = parent[key]
    changes = ["delete", "type"]
    if type(value) in (int, float):
        changes += ["sign", "magnitude"]
    change = data.draw(st.sampled_from(changes), label="change")
    if change == "delete":
        del parent[key]
    elif change == "type":
        parent[key] = data.draw(st.sampled_from([None, True, "1", 1.5, [value], {"v": value}]))
    elif change == "sign":
        parent[key] = -value
    else:
        factor = data.draw(st.sampled_from([0, 2, 3, 1000, 2**31, 2.0**1020, 0.5, 2.0**-25]))
        parent[key] = value * factor + data.draw(st.sampled_from([0, 1]))
    try:
        model = model_from_json(json.dumps(doc))
    except ModelFormatError:
        return
    _check_sound(model)
