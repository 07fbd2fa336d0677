import functools
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scmfpga import emulate, fixedpoint as fx
from scmfpga.bits import BitMatrix, BitVec
from scmfpga.encoding import parse_encoding
from scmfpga.errors import ModelFormatError
from scmfpga.evaluate import evaluate_bits
from scmfpga.linalg import lasso_fit
from scmfpga.mechanism import (SOURCE_EXTERNAL, SOURCE_NONE, MechanismModel, no_mechanism,
                               signals_pm1)
from scmfpga.model import (
    Activation,
    ScmLayer,
    ScmModel,
    ScmNode,
    layer_forward_float,
    output_bound,
    predict_float_batch,
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

from builders import emulated_layer_bits, layer, random_model


def _model(seed=0, sizes=(3, 2)):
    """Layers of these sizes, STEP then SIGN, on 10 inputs with 2 outputs."""
    return random_model(seed, 10, zip(sizes, (Activation.STEP, Activation.SIGN)), m=2)


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
    bits = BitMatrix.from01(np.random.default_rng(2).integers(0, 2, size=(10, model.d_enc)))
    assert np.array_equal(predict_float_batch(model, bits), predict_float_batch(back, bits))


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
    with pytest.raises(ModelFormatError, match="inconsistent model file: scale code above 7"):
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


def _s1_15_body() -> bytearray:
    """A file body, without sidecar or CRC, whose encoding is s1:15 on one feature:
    a density:136 model, the same width, with its spec bytes changed."""
    body = bytearray(model_to_bytes(random_model(0, 136, [(2, Activation.STEP)]), False)[:-4])
    body[7:9] = bytes([1, 15])
    return body


def test_a_file_with_more_than_15_scheme_1_places_is_refused():
    body = _s1_15_body()
    assert str(model_from_bytes(_with_crc(body)).encoding) == "s1:15"
    for places in (16, 255):
        body[8] = places
        with pytest.raises(ModelFormatError, match=r"bad encoding spec: .* 1\.\.15$"):
            model_from_bytes(_with_crc(body))


def test_json_with_more_than_15_scheme_1_places_is_refused():
    text = model_to_json(model_from_bytes(_with_crc(_s1_15_body())))
    assert model_from_json(text).encoding == parse_encoding("s1:15")
    with pytest.raises(ModelFormatError, match=r"bad model JSON: .* 1\.\.15$"):
        model_from_json(text.replace('"s1:15"', '"s1:16"'))


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
    assert model.mechanism.weights_raw[0, 0] == 0.5 * fx.SCALE
    out = predict_float_batch(model, BitMatrix.from01([[1, 1, 1]]))[0]
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
    ScmNode(BitVec.from01([1]), 0, 0.5, 1 << 24, np.zeros(1), np.zeros(1, np.int32))
    with pytest.raises(ValueError, match="bias_raw"):
        ScmNode(BitVec.from01([1]), 0, 1e-9, 0, np.zeros(1), np.zeros(1, np.int32))
    with pytest.raises(ValueError, match=r"shift code must be in 0\.\.7"):
        ScmNode(BitVec.from01([1]), 8, 0.0, 0, np.zeros(1), np.zeros(1, np.int32))


def test_a_layer_keeps_only_raw_biases():
    layer = _model().layers[0]
    with pytest.raises(ValueError, match="read-only"):
        layer.bias_raw[0] += 1
    assert np.array_equal(layer.bias, layer.bias_raw / 2**25)
    with pytest.raises(AttributeError):
        layer.bias = np.zeros(len(layer))


def test_a_model_refuses_parts_that_do_not_fit_when_it_is_built():
    model = _model()  # 10 inputs, layers of 3 STEP and 2 SIGN nodes, 2 outputs
    first, second = model.layers
    faults = {
        # the reference path would broadcast a 1-output mechanism to 2 outputs
        "mechanism output count": dict(mechanism=random_model(0, 10, [], m=1).mechanism),
        "not a multiple of bits per input": dict(encoding=parse_encoding("density:4")),
        "layer 2 has no nodes": dict(layers=[first, layer(Activation.SIGN, np.ones((0, 3)))]),
        # swapped fan-ins would fail inside numpy's matmul on the reference path
        "layer 1 fan-in 3 != expected 10": dict(layers=[second, first]),
        "readout width": dict(layers=[first, layer(Activation.SIGN, np.ones((2, 3)))]),
    }
    parts = dict(encoding=model.encoding, mechanism=model.mechanism, layers=model.layers,
                 n_outputs=model.n_outputs)
    assert ScmModel(**parts).layers == model.layers
    for message, change in faults.items():
        with pytest.raises(ValueError, match=message):
            ScmModel(**{**parts, **change})


def test_a_built_model_cannot_be_edited():
    # an edit in place would leave stale raw values, in a file that does not read back
    model = _model()
    blob = model_to_bytes(model)
    first, mech = model.layers[0], model.mechanism
    for held in (first.w.words, first.shift, first.bias_raw, first.beta, first.beta_raw,
                 mech.weights, mech.intercepts, mech.weights_raw, mech.intercepts_raw):
        with pytest.raises(ValueError, match="read-only"):
            held[0] += 1
    for part, name in [(first, "beta"), (first, "w"), (first, "saturated"),
                       (model, "layers"), (model, "mechanism")]:
        with pytest.raises(AttributeError):
            setattr(part, name, getattr(part, name))
    assert isinstance(model.layers, tuple)
    assert model_to_bytes(model) == blob == model_to_bytes(model_from_bytes(blob))


def test_a_layer_weight_words_cannot_be_rebound():
    model = _model()
    blob, w = model_to_bytes(model), model.layers[0].w
    with pytest.raises(AttributeError, match="cannot be rebound"):
        w.words = np.zeros_like(w.words)
    with pytest.raises(AttributeError, match="cannot be rebound"):
        w.n = w.n + 1
    assert model_to_bytes(model) == blob


def test_two_loads_of_one_file_compare_without_raising():
    # the fields hold arrays, so == is identity, not an ambiguous array test
    blob = model_to_bytes(_model())
    a, b = model_from_bytes(blob), model_from_bytes(blob)
    assert a == a and a != b
    assert ScmModel(a.encoding, a.mechanism, a.layers, a.n_outputs) != a  # the same parts
    assert a.mechanism == a.mechanism and a.mechanism != b.mechanism
    assert len({a, b, a.mechanism, b.mechanism}) == 4
    x, y = np.eye(4), np.arange(4.0)[:, None]
    fit = lasso_fit(x, y, 0.1)
    assert fit == fit and fit != lasso_fit(x, y, 0.1)


def _from_arrays(**change):
    """ScmLayer.from_arrays on a valid layer's arrays, with some of them replaced."""
    layer = _model().layers[0]
    args = dict(activation=layer.activation, w=layer.w, shift=layer.shift,
                bias_raw=layer.bias_raw, beta=layer.beta)
    return ScmLayer.from_arrays(**{**args, **change})


def test_a_layer_holds_its_arrays_read_only():
    beta = np.zeros((3, 2))
    held = _from_arrays(beta=beta)
    assert held.beta is beta and not beta.flags.writeable


def test_a_layer_refuses_a_scale_code_above_7():
    # the reader refuses the file as "inconsistent model file: scale code above 7"
    assert _from_arrays(shift=np.array([7, 0, 1], np.uint8)).shift.max() == 7
    with pytest.raises(ValueError, match="scale code above 7"):
        _from_arrays(shift=np.array([8, 0, 1], np.uint8))


def test_a_layer_refuses_scale_codes_of_more_than_one_byte():
    # int64 codes would be written 8 bytes each, and the reader find trailing bytes
    with pytest.raises(ValueError, match="must be uint8"):
        _from_arrays(shift=np.array([1, 0, 1], np.int64))
    with pytest.raises(ValueError, match=r"must be \(3,\) arrays"):
        _from_arrays(shift=np.array([1, 0], np.uint8))


def test_a_layer_refuses_raw_values_that_are_not_int32():
    # an int64 bias of 2**31 would be refused on load, or wrap to -2**31
    with pytest.raises(ValueError, match="uint8 and int32"):
        _from_arrays(bias_raw=np.array([2**31, 0, 0], np.int64))
    for change in [{"bias_raw": np.zeros(2, np.int32)}, {"beta": np.zeros(3)}]:
        with pytest.raises(ValueError, match=r"\(3,\) arrays and beta \(3, m\)"):
            _from_arrays(**change)


def test_a_layer_clamps_readouts_past_q725_and_counts_them():
    model = _model()
    beta = model.layers[0].beta.copy()
    beta[0] = [100.0, -100.0]
    beta[1] = [64.0, -64.0]  # the range is [-64, 64 - 2**-25], so only 64.0 is past it
    model = ScmModel(model.encoding, model.mechanism, (_from_arrays(beta=beta), model.layers[1]),
                     model.n_outputs)
    assert [layer.saturated for layer in model.layers] == [3, 0]
    assert model.layers[0].beta_raw[:2].tolist() == [[fx.RAW_MAX, fx.RAW_MIN]] * 2
    bits = BitMatrix.from01(np.random.default_rng(0).integers(0, 2, size=(4, model.d_enc)))
    rep = evaluate_bits(model, bits, np.zeros((4, 2)), "fpga")
    assert rep.clamped == model.mechanism.saturated + 3 == 3
    assert not rep.bound_applies


def test_a_layer_refuses_a_nan_readout():
    beta = _model().layers[0].beta.copy()
    beta[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _from_arrays(beta=beta)


def _packed(bias_raw=0, beta=0.0, beta_raw=0):
    """ScmLayer(activation, nodes) on one node, its raw values int64 as a caller may give."""
    node = ScmNode(BitVec.from01([1]), 0, bias_raw / 2**25, bias_raw,
                   np.array([beta]), np.array([beta_raw], np.int64))
    return ScmLayer(Activation.STEP, [node])


def test_packed_nodes_refuse_a_readout_past_int32():
    # packed with dtype int32, it would wrap to -2**31
    assert _packed(beta=64.0 - fx.RESOLUTION, beta_raw=fx.RAW_MAX).beta_raw[0, 0] == fx.RAW_MAX
    with pytest.raises(ValueError, match="int32 range"):
        _packed(beta=64.0, beta_raw=2**31)


def test_packed_nodes_refuse_a_bias_past_int32():
    # packed with dtype int32, it would raise OverflowError, which the CLI does not catch
    assert _packed(bias_raw=fx.RAW_MIN).bias_raw[0] == fx.RAW_MIN
    with pytest.raises(ValueError, match="int32 range"):
        _packed(bias_raw=2**31)


def test_packed_nodes_refuse_readouts_that_do_not_round_to_their_raw_values():
    with pytest.raises(ValueError, match="float values do not round to their raw values"):
        _packed(beta=5.0, beta_raw=0)


@given(st.integers(0, 200), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(fan_in=65, k=3, seed=0)
@example(fan_in=0, k=2, seed=0)
def test_packed_nodes_equal_a_layer_from_arrays(fan_in, k, seed):
    # the benchmark's synthetic model: BitVec.from01 rows, stacked and packed by ScmLayer
    rng = np.random.default_rng(seed)
    w01 = rng.integers(0, 2, size=(k, fan_in))
    shift = rng.integers(0, 8, size=k).astype(np.uint8)
    bias_raw = rng.integers(fx.RAW_MIN, fx.RAW_MAX, size=k, endpoint=True).astype(np.int32)
    beta = rng.uniform(-1.0, 1.0, size=(k, 2))
    beta_raw, _ = fx.quantize_array(beta)
    nodes = [ScmNode(BitVec.from01(w01[i]), int(shift[i]), int(bias_raw[i]) * fx.RESOLUTION,
                     int(bias_raw[i]), beta[i], beta_raw[i]) for i in range(k)]
    packed = ScmLayer(Activation.SIGN, nodes)
    held = ScmLayer.from_arrays(Activation.SIGN, BitMatrix.from01(w01), shift, bias_raw, beta)
    assert (len(packed), packed.fan_in, packed.activation) == (k, fan_in, Activation.SIGN)
    assert ([int.from_bytes(r.tobytes(), "little") for r in packed.w.words]
            == [sum(int(b) << j for j, b in enumerate(r)) for r in w01])
    assert np.array_equal(packed.w.words, held.w.words)
    for name in ("shift", "bias_raw", "beta", "beta_raw"):
        a, b = getattr(packed, name), getattr(held, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_packed_nodes_refuse_weights_of_unequal_width():
    nodes = [ScmNode(BitVec.from01([1] * n), 0, 0.0, 0, np.zeros(1), np.zeros(1, np.int32))
             for n in (3, 4)]
    with pytest.raises(ValueError, match="every node's weights must be 3 bits wide"):
        ScmLayer(Activation.STEP, nodes)


def _one_node_json(node: dict, mechanism: dict | None = None) -> str:
    """A density:2 model with one STEP node on a zero mechanism, unless given."""
    zero = {"d_enc": 2, "weights": [[0.0], [0.0]], "intercepts": [0.0]}
    return json.dumps({
        "format": "scmfpga-model", "version": 1, "encoding": "density:2", "n_outputs": 1,
        "mechanism": mechanism or zero,
        "layers": [{"activation": "step", "nodes": [node]}],
    })


def test_json_refuses_a_node_without_readouts():
    node = {"weights": "10", "shift": 0, "bias_raw": 0}  # neither beta nor beta_raw
    with pytest.raises(ModelFormatError, match="bad model JSON: need float or raw values"):
        model_from_json(_one_node_json(node))


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


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1],
                         ids=["NaN", "Infinity", "minus-1"])
def test_json_refuses_a_mechanism_alpha_that_is_not_finite_and_non_negative(alpha):
    text = _one_node_json({"weights": "10", "shift": 0, "bias_raw": 0, "beta": [1.0]},
                          {**_ZERO_MECHANISM, "alpha": alpha})
    assert f'"alpha": {json.dumps(alpha)}' in text  # NaN and Infinity as JSON spells them
    with pytest.raises(ModelFormatError, match="alpha"):
        model_from_json(text)


# offset of the mechanism's f64 alpha: magic, version, flags, encoding,
# n_outputs, d_enc and the source tag come first
ALPHA_POS = 4 + 2 + 1 + 2 + 2 + 4 + 1


def test_a_model_file_refuses_a_nan_alpha():
    model = _model()
    body = bytearray(model_to_bytes(model)[:-4])
    assert struct.unpack_from("<d", body, ALPHA_POS)[0] == model.mechanism.alpha
    body[ALPHA_POS : ALPHA_POS + 8] = struct.pack("<d", float("nan"))
    with pytest.raises(ModelFormatError, match="alpha nan"):
        model_from_bytes(_with_crc(body))


# -- a model without a mechanism ---------------------------------------------


def _on_zero_mechanism(source: str, seed=0) -> ScmModel:
    """_model's layers (10 inputs, 2 outputs) on an all-zero mechanism of this source."""
    model = _model(seed)
    return ScmModel(model.encoding, MechanismModel(np.zeros((10, 2)), np.zeros(2), source),
                    model.layers, 2)


@pytest.mark.parametrize("include_floats", [True, False], ids=["sidecar", "raw"])
def test_a_model_without_a_mechanism_stores_tag_2_and_no_values(include_floats):
    none, zero = _on_zero_mechanism(SOURCE_NONE), _on_zero_mechanism(SOURCE_EXTERNAL)
    blob = model_to_bytes(none, include_floats)
    assert (blob[ALPHA_POS - 1], model_to_bytes(zero)[ALPHA_POS - 1]) == (2, 1)
    # (d_enc + 1) * m raw values, and their floats in the sidecar, are left out
    gone = 11 * 2 * (4 + 8 * include_floats)
    assert len(model_to_bytes(zero, include_floats)) - len(blob) == gone
    back = model_from_bytes(blob)
    assert back.mechanism.source == SOURCE_NONE and (back.d_enc, back.n_outputs) == (10, 2)
    assert model_to_bytes(back, include_floats) == blob
    # the JSON form names the source and the width alone, and reads back to the same bytes
    text = model_to_json(back)
    assert json.loads(text)["mechanism"] == {"source": "none", "d_enc": 10}
    assert model_to_bytes(model_from_json(text), include_floats) == blob


def test_an_all_zero_external_mechanism_stays_a_mechanism(monkeypatch):
    # files written when training without a mechanism made an all-zero external one
    back = model_from_bytes(model_to_bytes(_on_zero_mechanism(SOURCE_EXTERNAL)))
    assert back.mechanism.source == SOURCE_EXTERNAL
    assert emulate.memory_report(back).mechanism_fpga_bits == 32 * (10 + 1) * 2
    assert quantization_bound(back) == (5 + 10 + 2 + 1) * fx.RESOLUTION
    bits = BitMatrix.from01(np.random.default_rng(4).integers(0, 2, size=(50, 10)))
    none = evaluate_bits(_on_zero_mechanism(SOURCE_NONE), bits, np.zeros((50, 2)))
    calls = []
    real = emulate.mech_wide_fpga
    monkeypatch.setattr(emulate, "mech_wide_fpga", lambda mech: calls.append(mech) or real(mech))
    rep = evaluate_bits(back, bits, np.zeros((50, 2)))
    assert calls == [back.mechanism]  # evaluated, and to the same outputs
    assert rep.outputs_fpga_raw.tobytes() == none.outputs_fpga_raw.tobytes()
    assert rep.outputs_pc.tobytes() == none.outputs_pc.tobytes()


@pytest.mark.parametrize("tag", [3, 255])
def test_a_model_file_refuses_an_unknown_source_tag(tag):
    body = bytearray(model_to_bytes(_model())[:-4])
    body[ALPHA_POS - 1] = tag
    with pytest.raises(ModelFormatError, match=f"unknown mechanism source tag {tag}"):
        model_from_bytes(_with_crc(body))


def test_a_model_file_of_no_mechanism_holds_no_values_and_alpha_0():
    # tag 2 on a file that stores mechanism values leaves them as trailing bytes
    body = bytearray(model_to_bytes(_on_zero_mechanism(SOURCE_EXTERNAL))[:-4])
    body[ALPHA_POS - 1] = 2
    with pytest.raises(ModelFormatError, match="trailing bytes"):
        model_from_bytes(_with_crc(body))
    body = bytearray(model_to_bytes(_on_zero_mechanism(SOURCE_NONE))[:-4])
    body[ALPHA_POS : ALPHA_POS + 8] = struct.pack("<d", 1e-4)
    with pytest.raises(ModelFormatError, match="alpha 0"):
        model_from_bytes(_with_crc(body))


@pytest.mark.parametrize("extra", [{"weights": [[0.0], [0.0]]}, {"intercepts_raw": [0]},
                                   {"alpha": 1e-4}])
def test_json_of_no_mechanism_takes_no_values(extra):
    text = _one_node_json({"weights": "10", "shift": 0, "bias_raw": 0, "beta": [1.0]},
                          {"source": "none", "d_enc": 2})
    assert model_from_json(text).mechanism.source == SOURCE_NONE
    doc = json.loads(text)
    doc["mechanism"].update(extra)
    with pytest.raises(ModelFormatError, match="takes no values|alpha 0"):
        model_from_json(json.dumps(doc))


def test_a_model_file_without_a_mechanism_or_a_layer_is_refused():
    # nothing bounds such a model's width: a 30-byte body could claim 2**32 - 1
    # inputs and 65535 outputs, whose d_enc x m zeros would take 2 PiB
    body = bytearray(model_to_bytes(_on_zero_mechanism(SOURCE_NONE), False)[:ALPHA_POS + 8])
    struct.pack_into("<HI", body, ALPHA_POS - 7, 65535, 2**32 - 1)
    body += struct.pack("<H", 0)
    with pytest.raises(ModelFormatError, match="no mechanism needs a layer"):
        model_from_bytes(_with_crc(body))
    doc = {"format": "scmfpga-model", "version": 1, "encoding": "density:1", "n_outputs": 65535,
           "mechanism": {"source": "none", "d_enc": 2**32 - 1}}
    with pytest.raises(ModelFormatError, match="no mechanism needs a layer"):
        model_from_json(json.dumps(doc))


def test_a_wide_model_without_a_mechanism_is_loaded_and_used_without_its_zeros():
    # 4096 x 2048 mechanism zeros would take 64 MiB as float64, from a 25 kB file
    d_enc, m = 4096, 2048
    model = ScmModel(parse_encoding("density:1"), no_mechanism(d_enc, m),
                     [layer(Activation.SIGN, np.ones((1, d_enc)), beta=np.full(m, 0.5))], m)
    blob = model_to_bytes(model)
    assert len(blob) < 26_000
    tracemalloc.start()
    try:
        back = model_from_bytes(blob)
        assert output_bound(back) == [2**24] * m  # |0.5| as raw Q7.25
        assert emulate.memory_report(back).mechanism_fpga_bits == 0
        assert quantization_bound(back) == (1 + m + 1) * fx.RESOLUTION
        assert model_to_bytes(model_from_json(model_to_json(back))) == blob
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    s = signals_pm1(rows).astype(np.float32)
    for layer, fired in zip(model.layers, emulated_layer_bits(model, rows)):
        s = layer_forward_float(layer)(s)
        assert np.array_equal(s.T > 0, fired)
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
