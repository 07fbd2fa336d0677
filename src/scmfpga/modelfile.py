"""Binary model file and the JSON interchange form.

Layout (all little-endian):

    magic "SCMB" | version u16 | flags u8 (bit0: float sidecar, others 0)
    encoding kind u8 | encoding param u8 | n_outputs u16 | d_enc u32
    mechanism: source u8 (0 lasso / 1 external) | alpha f64
               | weights i32 x (d_enc*m) | intercepts i32 x m
    layer count u16, then per layer:
        activation u8 | node count u32 | fan_in u32
        | packed weight bits, node-major, rows padded to 64-bit words
        | scale codes u8 x n (values 0..7) | biases i32 x n
        | readouts i32 x (n*m), node-major then output-major
    float sidecar (when flagged): mechanism weights f64 x (d_enc*m),
        intercepts f64 x m, then per layer biases f64 x n, readouts f64 x n*m
    crc32 u32 over everything before it

All i32 fields are raw Q7.25. The sidecar carries the original training-time
float values so the reference evaluator does not have to reconstruct them
from the quantized fields; without it, loads fall back to raw / 2**25. A
sidecar float must round to its raw value, and a bias must equal it exactly.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from . import fixedpoint as fx
from .bits import WORD, WORD_BITS, BitMatrix, n_words
from .encoding import EncodingSpec, parse_encoding
from .errors import ModelFormatError
from .mechanism import SOURCE_EXTERNAL, SOURCE_LASSO, MechanismModel
from .model import Activation, ScmLayer, ScmModel

MAGIC = b"SCMB"
VERSION = 1
FLAG_FLOAT_SIDECAR = 1

_SOURCE_TAGS = {SOURCE_LASSO: 0, SOURCE_EXTERNAL: 1}
_SOURCE_NAMES = {v: k for k, v in _SOURCE_TAGS.items()}


# dtype objects, not strings, which a write would parse about 16 times
_I32 = np.dtype("<i4")
_F64 = np.dtype("<f8")


def _i32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=_I32).tobytes()


def _f64_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=_F64).tobytes()


def model_to_bytes(model: ScmModel, include_floats: bool = True) -> bytes:
    model.validate()
    m = model.n_outputs
    mech = model.mechanism
    flags = FLAG_FLOAT_SIDECAR if include_floats else 0
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HB", VERSION, flags)
    out += model.encoding.to_bytes()
    out += struct.pack("<HI", m, model.d_enc)
    out += struct.pack("<Bd", _SOURCE_TAGS[mech.source], float(mech.alpha))
    out += _i32_bytes(mech.weights_raw)
    out += _i32_bytes(mech.intercepts_raw)
    out += struct.pack("<H", len(model.layers))
    for layer in model.layers:
        out += struct.pack("<BII", int(layer.activation), len(layer), layer.fan_in)
        out += layer.w.words.tobytes()
        out += layer.shift.tobytes()
        out += _i32_bytes(layer.bias_raw)
        out += _i32_bytes(layer.beta_raw)
    if include_floats:
        out += _f64_bytes(mech.weights)
        out += _f64_bytes(mech.intercepts)
        for layer in model.layers:
            out += _f64_bytes(layer.bias)
            out += _f64_bytes(layer.beta)
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError("model file is truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def i32(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<i4").copy()

    def f64(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()

    def words(self, n: int, n_bits: int) -> np.ndarray:
        """n rows of n_bits bits in whole words, with their pad bits cleared."""
        w = n_words(n_bits)
        words = np.frombuffer(self.take(8 * w * n), dtype=WORD).reshape(n, w).copy()
        if n_bits % WORD_BITS:
            words[:, -1] &= np.uint64((1 << n_bits % WORD_BITS) - 1)
        return words


def model_from_bytes(data: bytes) -> ScmModel:
    if len(data) < 8 or data[:4] != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != VERSION:
        raise ModelFormatError(f"unsupported model file version {version}")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ModelFormatError("model file CRC mismatch")

    r = _Reader(data[:-4])
    r.take(4 + 2)  # magic + version
    (flags,) = r.unpack("<B")
    if flags & ~FLAG_FLOAT_SIDECAR:
        raise ModelFormatError(f"unknown flag bits {flags:#04x}")
    spec = r.take(2)
    try:
        enc = EncodingSpec.from_bytes(spec)
    except ValueError as exc:
        raise ModelFormatError(f"bad encoding spec: {exc}") from exc
    m, d_enc = r.unpack("<HI")
    source_tag, alpha = r.unpack("<Bd")
    if source_tag not in _SOURCE_NAMES:
        raise ModelFormatError(f"unknown mechanism source tag {source_tag}")
    p_raw = r.i32(d_enc * m).reshape(d_enc, m)
    u_raw = r.i32(m)
    (n_layers,) = r.unpack("<H")
    layers = []
    for _ in range(n_layers):
        act, n, fan_in = r.unpack("<BII")
        if act not in set(Activation):
            raise ModelFormatError(f"unknown activation code {act}")
        words = r.words(n, fan_in)
        shift = np.frombuffer(r.take(n), dtype=np.uint8).copy()
        if np.any(shift > 7):
            raise ModelFormatError("scale code above 7")
        bias_raw = r.i32(n)
        beta_raw = r.i32(n * m).reshape(n, m)
        layers.append(ScmLayer.from_arrays(
            Activation(act), BitMatrix(words, fan_in), shift,
            bias_raw, fx.dequantize_array(beta_raw), beta_raw,
        ))

    if flags & FLAG_FLOAT_SIDECAR:
        try:
            p = _rounding_to(r.f64(d_enc * m).reshape(d_enc, m), p_raw)
            u = _rounding_to(r.f64(m), u_raw)
            # the training-time floats replace the dequantized ones
            for layer in layers:
                if not np.array_equal(r.f64(len(layer)), layer.bias):
                    raise ValueError("sidecar biases are not bias_raw / 2**25")
                layer.beta = _rounding_to(r.f64(len(layer) * m).reshape(len(layer), m),
                                          layer.beta_raw)
        except ValueError as exc:
            raise ModelFormatError(f"inconsistent model file: {exc}") from exc
    else:
        p = fx.dequantize_array(p_raw)
        u = fx.dequantize_array(u_raw)
    if r.pos != len(r.data):
        raise ModelFormatError("trailing bytes after model body")

    mech = MechanismModel(
        weights=p,
        intercepts=u,
        weights_raw=p_raw,
        intercepts_raw=u_raw,
        source=_SOURCE_NAMES[source_tag],
        alpha=alpha,
    )
    model = ScmModel(encoding=enc, mechanism=mech, layers=layers, n_outputs=m)
    try:
        model.validate()
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent model file: {exc}") from exc
    return model


def save_model(model: ScmModel, path: str | Path, include_floats: bool = True) -> None:
    Path(path).write_bytes(model_to_bytes(model, include_floats))


def load_model(path: str | Path) -> ScmModel:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    return model_from_bytes(data)


# -- JSON interchange -------------------------------------------------------


def model_to_json(model: ScmModel) -> str:
    """Readable lossless dump: raw integers plus the float sidecar values."""
    mech = model.mechanism
    doc = {
        "format": "scmfpga-model",
        "version": VERSION,
        "encoding": str(model.encoding),
        "n_outputs": model.n_outputs,
        "mechanism": {
            "source": mech.source,
            "alpha": mech.alpha,
            "d_enc": mech.d_enc,
            "weights_raw": mech.weights_raw.tolist(),
            "intercepts_raw": mech.intercepts_raw.tolist(),
            "weights": mech.weights.tolist(),
            "intercepts": mech.intercepts.tolist(),
        },
        "layers": [
            {
                "activation": layer.activation.name.lower(),
                "fan_in": layer.fan_in,
                "nodes": [
                    {"weights": row.tobytes().decode("ascii"), "shift": shift,
                     "bias_raw": bias_raw, "bias": bias, "beta_raw": beta_raw, "beta": beta}
                    for row, shift, bias_raw, bias, beta_raw, beta in zip(
                        layer.w.to01() + ord("0"), layer.shift.tolist(),
                        layer.bias_raw.tolist(), layer.bias.tolist(),
                        layer.beta_raw.tolist(), layer.beta.tolist(),
                    )
                ],
            }
            for layer in model.layers
        ],
    }
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> ScmModel:
    """Rebuild a model from its JSON form.

    Raw fields may be omitted (they are requantized from the floats), and
    float fields may be omitted (reconstructed from the raw values), which
    makes hand-written mechanism models practical. Pairs obey the sidecar's
    rules, and a bias given alone is replaced by its grid value. Integer
    fields must be JSON integers in range, a float given alone must lie in
    the Q7.25 range, and a layer's optional fan_in must be its weight width.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "scmfpga-model":
        raise ModelFormatError("not a model JSON document")
    if type(doc.get("version")) is not int or doc["version"] != VERSION:  # True == 1
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        enc = parse_encoding(doc["encoding"])
        m = _int(doc["n_outputs"], "n_outputs", 0, 0xFFFF)
        md = doc["mechanism"]
        d_enc = _int(md["d_enc"], "d_enc", 0, 0xFFFFFFFF)
        p, p_raw = _value_pair(md.get("weights"), md.get("weights_raw"), (d_enc, m))
        u, u_raw = _value_pair(md.get("intercepts"), md.get("intercepts_raw"), (m,))
        mech = MechanismModel(
            weights=p,
            intercepts=u,
            weights_raw=p_raw,
            intercepts_raw=u_raw,
            source=md.get("source", SOURCE_EXTERNAL),
            alpha=_float(md.get("alpha", 0.0), "alpha"),
        )
        layers = []
        for ld in doc.get("layers", []):
            nodes = ld["nodes"]
            # str.encode refuses a non-string, and rows of unequal width are ragged
            bits = np.array([np.frombuffer(str.encode(nd["weights"], "ascii"), np.uint8)
                             for nd in nodes]) - ord("0")
            if bits.ndim != 2 or np.any(bits > 1):  # below '0' wraps past 1; no rows is 1-D
                raise ValueError("a layer needs one weight string of '0'/'1' per node")
            w = BitMatrix.from01(bits)
            if "fan_in" in ld and _int(ld["fan_in"], "fan_in", 0, 0xFFFFFFFF) != w.n:
                raise ValueError(f"fan_in {ld['fan_in']} != weight width {w.n}")
            # a bias is its raw value exactly (the layer keeps only bias_raw)
            bias_raw = [_value_pair(nd.get("bias"), nd.get("bias_raw"), (), exact=True)[1]
                        for nd in nodes]
            readouts = [_value_pair(nd.get("beta"), nd.get("beta_raw"), (m,)) for nd in nodes]
            layers.append(ScmLayer.from_arrays(
                Activation[ld["activation"].upper()], w,
                np.array([_int(nd["shift"], "shift", 0, 7) for nd in nodes], dtype=np.uint8),
                np.array(bias_raw, dtype=np.int32),
                np.array([f for f, _ in readouts]).reshape(len(nodes), m),
                np.array([r for _, r in readouts], dtype=np.int32).reshape(len(nodes), m),
            ))
    # AttributeError: a JSON value of the wrong type, such as a list for an object
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"bad model JSON: {exc}") from exc
    model = ScmModel(encoding=enc, mechanism=mech, layers=layers, n_outputs=m)
    try:
        model.validate()
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent model JSON: {exc}") from exc
    return model


def _rounding_to(floats: np.ndarray, raws: np.ndarray) -> np.ndarray:
    """floats; a ValueError unless they round to raws, as quantization_bound assumes."""
    if not np.array_equal(fx.quantize_array(floats)[0], raws):
        raise ValueError("float values do not round to their raw values")
    return floats


def _int(value, name: str, lo: int = fx.RAW_MIN, hi: int = fx.RAW_MAX) -> int:
    """value if it is a JSON integer in [lo, hi], else a ValueError (no truncation)."""
    if type(value) is not int:  # bool is an int subclass, and is refused too
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} is out of bounds [{lo}, {hi}]")
    return value


def _float(value, name: str) -> float:
    """value if it is a JSON number, else a ValueError (bools and strings are refused)."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


def _cells(values, shape, read, name: str, dtype) -> np.ndarray:
    """An array of the given shape and dtype, each JSON cell passed through read."""
    cells = np.array(values, dtype=object).reshape(shape)
    return np.array([read(v, name) for v in cells.flat], dtype=dtype).reshape(shape)


def _value_pair(floats, raws, shape, exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Floats and raw values of one field, either of which may be None.

    Floats given alone must lie in the Q7.25 range. Paired, they must round to
    the raw values, or equal them exactly when `exact`.
    """
    if floats is None and raws is None:
        raise ValueError("need float or raw values")
    if raws is not None:
        r = _cells(raws, shape, _int, "raw value", np.int32)
        if floats is None:
            return fx.dequantize_array(r), r
    f = _cells(floats, shape, _float, "float value", np.float64)
    if raws is None:
        r, saturated = fx.quantize_array(f)
        if saturated:
            raise ValueError(f"{saturated} values lie outside the Q7.25 range [-64, 64)")
        return f, r
    if exact and not np.array_equal(f, fx.dequantize_array(r)):
        raise ValueError("float values are not their raw values / 2**25")
    return _rounding_to(f, r), r
