"""Binary model file and the JSON interchange form.

Layout (all little-endian):

    magic "SCMB" | version u16 | flags u8 (bit0: float sidecar, others 0)
    encoding kind u8 | encoding param u8 | n_outputs u16 | d_enc u32
    mechanism: source u8 (0 lasso / 1 external / 2 none) | alpha f64
               | weights i32 x (d_enc*m) | intercepts i32 x m  (none: no values)
    layer count u16, then per layer:
        activation u8 | node count u32 | fan_in u32
        | packed weight bits, node-major, rows padded to 64-bit words
        | scale codes u8 x n (values 0..7) | biases i32 x n
        | readouts i32 x (n*m), node-major then output-major
    float sidecar (when flagged): mechanism weights f64 x (d_enc*m), intercepts
        f64 x m (none: no values), then per layer biases f64 x n, readouts f64 x n*m
    crc32 u32 over everything before it

All i32 fields are raw Q7.25. The sidecar carries the original training-time
float values so the reference evaluator does not have to reconstruct them
from the quantized fields. model_from_bytes and model_from_json only parse;
_assemble applies every rule the two forms share and builds the model.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from . import fixedpoint as fx
from .bits import WORD, WORD_BITS, BitMatrix, n_words
from .encoding import EncodingSpec, parse_encoding
from .errors import ModelFormatError
from .mechanism import SOURCE_EXTERNAL, SOURCE_LASSO, SOURCE_NONE, MechanismModel, no_mechanism
from .model import Activation, ScmLayer, ScmModel

MAGIC = b"SCMB"
VERSION = 1
FLAG_FLOAT_SIDECAR = 1

_SOURCE_TAGS = {SOURCE_LASSO: 0, SOURCE_EXTERNAL: 1, SOURCE_NONE: 2}
_SOURCE_NAMES = {v: k for k, v in _SOURCE_TAGS.items()}


# dtype objects, not strings, which a write would parse about 16 times
_I32 = np.dtype("<i4")
_F64 = np.dtype("<f8")


def _i32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=_I32).tobytes()


def _f64_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=_F64).tobytes()


def model_to_bytes(model: ScmModel, include_floats: bool = True) -> bytes:
    m = model.n_outputs
    mech = model.mechanism
    flags = FLAG_FLOAT_SIDECAR if include_floats else 0
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HB", VERSION, flags)
    out += model.encoding.to_bytes()
    out += struct.pack("<HI", m, model.d_enc)
    out += struct.pack("<Bd", _SOURCE_TAGS[mech.source], float(mech.alpha))
    if mech.n_values:  # "none" stores none
        out += _i32_bytes(mech.weights_raw) + _i32_bytes(mech.intercepts_raw)
    out += struct.pack("<H", len(model.layers))
    for layer in model.layers:
        out += struct.pack("<BII", int(layer.activation), len(layer), layer.fan_in)
        out += layer.w.words.tobytes()
        out += layer.shift.tobytes()
        out += _i32_bytes(layer.bias_raw)
        out += _i32_bytes(layer.beta_raw)
    if include_floats:
        if mech.n_values:
            out += _f64_bytes(mech.weights) + _f64_bytes(mech.intercepts)
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

    def array(self, dtype: np.dtype, *shape: int) -> np.ndarray:
        chunk = self.take(dtype.itemsize * math.prod(shape))
        return np.frombuffer(chunk, dtype).reshape(shape).copy()

    def words(self, n: int, n_bits: int) -> np.ndarray:
        """n rows of n_bits bits in whole words, with their pad bits cleared."""
        words = self.array(WORD, n, n_words(n_bits))
        if n_bits % WORD_BITS:
            words[:, -1] &= np.uint64((1 << n_bits % WORD_BITS) - 1)
        return words


def _assemble(form, enc, m, d_enc, source, alpha, p, u, layers) -> ScmModel:
    """The model of one parsed form ("file" or "JSON"); any failure is a ModelFormatError.

    p and u (weights, intercepts) are (floats or None, raws) pairs, None for "none". A layer is
    (activation, weight BitMatrix, scale codes, bias, readouts), where bias and
    readouts are lists of pairs over consecutive node blocks: one in the file,
    one per node in JSON.
    """
    try:
        built, agree = [], []
        for act, w, shift, bias, beta in layers:
            # a bias is its raw value exactly (the layer keeps only bias_raw)
            if any(f is not None and not np.array_equal(f, fx.dequantize_array(r))
                   for f, r in bias):
                raise ValueError("bias values are not bias_raw / 2**25")
            bias_raw = np.concatenate([r for _, r in bias])
            built.append(ScmLayer.from_arrays(act, w, shift, bias_raw, _floats(beta)))
            agree.append(_agree(built[-1].beta_raw, beta))
        if source == SOURCE_NONE:  # its width is bounded by its first layer's stored weights
            if not built:
                raise ValueError("a model with no mechanism needs a layer")
            mech = no_mechanism(d_enc, m, alpha)
        else:
            mech = MechanismModel(_floats([p]), _floats([u]), source, alpha)
            agree += [_agree(mech.weights_raw, [p]), _agree(mech.intercepts_raw, [u])]
        if not all(agree):
            raise ValueError("float values do not round to their raw values")
        return ScmModel(encoding=enc, mechanism=mech, layers=built, n_outputs=m)
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent model {form}: {exc}") from exc


def _floats(blocks) -> np.ndarray:
    """A field's floats from its blocks; a missing float is raw / 2**25."""
    return np.concatenate([fx.dequantize_array(r) if f is None else f for f, r in blocks])


def _agree(derived: np.ndarray, blocks) -> bool:
    """Whether the derived raws equal those given beside floats, block by block."""
    parts = np.split(derived, np.cumsum([len(f if r is None else r) for f, r in blocks])[:-1])
    return all(f is None or r is None or np.array_equal(d, r) for d, (f, r) in zip(parts, blocks))


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
    try:
        enc = EncodingSpec.from_bytes(r.take(2))
    except ValueError as exc:
        raise ModelFormatError(f"bad encoding spec: {exc}") from exc
    m, d_enc = r.unpack("<HI")
    source_tag, alpha = r.unpack("<Bd")
    if source_tag not in _SOURCE_NAMES:
        raise ModelFormatError(f"unknown mechanism source tag {source_tag}")
    none = _SOURCE_NAMES[source_tag] == SOURCE_NONE  # a "none" mechanism stores no values
    p_raw, u_raw = (None, None) if none else (r.array(_I32, d_enc, m), r.array(_I32, m))
    (n_layers,) = r.unpack("<H")
    records = []
    for _ in range(n_layers):
        act, n, fan_in = r.unpack("<BII")
        if act not in set(Activation):
            raise ModelFormatError(f"unknown activation code {act}")
        w = BitMatrix(r.words(n, fan_in), fan_in)
        shift = r.array(np.dtype(np.uint8), n)
        records.append((Activation(act), w, shift, r.array(_I32, n), r.array(_I32, n, m)))

    def floats(*shape):  # the sidecar's next values, read in file order
        return r.array(_F64, *shape) if flags & FLAG_FLOAT_SIDECAR else None

    p, u = (None, None) if none else ((floats(d_enc, m), p_raw), (floats(m), u_raw))
    layers = [(act, w, shift, [(floats(len(w)), bias_raw)], [(floats(len(w), m), beta_raw)])
              for act, w, shift, bias_raw, beta_raw in records]
    if r.pos != len(r.data):
        raise ModelFormatError("trailing bytes after model body")
    return _assemble("file", enc, m, d_enc, _SOURCE_NAMES[source_tag], alpha, p, u, layers)


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
        "mechanism": {"source": mech.source, "d_enc": mech.d_enc} if mech.source == SOURCE_NONE
        else {
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

    Raw fields may be omitted (the model derives them from the floats), and
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
        source = md.get("source", SOURCE_EXTERNAL)
        if source == SOURCE_NONE and set(md) - {"source", "d_enc", "alpha"}:
            raise ValueError("a mechanism of source 'none' takes no values")
        p, u = (None, None) if source == SOURCE_NONE else (
            _value_pair(md.get("weights"), md.get("weights_raw"), (d_enc, m)),
            _value_pair(md.get("intercepts"), md.get("intercepts_raw"), (m,)))
        alpha = _float(md.get("alpha", 0.0), "alpha")
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
            layers.append((
                Activation[ld["activation"].upper()], w,
                np.array([_int(nd["shift"], "shift", 0, 0xFF) for nd in nodes], dtype=np.uint8),
                [_bias_pair(nd) for nd in nodes],
                [_value_pair(nd.get("beta"), nd.get("beta_raw"), (1, m)) for nd in nodes],
            ))
    # AttributeError: a JSON value of the wrong type, such as a list for an object
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"bad model JSON: {exc}") from exc
    return _assemble("JSON", enc, m, d_enc, source, alpha, p, u, layers)


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


def _value_pair(floats, raws, shape) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(floats or None, raws or None) of one JSON field, at least one given; floats
    given alone must round into the Q7.25 range, and the model derives their raws."""
    if floats is None and raws is None:
        raise ValueError("need float or raw values")
    r = None if raws is None else _cells(raws, shape, _int, "raw value", np.int32)
    f = None if floats is None else _cells(floats, shape, _float, "float value", np.float64)
    if r is None:  # f * 2**25 rounds (half to even) into [RAW_MIN, RAW_MAX]
        half = fx.RESOLUTION / 2
        outside = np.count_nonzero(~((f >= fx.REAL_MIN - half) & (f < -fx.REAL_MIN - half)))
        if outside:
            raise ValueError(f"{outside} values lie outside the Q7.25 range [-64, 64)")
    return f, r


def _bias_pair(node: dict) -> tuple[np.ndarray | None, np.ndarray]:
    """A node's bias pair; a bias given alone keeps only its grid value."""
    f, r = _value_pair(node.get("bias"), node.get("bias_raw"), (1,))
    return (f, r) if r is not None else (None, fx.quantize_array(f)[0])
