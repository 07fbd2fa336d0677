"""Model structure shared by the trainer, the reference path, and the emulator.

A hidden layer (ScmLayer) is held in the packed form of the model file's
layer block: a BitMatrix of weight bits, one row per node, and per-node
arrays of scale codes, raw biases and readouts. Training and the model file
build those arrays (ScmLayer.from_arrays); like a MechanismModel, a layer is
given float readouts, derives their raw Q7.25 values and clamp count once,
then holds every array read-only and refuses to rebind an attribute. A frozen
ScmModel checks once, when it is built, that its parts fit (validate), so no
reader checks it again. Every batch path reads the arrays as they are.
ScmNode, whose weights are one 0/1 BitVec row, and ScmLayer(activation, nodes),
which stacks a list of them and packs their rows with BitMatrix.from01 before
the same checks, stay only for the benchmark's synthetic model. A node's bit
depends on its raw bias only, through threshold_edge: training and the
reference path test dot > edge in threshold_bits, the emulator in popcounts.

Naming note: the two activations follow the hardware convention used
throughout this package, which differs from textbook usage. SIGN gates the
readout (activation value 0 or 1, so a node contributes 0 or beta), while
STEP is the symmetric one (activation value -1 or +1, contribution -beta or
+beta). Both forward the same threshold bit [pre > 0] to the next layer; the
difference downstream is only how that bit enters the next dot product: bits
produced by a STEP layer mean -1/+1 (XNOR-count path), bits produced by a
SIGN layer mean literal 0/1 (conditional-count path). Functions that take
bits say which with a flag `pm1`: True for the encoded inputs and a STEP
layer's bits, False for a SIGN layer's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Sequence

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix, BitVec
from .encoding import EncodingSpec
from .mechanism import MechanismModel, mech_eval_float_batch, signals_pm1


class Activation(IntEnum):
    SIGN = 0  # activation value {0, 1}; node output {0, beta}
    STEP = 1  # activation value {-1, +1}; node output {-beta, +beta}


def parse_activation(name: str) -> Activation:
    try:
        return Activation[name.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown activation {name!r} (expected sign or step)") from None


@dataclass
class ScmNode:
    w: BitVec  # fan_in bits; bit 1 means weight +1, bit 0 means -1
    shift: int  # scale is 2**shift, shift in 0..7
    bias: float  # must equal bias_raw / 2**25 exactly
    bias_raw: int
    beta: np.ndarray  # (m,) float64
    beta_raw: np.ndarray  # (m,) int32

    def __post_init__(self):
        if not 0 <= self.shift <= 7:
            raise ValueError("shift code must be in 0..7")
        if self.bias != self.bias_raw * fx.RESOLUTION:
            raise ValueError(f"bias {self.bias!r} is not bias_raw / 2**25")


class ScmLayer:
    """One hidden layer of K nodes as a struct of arrays.

    activation: the layer's Activation
    w: BitMatrix of K rows of fan_in bits; bit 1 means weight +1, bit 0 -1
    shift: (K,) uint8 scale codes, lambda = 2**shift
    bias_raw: (K,) int32 raw Q7.25 biases; bias is their exact float64 value
    beta: (K, m) float64 readouts, from which the layer derives, once, beta_raw,
    their (K, m) int32 raw Q7.25 values, and saturated, how many it clamped

    from_arrays holds the arrays as they are, and ScmLayer(activation, nodes)
    packs a list of ScmNodes (the benchmark's synthetic model), whose weight
    rows must be of one width and whose raw readouts must be the derived
    ones; both refuse values the model file cannot hold. The arrays are
    read-only and the attributes fixed. len() is K.
    """

    def __init__(self, activation: Activation, nodes: Sequence[ScmNode] = ()):
        k = len(nodes)
        fan_in, m = (nodes[0].w.n, len(nodes[0].beta)) if nodes else (0, 0)
        if any(nd.w.n != fan_in for nd in nodes):
            raise ValueError(f"every node's weights must be {fan_in} bits wide")
        w01 = np.array([nd.w.bits for nd in nodes], dtype=np.uint8).reshape(k, fan_in)
        self._hold(activation, BitMatrix.from01(w01),
                   np.array([nd.shift for nd in nodes], dtype=np.uint8),
                   _int32([nd.bias_raw for nd in nodes]).reshape(k),
                   np.array([nd.beta for nd in nodes], dtype=np.float64).reshape(k, m))
        if not np.array_equal(_int32([nd.beta_raw for nd in nodes]).reshape(k, m), self.beta_raw):
            raise ValueError("float values do not round to their raw values")

    @classmethod
    def from_arrays(cls, activation, w, shift, bias_raw, beta) -> "ScmLayer":
        """A layer holding these arrays, not copies, marked read-only; ValueError for
        any the model file cannot hold (dtypes and shapes as above, codes 0..7)."""
        layer = cls.__new__(cls)
        layer._hold(activation, w, shift, bias_raw, beta)
        return layer

    def _hold(self, activation, w, shift, bias_raw, beta) -> None:
        k = len(w)
        if [getattr(a, "dtype", None) for a in (shift, bias_raw)] != [np.uint8, np.int32]:
            raise ValueError("shift and bias_raw must be uint8 and int32 arrays")
        if (shift.shape, bias_raw.shape, np.shape(beta)[:-1]) != ((k,), (k,), (k,)):
            raise ValueError(f"shift and bias_raw must be ({k},) arrays and beta ({k}, m)")
        if np.any(shift > 7):
            raise ValueError("scale code above 7")
        vars(self).update(activation=activation, w=w, shift=shift, bias_raw=bias_raw, beta=beta)
        vars(self)["beta_raw"], vars(self)["saturated"] = fx.quantize_array(beta)
        for held in (w.words, shift, bias_raw, beta, self.beta_raw):
            held.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError(f"a layer's {name} cannot be rebound")

    def __len__(self) -> int:
        return len(self.w)

    @property
    def fan_in(self) -> int:
        return self.w.n

    @property
    def bias(self) -> np.ndarray:
        """(K,) float64 biases, bias_raw / 2**25 (an exact product)."""
        return self.bias_raw * fx.RESOLUTION


def _int32(values) -> np.ndarray:
    """values as int32; a ValueError, not a wrapped value, for any outside int32."""
    wide = np.array(values, dtype=np.int64)
    if np.any((wide < fx.RAW_MIN) | (wide > fx.RAW_MAX)):
        raise ValueError("raw values must lie in the int32 range")
    return wide.astype(np.int32)


@dataclass(frozen=True, eq=False)  # == is identity: the fields hold arrays
class ScmModel:
    encoding: EncodingSpec
    mechanism: MechanismModel
    layers: tuple[ScmLayer, ...]  # any sequence, held as a tuple
    n_outputs: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))  # the dataclass is frozen
        self.validate()

    @property
    def d_enc(self) -> int:
        return self.mechanism.d_enc

    @property
    def n_features(self) -> int:
        return self.d_enc // self.encoding.bits_per_input

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def total_nodes(self) -> int:
        return sum(self.layer_sizes)

    @property
    def clamped(self) -> int:  # mechanism values and readouts clamped to the Q7.25 range
        return self.mechanism.saturated + sum(layer.saturated for layer in self.layers)

    def validate(self) -> None:
        if self.mechanism.n_outputs != self.n_outputs:
            raise ValueError("mechanism output count does not match the model")
        if self.d_enc % self.encoding.bits_per_input != 0:
            raise ValueError("mechanism width is not a multiple of bits per input")
        expected = self.d_enc
        for i, layer in enumerate(self.layers, start=1):
            k = len(layer)
            if not k:
                raise ValueError(f"layer {i} has no nodes")
            if layer.fan_in != expected:
                raise ValueError(f"layer {i} fan-in {layer.fan_in} != expected {expected}")
            if layer.beta.shape != (k, self.n_outputs):
                raise ValueError("readout width does not match the output count")
            expected = k


# rows per block of predict_float_batch and the emulator's predict_fpga_batch:
# bounds their per-row temporaries, so memory does not grow with the batch
BLOCK_ROWS = 1024


def check_fan_in(fan_in: int) -> None:
    """Raise ValueError unless threshold_bits's float32 dot is exact (fan_in < 2**24)."""
    if fan_in >= 2**24:
        raise ValueError(f"fan-in {fan_in} is too wide for an exact float32 dot (below 2**24)")


def threshold_edge(shift: np.ndarray, bias_raw: np.ndarray) -> np.ndarray:
    """(K,) int64 edges floor(-bias_raw / 2**(25 + shift)), each in [-64, 64]: an
    integer dot passes the datapath's (dot << shift + 25) + bias_raw > 0 iff dot > edge."""
    # widened first: -RAW_MIN does not fit int32
    neg = -np.asarray(bias_raw, dtype=np.int64)
    return neg >> (np.asarray(shift, dtype=np.int64) + fx.FRAC_BITS)  # floor division


def threshold_bits(s: np.ndarray, w32: np.ndarray, edge32: np.ndarray,
                   work: np.ndarray) -> np.ndarray:
    """Threshold bits of K nodes on N rows.

    s (N, fan_in), int8 or float32, and w32 (K, fan_in), float32, hold -1, 0
    or +1; edge32 is the nodes' threshold_edge in float32. The dots go into
    the (N, K) float32 work array, which the bits then overwrite as 0.0 or
    1.0. Dots (see check_fan_in) and edges are exact integers in float32.
    """
    np.matmul(s, w32.T, out=work)
    return np.greater(work, edge32, out=work)


def layer_forward_float(layer: ScmLayer) -> Callable[[np.ndarray], np.ndarray]:
    """A layer's reference function, built once: from an (N, fan_in) int8 or float32
    signal matrix to the (N, n_nodes) float32 activation values, which also feed the
    next layer: {0,1} after SIGN, {-1,+1} after STEP (exact in float32). Raises
    ValueError when the fan-in is too wide for threshold_bits (check_fan_in)."""
    check_fan_in(layer.fan_in)
    w = signals_pm1(layer.w).astype(np.float32)
    edge = threshold_edge(layer.shift, layer.bias_raw).astype(np.float32)
    step = layer.activation == Activation.STEP

    def forward(s: np.ndarray) -> np.ndarray:
        h = threshold_bits(s, w, edge, np.empty((len(s), len(w)), dtype=np.float32))
        if step:
            h *= 2.0
            h -= 1.0
        return h

    return forward


def predict_float_batch(model: ScmModel, bits: BitMatrix) -> np.ndarray:
    """Reference full-precision prediction for a batch of encoded rows; (N, m).

    Works in blocks of BLOCK_ROWS rows, so its temporaries do not grow with the
    batch. The int8 signals, made once per block, feed the mechanism (skipped if
    "none") and the first layer as they are, as in training; the mechanism and
    readouts multiply in float64, to which int8 and float32 promote exactly.
    Raises ValueError, before any signal, if a fan-in is too wide (check_fan_in).
    """
    if bits.n != model.d_enc:
        raise ValueError(f"input width {bits.n} != model width {model.d_enc}")
    forwards = [(layer_forward_float(layer), layer.beta) for layer in model.layers]
    mech = model.mechanism if model.mechanism.n_values else None
    out = np.empty((len(bits), model.n_outputs))
    for start in range(0, len(bits), BLOCK_ROWS):
        s = signals_pm1(bits[start : start + BLOCK_ROWS])
        acc = mech_eval_float_batch(s, mech) if mech else np.zeros((len(s), model.n_outputs))
        for forward, beta in forwards:
            s = forward(s)
            acc += s @ beta
        out[start : start + BLOCK_ROWS] = acc
    return out


def output_bound(model: ScmModel) -> list[int]:
    """Per output, a bound on |emulated wide sum| over every input: |u| + sum |mech w| (0
    for "none") + sum |beta| over the raw Q7.25 integers. Below 2**31, no input saturates it."""
    mech = model.mechanism
    raw = [mech.intercepts_raw[None], *(layer.beta_raw for layer in model.layers)]
    if mech.n_values:  # not "none": a copy of its (d_enc, m) zero view would take d_enc*m*8 B
        raw.append(mech.weights_raw)
    return np.abs(np.vstack(raw).astype(np.int64)).sum(axis=0).tolist()


def quantization_bound(model: ScmModel) -> float:
    """Per-output bound on |reference - emulated| from parameter rounding.

    It holds only without clamping to the Q7.25 range: a clamped output,
    readout or mechanism value can put the emulated output any distance from
    the reference one (see EvalReport.bound_applies).
    """
    mech_weights = model.d_enc if model.mechanism.n_values else 0
    return (model.total_nodes + mech_weights + model.n_outputs + 1) * fx.RESOLUTION
