"""Model structure shared by the trainer, the reference path, and the emulator.

A hidden layer (ScmLayer) is held in the packed form of the model file's
layer block: a BitMatrix of weight bits, one row per node, and per-node
arrays of scale codes, raw biases and readouts. Training and the model file
build those arrays, and every batch path reads them as they are. ScmNode, one
node's scalars, serves only the per-sample oracles (ScmLayer.node(i)) and
hand-built layers. A node's bit depends on its raw bias only: training and the
reference path both take it from threshold_bits, the emulator's integer test.

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
from typing import Sequence

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
        if self.bias != fx.fx_to_real(self.bias_raw):
            raise ValueError(f"bias {self.bias!r} is not bias_raw / 2**25")

    @property
    def fan_in(self) -> int:
        return self.w.n

    @property
    def lam(self) -> int:
        return 1 << self.shift


class ScmLayer:
    """One hidden layer of K nodes as a struct of arrays.

    activation: the layer's Activation
    w: BitMatrix of K rows of fan_in bits; bit 1 means weight +1, bit 0 -1
    shift: (K,) uint8 scale codes, lambda = 2**shift
    bias_raw: (K,) int32 raw Q7.25 biases; bias is their exact float64 value
    beta, beta_raw: (K, m) float64 readouts and their raw Q7.25 int32 values

    ScmLayer(activation, nodes) packs a list of ScmNodes; from_arrays takes
    the arrays as they are. len() is K, and node(i) is node i as an ScmNode,
    the input of the scalar oracles.
    """

    def __init__(self, activation: Activation, nodes: Sequence[ScmNode] = ()):
        readouts = (len(nodes), len(nodes[0].beta) if nodes else 0)
        self.activation = activation
        self.w = BitMatrix.from_rows([nd.w for nd in nodes])
        self.shift = np.array([nd.shift for nd in nodes], dtype=np.uint8)
        self.bias_raw = np.array([nd.bias_raw for nd in nodes], dtype=np.int32)
        self.beta = np.array([nd.beta for nd in nodes], dtype=np.float64).reshape(readouts)
        self.beta_raw = np.array([nd.beta_raw for nd in nodes], dtype=np.int32).reshape(readouts)

    @classmethod
    def from_arrays(cls, activation, w, shift, bias_raw, beta, beta_raw) -> "ScmLayer":
        """A layer holding these arrays, not copies; dtypes as in the class docstring."""
        layer = cls(activation)
        layer.w, layer.shift, layer.bias_raw = w, shift, bias_raw
        layer.beta, layer.beta_raw = beta, beta_raw
        return layer

    def __len__(self) -> int:
        return len(self.w)

    @property
    def fan_in(self) -> int:
        return self.w.n

    @property
    def bias(self) -> np.ndarray:
        """(K,) float64 biases, bias_raw / 2**25 (an exact product)."""
        return self.bias_raw * fx.RESOLUTION

    def node(self, i: int) -> ScmNode:
        """Node i; its readout arrays are copies."""
        raw = int(self.bias_raw[i])
        return ScmNode(self.w[i], int(self.shift[i]), fx.fx_to_real(raw), raw,
                       self.beta[i].copy(), self.beta_raw[i].copy())


@dataclass
class ScmModel:
    encoding: EncodingSpec
    mechanism: MechanismModel
    layers: list[ScmLayer]
    n_outputs: int

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
            readouts = (k, self.n_outputs)
            if layer.beta.shape != readouts or layer.beta_raw.shape != readouts:
                raise ValueError("readout width does not match the output count")
            expected = k


# rows per block of predict_float_batch and the emulator's predict_fpga_batch:
# bounds their per-row temporaries, so memory does not grow with the batch
BLOCK_ROWS = 1024


def activation_values(bit: np.ndarray, act: Activation) -> np.ndarray:
    """Float activation values of threshold bits: {0,1} for SIGN, {-1,+1} for STEP."""
    h = bit.astype(np.float64)
    if act == Activation.STEP:
        h *= 2.0
        h -= 1.0
    return h


def check_fan_in(fan_in: int) -> None:
    """Raise ValueError unless threshold_bits's float32 dot is exact (fan_in < 2**24)."""
    if fan_in >= 2**24:
        raise ValueError(f"fan-in {fan_in} is too wide for an exact float32 dot (below 2**24)")


def threshold_bits(
    s32: np.ndarray, w32: np.ndarray, shift: np.ndarray, bias_raw: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Threshold bits of K nodes (scale codes shift, raw biases bias_raw) on N rows.

    s32 (N, fan_in) and w32 (K, fan_in) are float32 in {-1, 0, +1}. The dots
    go into the (N, K) float32 work array, which the bits then overwrite in
    place as 0.0 or 1.0. The test dot > floor(-bias_raw / 2**(25 + shift)),
    whose floor has magnitude at most 64, is the emulator's
    (dot << shift + 25) + bias_raw > 0 for the integer dot (see check_fan_in).
    """
    np.matmul(s32, w32.T, out=work)
    # widened first: -RAW_MIN does not fit int32
    neg = -np.asarray(bias_raw, dtype=np.int64)
    edge = neg >> (np.asarray(shift, dtype=np.int64) + fx.FRAC_BITS)  # floor division
    return np.greater(work, edge.astype(np.float32), out=work)


def layer_forward_float(s: np.ndarray, layer: ScmLayer) -> np.ndarray:
    """Activation values of a layer on an (N, fan_in) signal matrix.

    The returned (N, n_nodes) float64 matrix is also the signal matrix
    feeding the next layer: {0,1} after SIGN, {-1,+1} after STEP.
    """
    w = layer.w.to01().astype(np.float32)
    w *= 2.0
    w -= 1.0
    work = np.empty((len(s), len(layer)), dtype=np.float32)
    bits = threshold_bits(s.astype(np.float32), w, layer.shift, layer.bias_raw, work)
    return activation_values(bits, layer.activation)


def predict_float_batch(model: ScmModel, bits: BitMatrix) -> np.ndarray:
    """Reference full-precision prediction for a batch of encoded rows; (N, m).

    Works in blocks of BLOCK_ROWS rows, so its temporaries do not grow with
    the batch. Raises ValueError when a layer's fan-in is too wide for
    threshold_bits (check_fan_in).
    """
    if bits.n != model.d_enc:
        raise ValueError(f"input width {bits.n} != model width {model.d_enc}")
    for layer in model.layers:
        check_fan_in(layer.fan_in)
    out = np.empty((len(bits), model.n_outputs))
    for start in range(0, len(bits), BLOCK_ROWS):
        s = signals_pm1(bits[start : start + BLOCK_ROWS])
        acc = mech_eval_float_batch(s, model.mechanism)
        for layer in model.layers:
            h = layer_forward_float(s, layer)
            acc += h @ layer.beta
            s = h
        out[start : start + BLOCK_ROWS] = acc
    return out


def predict_float(model: ScmModel, x_bits: BitVec) -> np.ndarray:
    """Reference full-precision prediction for one encoded sample."""
    if x_bits.n != model.d_enc:
        raise ValueError(f"input width {x_bits.n} != model width {model.d_enc}")
    return predict_float_batch(model, BitMatrix.from_rows([x_bits]))[0]


def node_output_float(
    in_bits: BitVec, node: ScmNode, act: Activation, pm1: bool = True
) -> tuple[int, float]:
    """Float-path node evaluation: (forwarded bit, activation value).

    `pm1` says whether the input bits stand for -1/+1 (the encoded inputs
    and a STEP layer's bits) or for literal 0/1 (a SIGN layer's).
    """
    if in_bits.n != node.fan_in:
        raise ValueError(f"input width {in_bits.n} != node fan-in {node.fan_in}")
    s = in_bits.to_pm1() if pm1 else in_bits.to01()
    dot = float(node.w.to_pm1().astype(np.float64) @ s.astype(np.float64))
    pre = node.lam * dot + node.bias
    bit = 1 if pre > 0 else 0
    if act == Activation.SIGN:
        return bit, float(bit)
    return bit, 1.0 if bit else -1.0


def quantization_bound(model: ScmModel) -> float:
    """Per-output bound on |reference - emulated| from parameter rounding.

    It holds only when no output saturates: an emulated output clamped to
    the Q7.25 range can be any distance from the reference one (see
    EvalReport.saturated and EvalReport.bound_applies).
    """
    return (model.total_nodes + model.d_enc + model.n_outputs + 1) * fx.RESOLUTION
