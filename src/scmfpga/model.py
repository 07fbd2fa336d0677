"""Model structure shared by the trainer, the reference path, and the emulator.

Naming note: the two activations follow the hardware convention used
throughout this package, which differs from textbook usage. SIGN gates the
readout (activation value 0 or 1, so a node contributes 0 or beta), while
STEP is the symmetric one (activation value -1 or +1, contribution -beta or
+beta). Both forward the same threshold bit [pre > 0] to the next layer; the
difference downstream is only how that bit enters the next dot product: bits
produced by a STEP layer mean -1/+1 (XNOR-count path), bits produced by a
SIGN layer mean literal 0/1 (conditional-count path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import fixedpoint as fx
from .bits import BitVec
from .encoding import EncodingSpec
from .mechanism import MechanismModel, mech_eval_float_batch, signals_pm1


class Activation(IntEnum):
    SIGN = 0  # activation value {0, 1}; node output {0, beta}
    STEP = 1  # activation value {-1, +1}; node output {-beta, +beta}


class InDomain(IntEnum):
    """What the bits feeding a layer stand for."""

    PM1 = 0  # {-1, +1}: dot product via XNOR-count
    ZO1 = 1  # literal {0, 1}: dot product via conditional count


def feed_domain(act: Activation) -> InDomain:
    """Input domain of a layer fed by nodes with activation `act`."""
    return InDomain.PM1 if act == Activation.STEP else InDomain.ZO1


def parse_activation(name: str) -> Activation:
    try:
        return Activation[name.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown activation {name!r} (expected sign or step)") from None


@dataclass
class ScmNode:
    w: BitVec  # fan_in bits; bit 1 means weight +1, bit 0 means -1
    shift: int  # scale is 2**shift, shift in 0..7
    bias: float
    bias_raw: int
    beta: np.ndarray  # (m,) float64
    beta_raw: np.ndarray  # (m,) int32

    def __post_init__(self):
        if not 0 <= self.shift <= 7:
            raise ValueError("shift code must be in 0..7")

    @property
    def fan_in(self) -> int:
        return self.w.n

    @property
    def lam(self) -> int:
        return 1 << self.shift


@dataclass
class ScmLayer:
    activation: Activation
    nodes: list[ScmNode] = field(default_factory=list)

    @property
    def fan_in(self) -> int:
        return self.nodes[0].fan_in if self.nodes else 0

    def weight_matrix(self) -> np.ndarray:
        """(n_nodes, fan_in) matrix of -1/+1 weights."""
        return np.stack([n.w.to_pm1() for n in self.nodes]).astype(np.float64)

    def lambdas(self) -> np.ndarray:
        return np.array([n.lam for n in self.nodes], dtype=np.float64)

    def biases(self) -> np.ndarray:
        return np.array([n.bias for n in self.nodes], dtype=np.float64)

    def betas(self) -> np.ndarray:
        """(n_nodes, m) readout weights."""
        return np.stack([n.beta for n in self.nodes])


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
        return tuple(len(layer.nodes) for layer in self.layers)

    @property
    def total_nodes(self) -> int:
        return sum(self.layer_sizes)

    def validate(self) -> None:
        if self.mechanism.n_outputs != self.n_outputs:
            raise ValueError("mechanism output count does not match the model")
        if self.d_enc % self.encoding.bits_per_input != 0:
            raise ValueError("mechanism width is not a multiple of bits per input")
        expected = self.d_enc
        for i, layer in enumerate(self.layers):
            if not layer.nodes:
                raise ValueError(f"layer {i + 1} has no nodes")
            for node in layer.nodes:
                if node.fan_in != expected:
                    raise ValueError(
                        f"layer {i + 1} fan-in {node.fan_in} != expected {expected}"
                    )
                if node.beta.shape != (self.n_outputs,):
                    raise ValueError("readout width does not match the output count")
            expected = len(layer.nodes)


def activation_values(bit: np.ndarray, act: Activation) -> np.ndarray:
    """Float activation values of threshold bits: {0,1} for SIGN, {-1,+1} for STEP."""
    h = bit.astype(np.float64)
    if act == Activation.STEP:
        h *= 2.0
        h -= 1.0
    return h


def layer_forward_float(s: np.ndarray, layer: ScmLayer) -> np.ndarray:
    """Activation values of a layer on an (N, fan_in) signal matrix.

    The returned (N, n_nodes) matrix is also the signal matrix feeding the
    next layer: {0,1} after SIGN, {-1,+1} after STEP.
    """
    w = layer.weight_matrix()
    pre = (s @ w.T) * layer.lambdas() + layer.biases()
    return activation_values(pre > 0, layer.activation)


def predict_float_batch(model: ScmModel, bits_or_signals) -> np.ndarray:
    """Reference full-precision prediction for a batch; returns (N, m).

    Accepts encoded rows (a BitMatrix, or a list of BitVecs) or a prebuilt
    (N, d_enc) +-1 matrix.
    """
    s = (
        bits_or_signals
        if isinstance(bits_or_signals, np.ndarray)
        else signals_pm1(bits_or_signals)
    )
    if s.shape[1] != model.d_enc:
        raise ValueError(f"input width {s.shape[1]} != model width {model.d_enc}")
    out = mech_eval_float_batch(s, model.mechanism)
    for layer in model.layers:
        h = layer_forward_float(s, layer)
        out = out + h @ layer.betas()
        s = h
    return out


def predict_float(model: ScmModel, x_bits: BitVec) -> np.ndarray:
    """Reference full-precision prediction for one encoded sample."""
    if x_bits.n != model.d_enc:
        raise ValueError(f"input width {x_bits.n} != model width {model.d_enc}")
    return predict_float_batch(model, [x_bits])[0]


def node_output_float(
    in_bits: BitVec,
    node: ScmNode,
    act: Activation,
    in_domain: InDomain = InDomain.PM1,
) -> tuple[int, float]:
    """Float-path node evaluation: (forwarded bit, activation value).

    `in_domain` says what the input bits stand for; layer 1 is always PM1.
    """
    if in_bits.n != node.fan_in:
        raise ValueError(f"input width {in_bits.n} != node fan-in {node.fan_in}")
    s = in_bits.to_pm1() if in_domain == InDomain.PM1 else in_bits.to01()
    dot = float(node.w.to_pm1().astype(np.float64) @ s.astype(np.float64))
    pre = node.lam * dot + node.bias
    bit = 1 if pre > 0 else 0
    if act == Activation.SIGN:
        return bit, float(bit)
    return bit, 1.0 if bit else -1.0


def quantization_bound(model: ScmModel) -> float:
    """Per-output bound on |reference - emulated| from parameter rounding."""
    return (model.total_nodes + model.d_enc + model.n_outputs + 1) * fx.RESOLUTION
