"""Bit-exact emulation of the hardware datapath, plus cycle and memory models.

The datapath never multiplies: +-1 dot products are an XNOR and two
popcounts, {0,1}-input dot products are two masked popcounts (a flag `pm1`
picks the first for the encoded inputs and a STEP layer's bits), the per-node
scale is a left shift, and the output path sums raw Q7.25 integers in a wide
accumulator that saturates once at the end. Given the same model file, the
reference float path and this emulation produce identical activation bits;
outputs differ only by the stored-parameter rounding.

predict_fpga_batch is the batch path: it runs the datapath vectorized over
the encoded rows, which it takes only as a BitMatrix (rows of (W,)
little-endian uint64 words, bit 0 = input 0, zero pad bits; see bits.py), in
blocks of BLOCK_ROWS rows. A layer's popcounts accumulate word by word: for
each word column j, the (rows, nodes) counts of x[:, j] XOR (or AND) every
node's word j are added into one int64 array, so no (rows, nodes, words)
temporary is built. The kernel reads a layer's packed arrays (weight words,
scale codes, raw biases and readouts) as they are.
predict_fpga, node_forward_fpga, xnor_count and ones_count_dot work on one
BitVec at a time in plain integer arithmetic and serve as its test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix, BitVec
from .mechanism import mech_wide_fpga
from .model import BLOCK_ROWS, Activation, ScmLayer, ScmModel, ScmNode


def xnor_count(a: BitVec, b: BitVec) -> int:
    """Dot product of two {-1,+1} vectors stored as bits.

    popcount(XNOR) counts agreeing positions; disagreements count -1 each.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    agree = (a ^ b).invert().popcount()
    return 2 * agree - a.n


def ones_count_dot(a01: BitVec, w: BitVec) -> int:
    """Dot product of a literal {0,1} vector with a {-1,+1} weight vector.

    Only positions with a set input bit contribute: +1 where the weight bit
    is set, -1 where it is clear.
    """
    if a01.n != w.n:
        raise ValueError(f"length mismatch: {a01.n} vs {w.n}")
    plus = (a01 & w).popcount()
    minus = (a01 & w.invert()).popcount()
    return plus - minus


def node_forward_fpga(
    in_bits: BitVec, node: ScmNode, act: Activation, pm1: bool = True
) -> tuple[int, np.ndarray]:
    """One node in the emulated pipeline: (forwarded bit, raw contributions).

    dot -> left shift by the scale code -> promote to the 25-fraction scale
    -> add the quantized bias -> strict threshold at zero. The contribution
    per output is the raw readout (SIGN: beta or 0; STEP: beta or its two's
    complement). `pm1` says whether the input bits stand for -1/+1
    (XNOR-count) or for literal 0/1 (conditional count).
    """
    if in_bits.n != node.fan_in:
        raise ValueError(f"input width {in_bits.n} != node fan-in {node.fan_in}")
    if pm1:
        dot = xnor_count(in_bits, node.w)
    else:
        dot = ones_count_dot(in_bits, node.w)
    pre = ((dot << node.shift) << fx.FRAC_BITS) + node.bias_raw
    bit = 1 if pre > 0 else 0
    if act == Activation.SIGN:
        contrib = node.beta_raw if bit else np.zeros_like(node.beta_raw)
    else:
        if bit:
            contrib = node.beta_raw
        else:
            contrib = fx.fx_neg_array(node.beta_raw)
    return bit, contrib


def predict_fpga(model: ScmModel, x_bits: BitVec) -> np.ndarray:
    """Emulated prediction for one encoded sample; returns raw Q7.25 per output.

    The mechanism part and every node contribution accumulate in the wide
    integer in a fixed order (layer-major, then node index), with a single
    saturation at the end, so results are bit-reproducible.
    """
    if x_bits.n != model.d_enc:
        raise ValueError(f"input width {x_bits.n} != model width {model.d_enc}")
    acc = [int(v) for v in mech_wide_fpga(x_bits.to01()[None, :], model.mechanism)[0]]
    bits_in = x_bits
    pm1 = True
    for layer in model.layers:
        next_bits = 0
        for i in range(len(layer)):
            bit, contrib = node_forward_fpga(bits_in, layer.node(i), layer.activation, pm1)
            next_bits |= bit << i
            for q in range(model.n_outputs):
                acc[q] += int(contrib[q])
        bits_in = BitVec(len(layer), next_bits)
        pm1 = layer.activation == Activation.STEP
    return np.array([fx.saturate_to_fx(a) for a in acc], dtype=np.int32)


def _layer_bits(layer: ScmLayer, x: BitMatrix, pm1: bool) -> np.ndarray:
    """(B, K) threshold bits of a layer's nodes on a block of B input rows."""
    op = np.bitwise_xor if pm1 else np.bitwise_and
    w = layer.w.words
    word = lambda j: np.bitwise_count(op(x.words[:, j, None], w[:, j]))  # noqa: E731
    # the popcounts add up word by word in one (B, K) int64 array, which
    # then becomes the pre-activation in place
    acc = word(0).astype(np.int64)
    for j in range(1, w.shape[1]):
        acc += word(j)
    if pm1:
        # XNOR-count: agreements minus disagreements, n - 2*count
        acc *= -2
        acc += layer.fan_in
    else:
        # set inputs count +1 under a set weight bit and -1 under a clear one
        acc *= 2
        acc -= np.bitwise_count(x.words).sum(axis=1, dtype=np.int64)[:, None]
    acc <<= layer.shift + fx.FRAC_BITS
    acc += layer.bias_raw
    return acc > 0


def predict_fpga_batch(
    model: ScmModel, bits: BitMatrix, saturated: np.ndarray | None = None
) -> np.ndarray:
    """Emulated prediction over a batch of encoded rows; (N, m) int32 raw values.

    Row for row equal to predict_fpga. Per block of BLOCK_ROWS rows: the
    unsaturated mechanism sum; then per layer the XNOR- or AND-popcount dot
    products, the shift, the bias and the strict threshold. The threshold bits select each node's readout or
    its clear-bit value (0 for SIGN, the readout's fx_neg for STEP), summed
    exactly in int64, and are packed as the next layer's input. The sum
    saturates once, at the end.

    If `saturated`, an (m,) integer array, is given, the number of rows whose
    output was clamped is added to it per output.
    """
    if bits.n != model.d_enc:
        raise ValueError(f"input width {bits.n} != model width {model.d_enc}")
    model.validate()
    # the value a node whose bit is clear contributes
    offs = [
        np.zeros_like(layer.beta_raw) if layer.activation == Activation.SIGN
        else fx.fx_neg_array(layer.beta_raw)
        for layer in model.layers
    ]

    out = np.empty((len(bits), model.n_outputs), dtype=np.int32)
    for start in range(0, len(bits), BLOCK_ROWS):
        x = bits[start : start + BLOCK_ROWS]
        acc = mech_wide_fpga(x.to01(), model.mechanism)
        pm1 = True
        for layer, off in zip(model.layers, offs):
            fired = _layer_bits(layer, x, pm1)
            acc += fx.conditional_sum(fired, layer.beta_raw, off)
            x = BitMatrix.from01(fired)
            pm1 = layer.activation == Activation.STEP
        final = fx.saturate_array(acc)
        out[start : start + BLOCK_ROWS] = final
        if saturated is not None:
            saturated += np.count_nonzero(final != acc, axis=0)
    return out


# -- cycle model ---------------------------------------------------------


# Per-stage clock-cycle costs of the pipelined evaluator. The first layer
# runs dot/count/shift/bias/threshold stages; wide input vectors need one
# extra cycle because their adder tree is two levels deep. Later layers
# overlap with the running summation and cost a flat amount each. The output
# summation is two cycles for a single-layer model and six when layer sums
# have to merge.
LOAD_CYCLES = 1
FIRST_LAYER_NARROW_CYCLES = 6
FIRST_LAYER_WIDE_CYCLES = 7
WIDE_INPUT_THRESHOLD = 32  # encoded widths above this use the wide path
EXTRA_LAYER_CYCLES = 5
OUTPUT_SUM_SINGLE_CYCLES = 2
OUTPUT_SUM_DEEP_CYCLES = 6
MECH_ONLY_CYCLES = 2


def cycle_estimate(model: ScmModel) -> int:
    """Clock cycles to evaluate one input."""
    n_layers = len(model.layers)
    if n_layers == 0:
        return LOAD_CYCLES + MECH_ONLY_CYCLES + OUTPUT_SUM_SINGLE_CYCLES
    first = (
        FIRST_LAYER_NARROW_CYCLES
        if model.d_enc <= WIDE_INPUT_THRESHOLD
        else FIRST_LAYER_WIDE_CYCLES
    )
    out = OUTPUT_SUM_SINGLE_CYCLES if n_layers == 1 else OUTPUT_SUM_DEEP_CYCLES
    return LOAD_CYCLES + first + (n_layers - 1) * EXTRA_LAYER_CYCLES + out


# -- memory model --------------------------------------------------------

REAL_VALUE_BITS = 64  # software baseline stores everything as float64
FX_VALUE_BITS = 32
LAMBDA_CODE_BITS = 3


@dataclass(frozen=True)
class ResourceReport:
    inputs_real_bits: int
    inputs_fpga_bits: int
    weight_real_bits: int
    weight_fpga_bits: int
    beta_real_bits: int
    beta_fpga_bits: int
    lambda_fpga_bits: int
    input_reduction: float  # fractions in [0, 1]
    weight_reduction: float
    beta_reduction: float
    cycles: int
    clock_hz: float

    @property
    def eval_seconds(self) -> float:
        return self.cycles / self.clock_hz

    def text(self) -> str:
        ns = self.eval_seconds * 1e9
        pct = lambda f: f"{f * 100:.6g}%"  # noqa: E731
        return "\n".join(
            [
                f"inputs:  {self.inputs_real_bits} bits real -> "
                f"{self.inputs_fpga_bits} bits packed   (reduction {pct(self.input_reduction)})",
                f"weights: {self.weight_real_bits} bits real -> "
                f"{self.weight_fpga_bits} bits packed   (reduction {pct(self.weight_reduction)})",
                f"readout: {self.beta_real_bits} bits real -> "
                f"{self.beta_fpga_bits} bits fixed   (reduction {pct(self.beta_reduction)})",
                f"scale codes: {self.lambda_fpga_bits} bits",
                f"cycles per evaluation: {self.cycles}",
                f"time per evaluation at {self.clock_hz / 1e6:g} MHz: {ns:g} ns",
            ]
        )


def memory_report(model: ScmModel, clock_hz: float = 100e6) -> ResourceReport:
    """Bit counts and reductions versus a float64 software model.

    The software side stores one 64-bit value per raw feature and per
    raw-feature x node weight; the packed side stores one bit per encoded
    input and per encoded-input x node weight, 32-bit readouts, and a 3-bit
    scale code per node.
    """
    d = model.n_features
    d_enc = model.d_enc

    weight_real = 0
    weight_fpga = 0
    fan_real = d
    fan_fpga = d_enc
    for layer in model.layers:
        n = len(layer)
        weight_real += REAL_VALUE_BITS * fan_real * n
        weight_fpga += fan_fpga * n
        fan_real = n
        fan_fpga = n

    n_beta = model.total_nodes * model.n_outputs
    inputs_real = REAL_VALUE_BITS * d
    reduction = lambda real, fpga: 1.0 - fpga / real if real else 0.0  # noqa: E731
    return ResourceReport(
        inputs_real_bits=inputs_real,
        inputs_fpga_bits=d_enc,
        weight_real_bits=weight_real,
        weight_fpga_bits=weight_fpga,
        beta_real_bits=REAL_VALUE_BITS * n_beta,
        beta_fpga_bits=FX_VALUE_BITS * n_beta,
        lambda_fpga_bits=LAMBDA_CODE_BITS * model.total_nodes,
        input_reduction=reduction(inputs_real, d_enc),
        weight_reduction=reduction(weight_real, weight_fpga),
        beta_reduction=reduction(REAL_VALUE_BITS * n_beta, FX_VALUE_BITS * n_beta),
        cycles=cycle_estimate(model),
        clock_hz=clock_hz,
    )
