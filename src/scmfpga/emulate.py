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
blocks of BLOCK_ROWS rows. A layer's popcounts add up word by word into one
(nodes, rows) int32 array, and one compare with a per-node limit stands for
the shift, the bias and the strict threshold: (dot << shift + 25) + bias_raw
> 0 says dot * 2**(25 + shift) > -bias_raw, which for an integer dot is
dot > edge = floor(-bias_raw / 2**(25 + shift)) (model.threshold_edge). A
+-1 dot is fan_in - 2*count, so the node fires when 2*count < fan_in - edge;
a {0,1} dot is 2*count - ones(x), so it fires when 2*count - ones(x) > edge.
The bits, as float64 0/1, select the readouts (fixedpoint.conditional_sum)
and, times powers of two, pack into the next layer's words, both exactly.
predict_fpga is its test oracle: one BitVec at a time, in Python integers
through xnor_count, ones_count_dot, the literal shift and bias, and
fixedpoint's scalar fx_neg and saturate_to_fx. It shares no kernel with the
batch path, so a fault in one cannot hide in the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fx
from .bits import WORD, BitMatrix, BitVec, n_words
from .mechanism import mech_wide_fpga
from .model import BLOCK_ROWS, Activation, ScmLayer, ScmModel, threshold_edge


def xnor_count(a: BitVec, b: BitVec) -> int:
    """Dot product of two {-1,+1} vectors stored as bits.

    popcount(XNOR) counts agreeing positions; disagreements count -1 each.
    Vectors of different lengths raise ValueError, as every BitVec operation does.
    """
    agree = (a ^ b).invert().popcount()
    return 2 * agree - a.n


def ones_count_dot(a01: BitVec, w: BitVec) -> int:
    """Dot product of a literal {0,1} vector with a {-1,+1} weight vector.

    Only positions with a set input bit contribute: +1 where the weight bit
    is set, -1 where it is clear.
    """
    plus = (a01 & w).popcount()
    minus = (a01 & w.invert()).popcount()
    return plus - minus


def predict_fpga(model: ScmModel, x_bits: BitVec) -> np.ndarray:
    """Emulated prediction for one encoded sample; returns raw Q7.25 per output.

    The test oracle of predict_fpga_batch, on Python integers only. The wide
    sums start at the raw intercepts and add each raw mechanism weight for a
    set input bit or its fx_neg for a clear one. Then, node by node, the XNOR-
    or AND-count dot is shifted by the scale code and promoted to the 25-bit
    fraction, the raw bias is added, and the strict threshold gives the bit;
    the node adds its raw readout for a set bit, and for a clear one nothing
    (SIGN) or the readout's fx_neg (STEP). The sums saturate once, at the end.
    """
    if x_bits.n != model.d_enc:
        raise ValueError(f"input width {x_bits.n} != model width {model.d_enc}")
    mech = model.mechanism
    acc = mech.intercepts_raw.tolist()
    for i, weights in enumerate(mech.weights_raw.tolist()):
        acc = [a + (w if x_bits.get(i) else fx.fx_neg(w)) for a, w in zip(acc, weights)]
    bits_in, pm1 = x_bits, True
    for layer in model.layers:
        step = layer.activation == Activation.STEP
        next_bits = 0
        for i, beta in enumerate(layer.beta_raw.tolist()):
            dot = (xnor_count if pm1 else ones_count_dot)(bits_in, layer.w[i])
            bit = (dot << int(layer.shift[i]) + fx.FRAC_BITS) + int(layer.bias_raw[i]) > 0
            next_bits |= bit << i
            if bit or step:
                acc = [a + (b if bit else fx.fx_neg(b)) for a, b in zip(acc, beta)]
        bits_in, pm1 = BitVec(len(layer), next_bits), step
    return np.array([fx.saturate_to_fx(a) for a in acc], dtype=np.int32)


def _layer_bits(layer: ScmLayer, x: BitMatrix, pm1: bool) -> np.ndarray:
    """(B, K) threshold bits of a layer's nodes on a block of B input rows."""
    op = np.bitwise_xor if pm1 else np.bitwise_and
    w = layer.w.words
    xt = x.words.T.copy()  # node-major, so each op runs along the B rows
    word = lambda j: np.bitwise_count(op(w[:, j, None], xt[j]))  # noqa: E731
    count = word(0).astype(np.int32)  # (K, B) popcounts, added word by word
    for j in range(1, w.shape[1]):
        count += word(j)
    edge = threshold_edge(layer.shift, layer.bias_raw).astype(np.int32)[:, None]
    if pm1:  # 2*count < fan_in - edge
        return (count < (layer.fan_in - edge + 1) >> 1).T
    # 2*count - ones(x) > edge
    ones = np.bitwise_count(x.words).sum(axis=1, dtype=np.int32)
    return (count > (ones + edge) >> 1).T


def _packer(k: int) -> np.ndarray:
    """(k, 2W) float64 P with 2**(i % 32) at [i, i // 32]: the exact product bits01 @ P
    holds each row's 32-bit halves, which read as little-endian uint32 are its words."""
    p, i = np.zeros((k, 2 * n_words(k))), np.arange(k)
    p[i, i // 32] = np.ldexp(1.0, i % 32)
    return p


def predict_fpga_batch(
    model: ScmModel, bits: BitMatrix, saturated: np.ndarray | None = None
) -> np.ndarray:
    """Emulated prediction over a batch of encoded rows; (N, m) int32 raw values.

    Row for row equal to predict_fpga. Per block of BLOCK_ROWS rows: the
    unsaturated mechanism sum; then per layer the XNOR- or AND-popcounts,
    compared with a per-node limit that is the datapath's shift, bias and
    strict threshold (see _layer_bits). The threshold bits select each node's
    readout or its clear-bit value (0 for SIGN, the readout's fx_neg for
    STEP), summed exactly (fixedpoint.conditional_sum), and are packed as the
    next layer's input. The sum saturates once, at the end.

    If `saturated`, an (m,) integer array, is given, the number of rows whose
    output was clamped is added to it per output.
    """
    if bits.n != model.d_enc:
        raise ValueError(f"input width {bits.n} != model width {model.d_enc}")
    # per layer the value a clear bit contributes, and the packing product
    plans = [(layer, np.zeros_like(layer.beta_raw) if layer.activation == Activation.SIGN
              else fx.fx_neg_array(layer.beta_raw), _packer(len(layer)))
             for layer in model.layers]

    out = np.empty((len(bits), model.n_outputs), dtype=np.int32)
    for start in range(0, len(bits), BLOCK_ROWS):
        x = bits[start : start + BLOCK_ROWS]
        acc = mech_wide_fpga(x.to01(), model.mechanism)
        pm1 = True
        for layer, off, packer in plans:
            fired = _layer_bits(layer, x, pm1).astype(np.float64)
            acc += fx.conditional_sum(fired, layer.beta_raw, off)
            x = BitMatrix((fired @ packer).astype("<u4").view(WORD), len(layer))
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
    bias_fpga_bits: int
    mechanism_fpga_bits: int
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
                f"biases: {self.bias_fpga_bits} bits fixed",
                f"mechanism: {self.mechanism_fpga_bits} bits fixed",
                f"cycles per evaluation: {self.cycles}",
                f"time per evaluation at {self.clock_hz / 1e6:g} MHz: {ns:g} ns",
            ]
        )


def memory_report(model: ScmModel, clock_hz: float = 100e6) -> ResourceReport:
    """Bit counts and reductions versus a float64 software model.

    The software side stores one 64-bit value per raw feature and per
    raw-feature x node weight; the packed side stores one bit per encoded
    input and per encoded-input x node weight, 32-bit readouts, and a 3-bit
    scale code per node; its 32-bit raw biases and mechanism values, which the
    emulated datapath also reads, are counted apart from the reductions.
    clock_hz must be positive and finite (else a ValueError).
    """
    if not 0 < clock_hz < float("inf"):  # also refuses NaN
        raise ValueError(f"clock {clock_hz!r} Hz is not positive and finite")
    d = model.n_features
    d_enc = model.d_enc

    # a layer's real fan-in is the raw feature count or the last layer's size
    sizes = model.layer_sizes
    weight_real = REAL_VALUE_BITS * sum(a * b for a, b in zip((d, *sizes), sizes))
    weight_fpga = sum(layer.fan_in * len(layer) for layer in model.layers)

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
        bias_fpga_bits=FX_VALUE_BITS * model.total_nodes,
        mechanism_fpga_bits=FX_VALUE_BITS * (d_enc + 1) * model.n_outputs,
        input_reduction=reduction(inputs_real, d_enc),
        weight_reduction=reduction(weight_real, weight_fpga),
        beta_reduction=reduction(REAL_VALUE_BITS * n_beta, FX_VALUE_BITS * n_beta),
        cycles=cycle_estimate(model),
        clock_hz=clock_hz,
    )
