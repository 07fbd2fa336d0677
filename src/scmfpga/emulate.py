"""Bit-exact emulation of the hardware datapath, plus cycle and memory models.

The datapath never multiplies: +-1 dot products are an XNOR and two
popcounts, {0,1}-input dot products are two masked popcounts (a flag `pm1`
picks the first for the encoded inputs and a STEP layer's bits), the per-node
scale is a left shift, and the output path sums raw Q7.25 integers in a wide
accumulator that saturates once at the end. Given the same model file, the
reference float path and this emulation produce identical activation bits;
outputs differ only by the stored-parameter rounding.

predict_fpga_batch is the batch path: it runs the datapath vectorized over
the encoded rows, which it takes only as a BitMatrix (see bits.py), in blocks
of BLOCK_ROWS rows whose words it transposes once, to (W, rows). Bits stay
node-major, (nodes, rows), from there: a layer's popcounts add up word by
word into one int32 array, and one compare with a per-node limit stands for
the shift, the bias and the strict threshold: (dot << shift + 25) + bias_raw
> 0 says dot * 2**(25 + shift) > -bias_raw, which for an integer dot is
dot > edge = floor(-bias_raw / 2**(25 + shift)) (model.threshold_edge). A
+-1 dot is fan_in - 2*count, so the node fires when 2*count < fan_in - edge;
a {0,1} dot is 2*count - ones(x), so it fires when 2*count - ones(x) > edge.
One float64 0/1 copy of the bits selects the readouts (a prepared
fixedpoint.conditional_sum) and, times powers of two, packs into the next
layer's input as uint32 halves (HALF), both exactly. Its scalar test oracle
(tests/oracles.py) takes one row at a time as a Python integer and keeps the
literal shift and bias. It shares no kernel with the batch path, so a fault
in one cannot hide in the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fixedpoint as fx
from .bits import HALF, WORD, BitMatrix
from .mechanism import mech_wide_fpga
from .model import BLOCK_ROWS, Activation, ScmLayer, ScmModel, threshold_edge

def _counts(w: np.ndarray, xt: np.ndarray, pm1: bool) -> np.ndarray:
    """(K, B) int32 popcounts of w XOR x (pm1) or w AND x, between (K, W) weight
    words w and the (W, B) input words xt of B rows, added word by word."""
    op = np.bitwise_xor if pm1 else np.bitwise_and  # each op runs along B
    count = np.bitwise_count(op(w[:, 0, None], xt[0])).astype(np.int32)
    for j in range(1, w.shape[1]):
        count += np.bitwise_count(op(w[:, j, None], xt[j]))
    return count


def _layer_bits(layer: ScmLayer, pm1: bool, word: np.dtype) -> Callable:
    """A layer's threshold function, built once: from the (W, B) input words of
    B rows in the width `word` (WORD for the encoded inputs, HALF between
    layers) to the (K, B) bool threshold bits of its K nodes."""
    w = layer.w.words.view(word)[:, : -(-layer.fan_in // (8 * word.itemsize))]
    edge = threshold_edge(layer.shift, layer.bias_raw).astype(np.int32)[:, None]
    if pm1:  # 2*count < fan_in - edge
        limit = (layer.fan_in - edge + 1) >> 1
        return lambda xt: _counts(w, xt, True) < limit
    # 2*count - ones(x) > edge
    return lambda xt: _counts(w, xt, False) > (np.bitwise_count(xt).sum(0, np.int32) + edge) >> 1


def _packer(k: int) -> np.ndarray:
    """(ceil(k / 32), k) float64 P with 2**(i % 32) at [i // 32, i]: the exact
    product P @ bits01 of (k, B) 0/1 bits is the next layer's (H, B) halves."""
    p, i = np.zeros((-(-k // 32), k)), np.arange(k)
    p[i // 32, i] = np.ldexp(1.0, i % 32)
    return p


def predict_fpga_batch(
    model: ScmModel, bits: BitMatrix, saturated: np.ndarray | None = None
) -> np.ndarray:
    """Emulated prediction over a batch of encoded rows; (N, m) int32 raw values.

    Row for row equal to the scalar oracle. Each layer's weight words, limits,
    readout sum and packing product are made once per call. Per block of
    BLOCK_ROWS rows: the unsaturated mechanism sum (zeros for "none"), then per
    layer the popcount compare (_layer_bits), whose bits select each node's
    readout or clear-bit value (0 for SIGN, its two's complement for STEP) and
    are packed as the next layer's input. The sum saturates once, at the end.

    If `saturated`, an (m,) integer array, is given, the number of rows whose
    output was clamped is added to it per output.
    """
    if bits.n != model.d_enc:
        raise ValueError(f"input width {bits.n} != model width {model.d_enc}")
    mech = mech_wide_fpga(model.mechanism) if model.mechanism.n_values else None  # None: "none"
    plans, pm1, word = [], True, WORD
    for i, layer in enumerate(model.layers, 1):
        step = layer.activation == Activation.STEP  # a clear bit adds -beta, else 0
        off = fx.fx_neg_array(layer.beta_raw) if step else np.zeros_like(layer.beta_raw)
        plans.append((_layer_bits(layer, pm1, word), fx.conditional_sum(layer.beta_raw, off),
                      _packer(len(layer)) if i < len(model.layers) else None))
        pm1, word = step, HALF

    out = np.empty((len(bits), model.n_outputs), dtype=np.int32)
    for start in range(0, len(bits), BLOCK_ROWS):
        x = bits[start : start + BLOCK_ROWS]
        acc = mech(x.to01().T) if mech else np.zeros((len(x), model.n_outputs), np.int64)
        xt = x.words.T.copy()  # (W, B): each word runs along the block
        for fired, readout, packer in plans:
            f = fired(xt).astype(np.float64)
            acc += readout(f)
            if packer is not None:
                xt = (packer @ f).astype(HALF)
            del f  # else it lives on into the next layer's or block's popcounts
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
    scale code per node; its 32-bit raw biases and mechanism values (none for
    "none"), which the datapath also reads, are counted apart from reductions.
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
        mechanism_fpga_bits=FX_VALUE_BITS * model.mechanism.n_values,
        input_reduction=reduction(inputs_real, d_enc),
        weight_reduction=reduction(weight_real, weight_fpga),
        beta_reduction=reduction(REAL_VALUE_BITS * n_beta, FX_VALUE_BITS * n_beta),
        cycles=cycle_estimate(model),
        clock_hz=clock_hz,
    )
