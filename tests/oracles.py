"""Scalar test oracles of the package's batch paths, on plain Python ints.

A row of bits is an int whose bit i is bit i of the row: rows() reads them
from a BitMatrix's words. An XNOR is ~(a ^ b) masked to the row width, and a
count is int.bit_count(). The Q7.25 helpers work on raw ints, and _digits
reads one value's decimal digits through Decimal. The oracles keep the
datapath's literal shift, bias and saturation, and import from scmfpga only
Activation and fixedpoint's constants, so they share no kernel with the batch
path and a fault in one cannot hide in the other.
"""

import math
from decimal import Decimal

from scmfpga.fixedpoint import FRAC_BITS, RAW_MAX, RAW_MIN, SCALE
from scmfpga.model import Activation


def rows(bits) -> list[int]:
    """The rows of a BitMatrix as ints."""
    return [int.from_bytes(row.tobytes(), "little") for row in bits.words]


def bit_strings(bits) -> list[str]:
    """The rows of a BitMatrix as '0'/'1' strings, bit 0 first."""
    return [format(row, f"0{bits.n}b")[::-1] for row in rows(bits)]


def _digits(x: float, places: int) -> list[int]:
    """Integer part of x, then its first `places` decimal digits, truncated.

    Digits come from the shortest decimal form of the float, so a value
    entered as 0.867 yields 8, 6, 7 exactly.
    """
    d = Decimal(repr(x))
    ones = int(d)
    frac = int((d - ones).scaleb(places))  # exact: the shift only moves the exponent
    return [ones, *map(int, str(frac).zfill(places))]


def xnor_count(a: int, b: int, n: int) -> int:
    """Dot product of two n-bit {-1,+1} rows: agreeing positions count +1,
    the others -1."""
    return 2 * (~(a ^ b) & ((1 << n) - 1)).bit_count() - n


def ones_count_dot(a01: int, w: int) -> int:
    """Dot product of a literal {0,1} row with a {-1,+1} weight row: a set
    input bit adds +1 where the weight bit is set and -1 where it is clear."""
    return (a01 & w).bit_count() - (a01 & ~w).bit_count()


def fx_from_real(x: float) -> int:
    """Raw Q7.25 value nearest to x (ties to even), clamped to the 32-bit range."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("fixed-point conversion requires a finite value")
    # clamped before rounding (the bounds are integers), so x * SCALE = inf is no error
    return round(min(max(x * SCALE, RAW_MIN), RAW_MAX))  # Python round: half to even


def fx_neg(raw: int) -> int:
    """Two's-complement negation; the minimum raw saturates to the maximum."""
    return RAW_MAX if raw == RAW_MIN else -raw


def saturate_to_fx(acc: int) -> int:
    """Clamp a wide sum (an int at 2**-25 scale) into the 32-bit raw range."""
    return min(max(acc, RAW_MIN), RAW_MAX)


def predict_fpga(model, x: int) -> list[int]:
    """Emulated prediction for one encoded row x; raw Q7.25 per output: the
    oracle of emulate.predict_fpga_batch, wide_sums saturated."""
    return [saturate_to_fx(a) for a in wide_sums(model, x)]


def wide_sums(model, x: int) -> list[int]:
    """The emulated wide sums of one encoded row x, before saturation.

    They start at the raw intercepts and add each raw mechanism weight for a
    set input bit or its fx_neg for a clear one. Then, node by node, the XNOR-
    or AND-count dot is shifted by the scale code and promoted to the 25-bit
    fraction, the raw bias is added, and the strict threshold gives the bit;
    the node adds its raw readout for a set bit, and for a clear one nothing
    (SIGN) or the readout's fx_neg (STEP). predict_fpga saturates them once,
    at the end.
    """
    mech = model.mechanism
    acc = mech.intercepts_raw.tolist()
    for i, weights in enumerate(mech.weights_raw.tolist()):
        acc = [a + (w if x >> i & 1 else fx_neg(w)) for a, w in zip(acc, weights)]
    bits_in, n, pm1 = x, model.d_enc, True
    for layer in model.layers:
        step = layer.activation == Activation.STEP
        next_bits = 0
        for i, (w, beta) in enumerate(zip(rows(layer.w), layer.beta_raw.tolist())):
            dot = xnor_count(bits_in, w, n) if pm1 else ones_count_dot(bits_in, w)
            bit = (dot << int(layer.shift[i]) + FRAC_BITS) + int(layer.bias_raw[i]) > 0
            next_bits |= bit << i
            if bit or step:
                acc = [a + (b if bit else fx_neg(b)) for a, b in zip(acc, beta)]
        bits_in, n, pm1 = next_bits, len(layer), step
    return acc
