"""Models for the tests, built from plain arrays through ScmLayer.from_arrays, and
the emulator's layer bits."""

import numpy as np

from scmfpga import emulate
from scmfpga import fixedpoint as fx
from scmfpga.bits import HALF, WORD, BitMatrix
from scmfpga.encoding import parse_encoding
from scmfpga.mechanism import external_mechanism
from scmfpga.model import Activation, ScmLayer, ScmModel


def layer(act, w01, shift=0, bias_raw=0, beta=(0.0,)) -> ScmLayer:
    """A layer of K nodes from (K, fan_in) 0/1 weight rows (1 is +1).

    shift (scale codes) and bias_raw (raw Q7.25 biases) are one value per
    node or one for all; beta is (K, m) float readouts or one (m,) row for
    all, which the layer rounds to its raw readouts.
    """
    w01 = np.asarray(w01, dtype=np.uint8)
    k = len(w01)
    beta = np.broadcast_to(np.asarray(beta, dtype=np.float64), (k, np.shape(beta)[-1])).copy()
    return ScmLayer.from_arrays(
        act, BitMatrix.from01(w01), np.broadcast_to(shift, k).astype(np.uint8),
        np.broadcast_to(bias_raw, k).astype(np.int32), beta,
    )


def random_model(seed, d_enc, layers, m=1) -> ScmModel:
    """A validated model on density:d_enc inputs with a random external
    mechanism and one random layer per (size, activation) pair in layers:
    random weight bits and scale codes, biases on the Q7.25 grid in (-2, 2)
    and normal readouts."""
    rng = np.random.default_rng(seed)
    mech = external_mechanism(rng.normal(scale=0.2, size=(d_enc, m)), rng.normal(size=m))
    built, fan_in = [], d_enc
    for size, act in layers:
        built.append(layer(
            act, rng.integers(0, 2, size=(size, fan_in)), rng.integers(0, 8, size=size),
            fx.quantize_array(rng.uniform(-2, 2, size=size))[0],
            rng.normal(scale=0.4, size=(size, m)),
        ))
        fan_in = size
    return ScmModel(parse_encoding(f"density:{d_enc}"), mech, built, m)


def emulated_layer_bits(model: ScmModel, x: BitMatrix) -> list[np.ndarray]:
    """Each layer's (K, B) emulated threshold bits on the rows x, from
    emulate._layer_bits: the encoded rows go in word-major as uint64 words,
    and each layer's bits, packed by BitMatrix.from01, as uint32 halves."""
    xt, word, pm1, out = x.words.T, WORD, True, []
    for lay in model.layers:
        out.append(emulate._layer_bits(lay, pm1, word)(xt))
        xt, word = BitMatrix.from01(out[-1].T).words.view(HALF).T, HALF
        pm1 = lay.activation == Activation.STEP
    return out
