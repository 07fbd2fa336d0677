"""The pinned workloads: inputs made from a seed, and the two timed steps.

Every workload is driven through the public `scmfpga` API only. A case is
one set of inputs; a workload derives its cases from the run's `--seed`.
Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import scmfpga as s
from scmfpga import fixedpoint as fx

# the cases of a run with seed n take their seeds (for the data, the split
# and the model) from CASE_STRIDE * n onwards, so runs with different seeds
# share no case
CASE_STRIDE = 1000


@dataclass
class Case:
    spec: s.EncodingSpec
    x_eval: np.ndarray  # normalized features of the evaluated rows
    y_eval: np.ndarray
    # training workloads
    cfg: s.TrainConfig | None = None
    x_train: np.ndarray | None = None
    y_train: np.ndarray | None = None
    x_val: np.ndarray | None = None
    y_val: np.ndarray | None = None
    # the read-path workload evaluates a model built without training
    model: s.ScmModel | None = None

    @property
    def rows_encoded(self) -> int:
        """Rows that pass through encode_matrix in one make_model + evaluate."""
        n = self.x_eval.shape[0]
        if self.cfg is not None:
            n += self.x_train.shape[0] + self.x_val.shape[0]
        return n


def _db2_desk_split(seed: int) -> s.Dataset:
    return s.split(s.gen_db2(seed=seed, scale=0.1), 0.2, seed=seed)


def _db2_desk_data(seed: int) -> dict:
    ds = _db2_desk_split(seed)
    return dict(
        x_train=ds.x_norm(ds.train_idx), y_train=ds.y[ds.train_idx],
        x_val=ds.x_norm(ds.val_idx), y_val=ds.y[ds.val_idx],
        x_eval=ds.x_norm(ds.test_idx), y_eval=ds.y[ds.test_idx],
    )


def setup_db2_desk(seed: int) -> Case:
    cfg = s.TrainConfig.single_layer(60, s.Activation.STEP, t_max=500, seed=seed)
    return Case(spec=s.parse_encoding("s1:3"), cfg=cfg, **_db2_desk_data(seed))


def setup_deep_mix(seed: int) -> Case:
    acts = (s.Activation.STEP, s.Activation.SIGN, s.Activation.STEP)
    cfg = s.TrainConfig(
        layer_sizes=(20, 20, 20), activations=acts, use_mechanism=False, seed=seed
    )
    return Case(spec=s.parse_encoding("s1:4"), cfg=cfg, **_db2_desk_data(seed))


def synthetic_model(seed: int, spec: s.EncodingSpec, n_features: int, mean: float) -> s.ScmModel:
    """Random model of the trained shape, built through the public constructors.

    Weights are random bits. Biases are drawn the way the trainer draws them:
    uniform on [-lambda, +lambda] and snapped to Q7.25. The intercept is the
    target mean; mechanism weights and readouts are small (a flipped bit
    still moves an output far beyond quantization_bound), so no output sum
    comes near the Q7.25 range and rmse_fpga stays near the targets' spread.
    """
    rng = np.random.default_rng(seed)
    d_enc = n_features * spec.bits_per_input
    mech = s.external_mechanism(rng.uniform(-1e-3, 1e-3, size=(d_enc, 1)), [mean])
    layers = []
    fan_in = d_enc
    for size, act in [(30, s.Activation.STEP), (30, s.Activation.SIGN), (20, s.Activation.STEP)]:
        nodes = []
        for _ in range(size):
            shift = int(rng.integers(0, 8))
            bias_raw, _ = fx.quantize_array(rng.uniform(-(1 << shift), 1 << shift))
            beta = rng.uniform(-1e-3, 1e-3, size=1)
            beta_raw, _ = fx.quantize_array(beta)
            w = s.BitVec.from01(rng.integers(0, 2, size=fan_in))
            nodes.append(
                s.ScmNode(w, shift, float(fx.dequantize_array(bias_raw)),
                          int(bias_raw), beta, beta_raw)
            )
        layers.append(s.ScmLayer(act, nodes))
        fan_in = size
    model = s.ScmModel(spec, mech, layers, 1)
    model.validate()
    return model


def setup_eval_full(seed: int) -> Case:
    ds = s.gen_db2(seed=seed, scale=0.5)
    spec = s.parse_encoding("s1:4")
    rows = ds.rows("all")
    y = ds.y[rows]
    return Case(
        spec=spec, x_eval=ds.x_norm(rows), y_eval=y,
        model=synthetic_model(seed, spec, ds.n_features, float(np.mean(y))),
    )


def consecutive_seeds(n_cases: int) -> Callable[[int], list[int]]:
    return lambda seed: [CASE_STRIDE * seed + i for i in range(n_cases)]


def _maxima_in_train(seed: int) -> int:
    """Features whose largest value (normalized to 1) lies in the training rows."""
    ds = _db2_desk_split(seed)
    return int(np.count_nonzero(ds.x_norm(ds.train_idx).max(axis=0) >= 1.0))


# A feature's integer bit is set only at its largest value. When that row
# falls into the validation rows (probability 0.2 per feature), the bit's
# column is constant over the training rows and the L1 fit takes about three
# times as long (about 4.5 s against 1.5 s). Every run gets both kinds of
# input in a fixed mix, near their natural shares (0.64 and 0.32): 3 cases
# with both maxima in training and 1 with one. Drawing 8 cases at random
# instead moved train_s by about 20% from seed to seed.
DESK_STRATA = {2: 3, 1: 1}


def desk_seeds(seed: int) -> list[int]:
    """The first seeds from CASE_STRIDE * seed on that fill DESK_STRATA."""
    quota = dict(DESK_STRATA)
    seeds = []
    c = CASE_STRIDE * seed
    while any(quota.values()):
        k = _maxima_in_train(c)
        if quota.get(k, 0):
            quota[k] -= 1
            seeds.append(c)
        c += 1
    return seeds


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Case]
    case_seeds: Callable[[int], list[int]]  # run seed -> one seed per case


WORKLOADS = {
    w.name: w
    for w in [
        Workload("db2-desk", setup_db2_desk, desk_seeds),
        Workload("deep-mix", setup_deep_mix, consecutive_seeds(3)),
        Workload("eval-full", setup_eval_full, consecutive_seeds(1)),
    ]
}


def make_model(case: Case) -> tuple[bytes, s.TrainResult | None]:
    """prepare_train_data + train + model_to_bytes; only the last on eval-full."""
    if case.cfg is None:
        return s.model_to_bytes(case.model), None
    data = s.prepare_train_data(case.x_train, case.y_train, case.x_val, case.y_val, case.spec)
    result = s.train(data, case.cfg)
    return s.model_to_bytes(result.model), result


def evaluate(blob: bytes, x: np.ndarray, y: np.ndarray) -> tuple[s.ScmModel, s.EvalReport]:
    """The read path: model_from_bytes + encode_matrix + evaluate_bits("both")."""
    model = s.model_from_bytes(blob)
    bits, _ = s.encode_matrix(x, model.encoding)
    return model, s.evaluate_bits(model, bits, y, "both")
