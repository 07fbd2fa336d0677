"""End-to-end properties: train random small configurations, and drive the
CLI's numeric options with hostile values.

The first property checks the system's four promises on what training
produces: the same seed gives the same bytes, the training residual does not
rise within a layer, the reference and emulated paths give the same
activation bits, and the output gap stays within quantization_bound where no
output saturated. The second checks that every numeric option of the CLI
ends in an exit code and one error line, never in a traceback.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scmfpga.linalg
from scmfpga import cli
from scmfpga import fixedpoint as fx
from scmfpga.datasets import load_dataset
from scmfpga.encoding import parse_encoding
from scmfpga.errors import TrainingFailedError
from scmfpga.evaluate import evaluate_bits
from scmfpga.mechanism import signals_pm1
from scmfpga.model import Activation, layer_forward_float, quantization_bound, threshold_edge
from scmfpga.modelfile import load_model, model_from_bytes, model_to_bytes
from scmfpga.train import TrainConfig, prepare_train_data, train

from builders import emulated_layer_bits

ENCODINGS = st.one_of(
    st.integers(2, 70).map(lambda w: f"density:{w}"),  # 70 bits of one feature pass 64
    st.integers(1, 4).map(lambda u: f"s1:{u}"),
    st.sampled_from(["s2v1", "s2v2"]),
)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(8, 200),
    val_share=st.sampled_from([0.1, 0.25, 0.5]),
    features=st.integers(1, 3),
    outputs=st.integers(1, 2),
    spec=ENCODINGS,
    layers=st.lists(st.tuples(st.integers(1, 8), st.sampled_from(list(Activation))),
                    min_size=1, max_size=3),
    t_max=st.integers(5, 30),
    l_step=st.integers(1, 20),
    use_mechanism=st.booleans(),
    scale=st.sampled_from([1.0, 16.0, 63.0, 70.0]),  # 70 saturates Q7.25 outputs
)
def test_trained_models_keep_the_four_promises(seed, rows, val_share, features, outputs, spec,
                                               layers, t_max, l_step, use_mechanism, scale):
    # with fewer training rows than encoded bits the L1 fit can take thousands
    # of sweeps; no promise depends on its converging, so a low cap keeps
    # each case fast
    with mock.patch.object(scmfpga.linalg, "LASSO_MAX_SWEEPS", 200):
        _check_the_promises(seed, rows, val_share, features, outputs, spec, layers, t_max,
                            l_step, use_mechanism, scale)


def test_a_clamped_readout_makes_the_bound_not_apply():
    # targets near 64 give a readout of about 70, which quantizes to RAW_MAX:
    # no output saturates, but the emulated outputs lie 6.3 from the reference
    result, rep = _check_the_promises(0, 8, 0.1, 1, 2, "density:3",
                                      [(1, Activation.SIGN), (1, Activation.STEP)], 5, 1,
                                      False, 63.0)
    assert result.events[-1]["readouts"] == rep.clamped == 1
    assert not rep.saturated.any() and not rep.bound_applies
    assert rep.max_output_delta > 6.0


def _check_the_promises(seed, rows, val_share, features, outputs, spec, layers, t_max, l_step,
                        use_mechanism, scale):
    """Train one case and check the promises; the first result and the
    validation rows' EvalReport, or None when no first node passes."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(rows, features))
    phase = rng.uniform(0, 2 * np.pi, size=outputs)
    y = scale * np.sin(3 * x.sum(axis=1, keepdims=True) + phase)
    n = rows - max(1, int(rows * val_share))
    data = prepare_train_data(x[:n], y[:n], x[n:], y[n:], parse_encoding(spec))
    sizes, acts = zip(*layers)
    cfg = TrainConfig(sizes, acts, t_max=t_max, l_step=l_step, use_mechanism=use_mechanism,
                      seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # targets outside Q7.25, the L1 sweep cap
        try:
            first = train(data, cfg)
        except TrainingFailedError:  # no candidate passes for the first node
            return None
        second = train(data, cfg)

    # the same seed gives the same model file and log
    blob = model_to_bytes(first.model)
    assert model_to_bytes(second.model) == blob
    assert second.log_text() == first.log_text()
    # the bytes read back as the same model
    model = model_from_bytes(blob)
    assert model_to_bytes(model) == blob
    # each refit leaves the training residual no larger within a layer
    for a, b in zip(first.records, first.records[1:]):
        if a.layer == b.layer:
            assert b.train_rmse <= a.train_rmse + 1e-12
    # both paths give the same activation bits, layer by layer, on the
    # validation rows
    s = signals_pm1(data.bits[n:]).astype(np.float32)
    for layer, fired in zip(model.layers, emulated_layer_bits(model, data.bits[n:])):
        s = layer_forward_float(layer)(s)
        assert np.array_equal(s.T > 0, fired)
    # the output gap is bounded wherever no emulated output saturated
    rep = evaluate_bits(model, data.bits[n:], data.y[n:], "both")
    if rep.bound_applies:
        assert rep.max_output_delta <= quantization_bound(model)
    return first, rep


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(8, 120),
    features=st.integers(1, 3),
    outputs=st.integers(1, 2),
    spec=ENCODINGS,
    layers=st.lists(st.tuples(st.integers(1, 6), st.sampled_from(list(Activation))),
                    min_size=1, max_size=3),
    t_max=st.integers(1, 20),
    use_mechanism=st.booleans(),
)
# lambda 128 nodes whose biases clamped to RAW_MAX (layer 1) and RAW_MIN (layer 2)
@example(seed=19, rows=60, features=2, outputs=1, spec="s1:2",
         layers=[(4, Activation.STEP), (3, Activation.SIGN)], t_max=8, use_mechanism=False)
def test_trained_nodes_have_threshold_edge_minus_1_or_0(seed, rows, features, outputs, spec,
                                                        layers, t_max, use_mechanism):
    """A bias drawn on [-lambda, lambda] puts -bias / lambda in [-1, 1], so a
    node fires on dot >= 0 (edge -1, bias > 0) or on dot > 0 (edge 0), whatever
    its scale code; at lambda 128 a bias clamped to the Q7.25 range keeps its
    sign. Edge 1 needs a bias that rounds to exactly -lambda."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(rows, features))
    y = np.sin(3 * x.sum(axis=1, keepdims=True) + rng.uniform(0, 2 * np.pi, size=outputs))
    n = rows - max(1, rows // 4)
    data = prepare_train_data(x[:n], y[:n], x[n:], y[n:], parse_encoding(spec))
    sizes, acts = zip(*layers)
    cfg = TrainConfig(sizes, acts, t_max=t_max, use_mechanism=use_mechanism, seed=seed)
    with mock.patch.object(scmfpga.linalg, "LASSO_MAX_SWEEPS", 200), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the L1 sweep cap
        try:
            model = train(data, cfg).model
        except TrainingFailedError:  # no candidate passes for the first node
            return
    for layer in model.layers:
        bias = layer.bias_raw.astype(np.int64)
        lam = np.int64(1 << fx.FRAC_BITS) << layer.shift
        assert (np.abs(bias) <= lam).all()
        edge = threshold_edge(layer.shift, layer.bias_raw)
        assert np.array_equal(edge, np.where(bias > 0, -1, 0) + (bias == -lam))


# a value each numeric option must survive; BIG is a large value that is
# still cheap to run with (at most 2000 candidates and 50 nodes)
VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "BIG", "ten"]
NUMERIC_OPTIONS = {
    "train": {"--t-max": "2000", "--nodes": "50", "--l-step": "1000000", "--tau": "1e300",
              "--alpha": "1e300", "--seed": str(2**64), "--val-fraction": "0.999",
              "--r-schedule": "0.999999"},
    "gen-data": {"--seed": str(2**64), "--scale": "1.0"},
    "report": {"--clock": "1e300"},
}
CASES = [(cmd, opt, big) for cmd, opts in NUMERIC_OPTIONS.items() for opt, big in opts.items()]


def _run(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code (argparse's own exit included) and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the value; nothing else exits
            assert exc.code == 2 and "error: argument" in err.getvalue()
            return -2, err.getvalue()
    return code, err.getvalue()


@settings(max_examples=50)
@given(case=st.sampled_from(CASES), value=st.sampled_from(VALUES))
def test_numeric_options_end_cleanly(case, value):
    cmd, opt, big = case
    arg = f"{opt}={big if value == 'BIG' else value}"
    with tempfile.TemporaryDirectory() as tmp:
        data, model, out = (str(Path(tmp, name)) for name in ("d.csv", "m.scm", "o"))
        small = ["--nodes", "3", "--t-max", "50", "--encoding", "s1:2"]
        if cmd == "gen-data":
            argv = ["gen-data", "db2", arg, "--random-test", "--out", out]
        else:
            assert _run(["gen-data", "db1", "--out", data])[0] == 0
            argv = ["train", data, *small, arg, "--out", out]
            if cmd == "report":
                assert _run(["train", data, *small, "--out", model])[0] == 0
                argv = ["report", model, arg]
        code, err = _run(argv)
        if code == 0:
            if cmd == "train":
                load_model(out)
            elif cmd == "gen-data":
                load_dataset(out)
        elif code != -2:
            # a usage error (2), a data or file error (3) or a training
            # failure (4), such as an r schedule too strict for any candidate
            assert code in (2, 3, 4)
            assert len(err.splitlines()) == 1 and "Traceback" not in err
