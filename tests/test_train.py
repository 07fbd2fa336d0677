import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scmfpga.mechanism
from scmfpga import fixedpoint as fx
from scmfpga.bits import BitVec
from scmfpga.datasets import gen_db2, split
from scmfpga.encoding import encode_matrix, parse_encoding
from scmfpga.errors import TrainingFailedError
from scmfpga.evaluate import evaluate_bits
from scmfpga.linalg import lasso_fit
from scmfpga.mechanism import external_mechanism, signals_pm1
from scmfpga.model import (
    Activation,
    InDomain,
    ScmLayer,
    ScmModel,
    ScmNode,
    node_output_float,
    predict_float,
    predict_float_batch,
    quantization_bound,
)
from scmfpga.modelfile import model_to_bytes
from scmfpga.train import (
    DEFAULT_LAMBDA_POOL,
    TrainConfig,
    TrainData,
    TrainState,
    add_node,
    early_stop_check,
    prepare_train_data,
    threshold_bits,
    train,
    xi_score,
)


def _toy_data(seed=0, n_train=80, n_val=20, spec="density:6", noise=0.05):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n_train + n_val, 1))
    y = np.sin(2 * np.pi * x) * 0.3 + 0.5 + rng.normal(scale=noise, size=x.shape)
    enc = parse_encoding(spec)
    return prepare_train_data(x[:n_train], y[:n_train], x[n_train:], y[n_train:], enc)


# -- xi score ------------------------------------------------------------


def test_xi_collinear():
    e = np.array([0.5, -1.0, 2.0])
    for r in (0.5, 0.9, 0.99):
        got = xi_score(e, e, r)
        assert got == pytest.approx(r * float(e @ e))
        assert got > 0


def test_xi_orthogonal_negative():
    e = np.array([1.0, 0.0])
    h = np.array([0.0, 1.0])
    assert xi_score(e, h, 0.9) < 0


def test_xi_hand_example():
    assert xi_score(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 0.9) == pytest.approx(0.5)


def test_xi_zero_h_rejected():
    assert xi_score(np.array([1.0, 2.0]), np.zeros(2), 0.9) is None


# -- early stopping -------------------------------------------------------


def test_early_stop_improving_continues():
    hist = [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert early_stop_check(hist, l_step=2, tau=0.01) is None


def test_early_stop_flat_rolls_back_to_first():
    hist = [0.4, 0.4, 0.4, 0.4]
    for tau in (0.0, 0.01, 0.5):
        assert early_stop_check(hist, l_step=2, tau=tau) == 3


def test_early_stop_computed_case():
    hist = [1.0, 0.9, 0.89, 0.889]
    # window improvement (0.9 - 0.889) / 0.889 ~= 0.0124 <= 0.05 -> stop,
    # then roll back two nodes (the first step improved by 11%)
    assert early_stop_check(hist, l_step=2, tau=0.05) == 2


def test_early_stop_needs_enough_history():
    assert early_stop_check([1.0, 0.9], l_step=2, tau=0.5) is None


def test_early_stop_can_remove_zero():
    hist = [0.9, 0.85, 1.0, 0.8]
    # window (0.9-0.8)/0.8 = 0.125 <= 0.2 but the last step improved by 25%
    assert early_stop_check(hist, l_step=3, tau=0.2) == 0


# -- node output (float path) --------------------------------------------


def _node(w_pm1, shift=0, bias=0.0, m=1):
    return ScmNode(
        w=BitVec.from_pm1(w_pm1),
        shift=shift,
        bias=bias,
        bias_raw=fx.fx_from_real(bias),
        beta=np.zeros(m),
        beta_raw=np.zeros(m, dtype=np.int32),
    )


def test_node_output_all_ones():
    node = _node([1, 1, 1, 1])
    bit, h = node_output_float(BitVec.from_pm1([1, 1, 1, 1]), node, Activation.STEP)
    assert bit == 1 and h == 1.0


def test_node_output_strict_threshold():
    node = _node([1, 1])  # s=(+1,-1) -> dot 0, bias 0 -> pre exactly 0
    bit, h = node_output_float(BitVec.from_pm1([1, -1]), node, Activation.STEP)
    assert bit == 0 and h == -1.0
    bit, h = node_output_float(BitVec.from_pm1([1, -1]), node, Activation.SIGN)
    assert bit == 0 and h == 0.0


def test_node_output_domains():
    node = _node([-1, 1, -1, 1])
    # {0,1} inputs use the conditional-count dot: (1,0,1,1) -> -1
    bit, h = node_output_float(
        BitVec.from01([1, 0, 1, 1]), node, Activation.SIGN, InDomain.ZO1
    )
    assert bit == 0 and h == 0.0
    # +-1 inputs use the XNOR dot
    bit, _ = node_output_float(
        BitVec.from_pm1([-1, 1, 1, -1]), _node([-1, 1, -1, -1]), Activation.STEP
    )
    assert bit == 1  # dot = 2, lambda 1, bias 0


def test_node_output_scaling_and_bias():
    node = _node([1, 1, 1, 1], shift=3, bias=-17.0)
    # dot=2 -> 2*8=16, bias -17 -> pre -1 -> bit 0
    bit, _ = node_output_float(BitVec.from_pm1([1, 1, 1, -1]), node, Activation.STEP)
    assert bit == 0


def test_node_output_length_check():
    with pytest.raises(ValueError):
        node_output_float(BitVec(3), _node([1, 1]), Activation.STEP)


# -- add_node -------------------------------------------------------------


def test_add_node_zero_residual_rejects_everything():
    data = _toy_data()
    # constant targets: the mechanism absorbs them exactly, E = 0
    data.y_train[:] = 0.25
    data.y_val[:] = 0.25
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=50, seed=0)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    assert np.allclose(state.resid_train, 0.0)
    rng = np.random.default_rng(0)
    assert add_node(state, 0, cfg, rng) is None


def test_add_node_accepts_only_positive_xi_and_residual_drops():
    data = _toy_data(seed=1)
    cfg = TrainConfig.single_layer(8, Activation.STEP, t_max=100, seed=1)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    rng = np.random.default_rng(1)
    prev = np.linalg.norm(state.resid_train)
    for _ in range(8):
        res = add_node(state, 0, cfg, rng)
        if res is None:
            break
        assert res.xi_min > 0
        # recompute the score from the stored state to cross-check the log
        cur = np.linalg.norm(state.resid_train)
        assert cur <= prev + 1e-10
        prev = cur
    assert len(state.layer_nodes[0]) >= 1


def test_add_node_xi_recheck_from_parameters():
    data = _toy_data(seed=2)
    cfg = TrainConfig.single_layer(1, Activation.STEP, t_max=200, seed=2)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    e_before = state.resid_train.copy()
    rng = np.random.default_rng(2)
    res = add_node(state, 0, cfg, rng)
    node = res.node
    s = state.s1_train
    pre = (s @ node.w.to_pm1().astype(np.float64)) * node.lam + node.bias
    h = (pre > 0).astype(np.float64) * 2 - 1
    for q in range(state.m):
        assert xi_score(e_before[:, q], h, res.r) > 0


def _two_output_data(seed, n_train=120, n_val=30, spec="s2v1"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n_train + n_val, 1))
    y = np.column_stack([np.sin(2 * np.pi * x[:, 0]), np.cos(3 * x[:, 0])]) * 0.3 + 0.5
    y += rng.normal(scale=0.02, size=y.shape)
    enc = parse_encoding(spec)
    return prepare_train_data(x[:n_train], y[:n_train], x[n_train:], y[n_train:], enc)


@pytest.mark.parametrize(
    "acts", [(Activation.STEP, Activation.SIGN), (Activation.SIGN, Activation.STEP)]
)
def test_add_node_scores_match_the_scalar_oracle(acts):
    # both activations, fed by +-1 inputs (layer 1) and by the previous
    # layer's {0,1} or {-1,+1} values (layer 2), with two outputs
    data = _two_output_data(seed=4)
    cfg = TrainConfig((4, 2), acts, t_max=200, seed=4, tau=-1.0)
    state = TrainState(data, cfg)
    rng = np.random.default_rng(4)
    for k, (size, act) in enumerate(zip(cfg.layer_sizes, acts)):
        if k:
            state.end_layer()
        state.begin_layer(act)
        for _ in range(size):
            e_before = state.resid_train.copy()
            s = state.cur_in_train
            res = add_node(state, k, cfg, rng)
            assert res is not None
            node = res.node
            pre = (s @ node.w.to_pm1().astype(np.float64)) * node.lam + node.bias
            h = (pre > 0).astype(np.float64)
            if act == Activation.STEP:
                h = h * 2 - 1
            assert np.array_equal(state.h_train[-1], h)
            xi = [xi_score(e_before[:, q], h, res.r) for q in range(state.m)]
            assert res.xi_sum == pytest.approx(sum(xi), rel=1e-12)
            assert res.xi_min == pytest.approx(min(xi), rel=1e-12)


_SATURATED_BIAS = 128.0 - 2.0**-25


@given(
    seed=st.integers(0, 2**32 - 1),
    fan_in=st.integers(1, 600),
    rows=st.integers(1, 12),
    zero_one=st.booleans(),
)
def test_threshold_bits_equal_the_float64_pre_activation(seed, fan_in, rows, zero_one):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=(rows, fan_in)).astype(np.float64)
    if not zero_one:
        s = s * 2.0 - 1.0
    # every lambda, each with seven biases: +lambda, -lambda, +-saturated, 0,
    # a random Q7.25 draw, and one that puts row 0 exactly on the threshold
    pool = np.array(DEFAULT_LAMBDA_POOL, dtype=np.float64)
    kinds = 7
    lam = np.repeat(pool, kinds)
    w = rng.choice([-1.0, 1.0], size=(lam.size, fan_in))
    b = np.empty(lam.size)
    b[0::kinds] = pool
    b[1::kinds] = -pool
    b[2::kinds] = _SATURATED_BIAS
    b[3::kinds] = -_SATURATED_BIAS
    b[4::kinds] = 0.0
    b[5::kinds] = fx.dequantize_array(fx.quantize_array(rng.uniform(-pool, pool))[0])
    b[6::kinds] = -(w[6::kinds] @ s[0]) * pool
    pre = (s @ w.T) * lam + b
    assert np.all(pre[0, 6::kinds] == 0.0)

    dot = np.empty((rows, lam.size), dtype=np.float32)
    bit = np.empty((rows, lam.size), dtype=bool)
    got = threshold_bits(
        s.astype(np.float32), w.astype(np.float32), lam, b, dot, bit
    )
    assert got is bit
    assert np.array_equal(bit, pre > 0)


# -- full training ---------------------------------------------------------


def test_train_mechanism_only():
    data = _toy_data()
    cfg = TrainConfig.single_layer(0, seed=0)
    result = train(data, cfg)
    model = result.model
    assert model.layer_sizes == ()
    bits = data.bits_val
    out = predict_float_batch(model, bits)
    s = signals_pm1(bits)
    expected = s @ model.mechanism.weights + model.mechanism.intercepts
    assert np.allclose(out, expected, atol=1e-12)


def test_train_zero_residual_fails():
    data = _toy_data()
    data.y_train[:] = 0.25
    data.y_val[:] = 0.25
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=20, seed=0)
    with pytest.raises(TrainingFailedError):
        train(data, cfg)


def test_train_planted_node_recovered():
    rng = np.random.default_rng(42)
    x = rng.uniform(size=(120, 1))
    enc = parse_encoding("density:4")
    bits, _ = encode_matrix(x, enc)
    s = signals_pm1(bits)
    w = np.array([1, -1, 1, 1], dtype=np.float64)
    h = ((s @ w + 0.3) > 0).astype(np.float64) * 2 - 1
    y = (0.7 * h)[:, None]
    data = TrainData(bits[:100], y[:100], bits[100:], y[100:], enc, 1)
    cfg = TrainConfig.single_layer(
        1, Activation.STEP, t_max=2000, lambda_pool=(1,), use_mechanism=False, seed=3
    )
    result = train(data, cfg)
    assert result.records[-1].train_rmse < 1e-9
    assert result.records[-1].val_rmse < 1e-9


def test_train_residual_monotone():
    data = _toy_data(seed=5)
    cfg = TrainConfig.single_layer(10, Activation.STEP, t_max=100, seed=5, tau=-1.0)
    result = train(data, cfg)
    rmses = [r.train_rmse for r in result.records]
    for a, b in zip(rmses, rmses[1:]):
        assert b <= a + 1e-10


def test_train_rollback_path():
    data = _toy_data(seed=6)
    cfg = TrainConfig.single_layer(10, Activation.STEP, t_max=100, seed=6, l_step=2, tau=1e9)
    result = train(data, cfg)
    assert any(ev["event"] == "early_stop" for ev in result.events)
    # an absurd tolerance rolls the layer back to a single node
    assert result.model.layer_sizes == (1,)


def test_train_deep_model_and_log():
    # a 16-bit encoding gives layer 2 a rich enough input space to fill
    data = _toy_data(seed=7, n_train=150, n_val=40, spec="s2v1", noise=0.02)
    cfg = TrainConfig(
        layer_sizes=(10, 4),
        activations=(Activation.STEP, Activation.SIGN),
        t_max=300,
        seed=7,
        tau=-1.0,
    )
    result = train(data, cfg)
    assert result.model.layer_sizes == (10, 4)
    assert result.model.layers[0].fan_in == data.encoding.bits_per_input
    assert result.model.layers[1].fan_in == 10
    lines = result.log_text().splitlines()
    node_lines = [ln for ln in lines if ln.startswith("layer=")]
    assert len(node_lines) == 14
    assert node_lines[0].startswith("layer=1 node=1 r=")
    assert "val_rmse=" in node_lines[0]
    assert "r_attempts=" in node_lines[0]
    assert [ln.split()[0] for ln in node_lines[-4:]] == ["layer=2"] * 4
    # no early stop here, so the only events are the L1 fit and the saturation counts
    event_lines = [ln for ln in lines if not ln.startswith("layer=")]
    assert [ln.split()[0] for ln in event_lines] == ["event=l1_fit", "event=saturation"]
    assert "converged=True" in event_lines[0]
    for rec in result.records:
        assert cfg.r_schedule[rec.r_attempts - 1] == rec.r
        assert rec.drawn == rec.r_attempts * cfg.t_max
        assert 1 <= rec.passed <= cfg.t_max


def test_train_reports_an_l1_fit_at_its_sweep_cap(monkeypatch):
    data = _toy_data(seed=10, spec="s2v1")

    def capped(x, y, alpha):
        return lasso_fit(x, y, alpha, max_sweeps=1)

    monkeypatch.setattr(scmfpga.mechanism, "lasso_fit", capped)
    cfg = TrainConfig.single_layer(0, seed=10)
    with pytest.warns(UserWarning, match="sweep cap"):
        result = train(data, cfg)
    (fit,) = [ev for ev in result.events if ev["event"] == "l1_fit"]
    assert fit["sweeps"] == 1 and fit["converged"] is False
    assert "event=l1_fit sweeps=1 converged=False" in result.log_text()


def test_train_counts_saturated_bias_draws():
    data = _toy_data(seed=11)
    for pool, clamps in [((1, 2, 4), False), ((128,), True)]:
        cfg = TrainConfig.single_layer(2, Activation.STEP, t_max=50, lambda_pool=pool, seed=11)
        ev = train(data, cfg).events[-1]
        assert ev["event"] == "saturation"
        assert (ev["bias_draws"] > 0) == clamps
        assert ev["targets_outside"] == ev["mechanism"] == ev["readouts"] == 0


def test_finalize_counts_saturated_readouts():
    data = _toy_data(seed=12)
    cfg = TrainConfig.single_layer(2, Activation.STEP, t_max=50, seed=12)
    state = TrainState(data, cfg)
    state.begin_layer(Activation.STEP)
    assert add_node(state, 0, cfg, np.random.default_rng(12)) is not None
    state.beta[:] = 100.0
    model, saturated = state.finalize(data.encoding)
    assert saturated == state.m
    assert model.layers[0].nodes[0].beta_raw[0] == fx.RAW_MAX


def test_raw_targets_outside_q725_are_reported():
    # db2 with raw Rastrigin targets: y reaches ~80, beyond the Q7.25 range
    ds = split(gen_db2(seed=5, scale=0.02, normalize_targets=False), 0.2, seed=5)
    assert ds.y.max() > 64.0
    spec = parse_encoding("s1:3")
    data = prepare_train_data(
        ds.x_norm(ds.train_idx), ds.y[ds.train_idx],
        ds.x_norm(ds.val_idx), ds.y[ds.val_idx], spec,
    )
    cfg = TrainConfig.single_layer(3, Activation.STEP, t_max=100, seed=5)
    with pytest.warns(UserWarning, match=r"training targets .* outside the Q7\.25 range"):
        result = train(data, cfg)
    ev = result.events[-1]
    assert ev["event"] == "saturation"
    assert ev["targets_outside"] == int(np.count_nonzero(data.y_train >= 64.0)) > 0
    # the emulated outputs on those rows clamp, and evaluation counts them
    rep = evaluate_bits(result.model, data.bits_train, data.y_train, "both")
    assert rep.saturated.sum() > 0


def test_train_determinism():
    data = _toy_data(seed=8)
    cfg = TrainConfig.single_layer(6, Activation.STEP, t_max=50, seed=8)
    m1 = train(data, cfg).model
    m2 = train(data, cfg).model
    assert model_to_bytes(m1) == model_to_bytes(m2)


def test_train_quantization_delta_bound():
    data = _toy_data(seed=9)
    cfg = TrainConfig.single_layer(8, Activation.STEP, t_max=100, seed=9)
    model = train(data, cfg).model
    from scmfpga.emulate import predict_fpga

    bound = quantization_bound(model)
    rng = np.random.default_rng(0)
    width = model.d_enc
    for _ in range(200):
        b = BitVec.from01(rng.integers(0, 2, size=width))
        f = predict_float(model, b)
        g = fx.dequantize_array(predict_fpga(model, b))
        assert np.max(np.abs(f - g)) <= bound


# -- reference prediction --------------------------------------------------


def _tiny_model(seed=0, layers=((3, Activation.STEP), (2, Activation.SIGN)), m=1, d_enc=6):
    rng = np.random.default_rng(seed)
    mech = external_mechanism(rng.normal(scale=0.1, size=(d_enc, m)), rng.normal(size=m))
    built = []
    fan_in = d_enc
    for n, act in layers:
        nodes = []
        for _ in range(n):
            beta = rng.normal(scale=0.5, size=m)
            nodes.append(
                ScmNode(
                    w=BitVec.from01(rng.integers(0, 2, size=fan_in)),
                    shift=int(rng.integers(0, 4)),
                    bias=fx.fx_to_real(fx.fx_from_real(rng.uniform(-2, 2))),
                    bias_raw=fx.fx_from_real(rng.uniform(-2, 2)),
                    beta=beta,
                    beta_raw=fx.quantize_array(beta)[0],
                )
            )
        built.append(ScmLayer(act, nodes))
        fan_in = n
    model = ScmModel(parse_encoding("density:6"), mech, built, m)
    model.validate()
    return model


def _straight_line_eval(model, x_bits):
    """Independent scalar evaluator following the model definition."""
    out = x_bits.to_pm1().astype(float) @ model.mechanism.weights + model.mechanism.intercepts
    signal = x_bits.to_pm1().astype(float)
    for layer in model.layers:
        next_signal = []
        for node in layer.nodes:
            pre = node.lam * float(node.w.to_pm1().astype(float) @ signal) + node.bias
            bit = 1 if pre > 0 else 0
            if layer.activation == Activation.SIGN:
                h = float(bit)
            else:
                h = 1.0 if bit else -1.0
            out = out + node.beta * h
            next_signal.append(h)
        signal = np.array(next_signal)
    return out


def test_predict_float_matches_straight_line_oracle():
    model = _tiny_model()
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = BitVec.from01(rng.integers(0, 2, size=model.d_enc))
        assert np.max(np.abs(predict_float(model, b) - _straight_line_eval(model, b))) < 1e-12


def test_predict_float_single_node_adds_beta():
    mech = external_mechanism(np.zeros((2, 1)), np.array([0.25]))
    node = ScmNode(
        w=BitVec.from_pm1([1, 1]),
        shift=0,
        bias=0.5,
        bias_raw=fx.fx_from_real(0.5),
        beta=np.array([1.0]),
        beta_raw=fx.quantize_array(np.array([1.0]))[0],
    )
    model = ScmModel(
        parse_encoding("density:2"), mech, [ScmLayer(Activation.STEP, [node])], 1
    )
    out = predict_float(model, BitVec.from_pm1([1, 1]))  # pre = 2.5 > 0 -> h = 1
    assert np.allclose(out, [1.25])


def test_predict_width_check():
    model = _tiny_model()
    with pytest.raises(ValueError):
        predict_float(model, BitVec(4))


# -- config validation ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig((5,), (Activation.STEP,), r_schedule=(0.9, 0.5))
    with pytest.raises(ValueError):
        TrainConfig((5,), (Activation.STEP,), r_schedule=(0.9, 1.5))
    with pytest.raises(ValueError):
        TrainConfig((5,), (Activation.STEP,), lambda_pool=(3,))
    with pytest.raises(ValueError):
        TrainConfig((5, 0, 5), (Activation.STEP,) * 3)
    with pytest.raises(ValueError):
        TrainConfig((5,), ())
    cfg = TrainConfig.single_layer(0)
    assert not cfg.grows_nodes
