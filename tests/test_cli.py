import dataclasses
import json
import struct
import zlib

import pytest

import numpy as np

from scmfpga import cli
from scmfpga import fixedpoint as fx
from scmfpga.datasets import load_dataset, write_dataset
from scmfpga.encoding import parse_encoding
from scmfpga.mechanism import SOURCE_NONE, MechanismModel, external_mechanism
from scmfpga.model import Activation, ScmModel, output_bound, quantization_bound
from scmfpga.modelfile import load_model, save_model
from scmfpga.train import TrainConfig

from builders import layer


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def db1_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("db1")
    data = root / "db1.csv"
    assert run("gen-data", "db1", "--seed", "3", "--out", str(data)) == 0
    model = root / "db1.scm"
    assert (
        run(
            "train", str(data), "--out", str(model),
            "--encoding", "s2v2", "--nodes", "12", "--act", "step",
            "--t-max", "100", "--seed", "3",
            "--log", str(root / "train.log"),
        )
        == 0
    )
    return root, data, model


def test_gen_data_db1_row_count(tmp_path):
    out = tmp_path / "d.csv"
    assert run("gen-data", "db1", "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1301  # header + 1300 rows


def test_gen_data_db2_desk_scale(tmp_path):
    out = tmp_path / "d2.csv"
    assert run("gen-data", "db2", "--seed", "1", "--scale", "0.1", "--out", str(out)) == 0
    manifest = (tmp_path / "d2.manifest").read_text()
    assert "n_train=4000" in manifest
    assert "n_test=4489" in manifest


@pytest.mark.parametrize("scale", ["1e-9", "2.5e-5"])
def test_gen_data_db2_refuses_a_scale_of_fewer_than_two_training_rows(tmp_path, capsys, scale):
    # unchecked, no rows failed inside numpy, and one row wrote nan and inf targets
    out = tmp_path / "d.csv"
    assert run("gen-data", "db2", "--scale", scale, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("training rows; at least 2 are needed")
    # two rows are enough, and load back
    assert run("gen-data", "db2", "--scale", "5e-5", "--out", str(out)) == 0
    assert load_dataset(out).train_idx.size == 2


def test_gen_data_refuses_an_out_path_that_is_its_own_manifest(tmp_path, capsys):
    assert run("gen-data", "db1", "--out", str(tmp_path / "db1.manifest")) == 2
    assert "overwritten by its manifest" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("gen-data", "db1", "--seed", "7", "--out", str(a))
    run("gen-data", "db1", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_train_deterministic_model_bytes(tmp_path, db1_files):
    _, data, _ = db1_files
    m1, m2 = tmp_path / "m1.scm", tmp_path / "m2.scm"
    args = ["--encoding", "s2v2", "--nodes", "5", "--act", "sign",
            "--t-max", "50", "--seed", "11"]
    assert run("train", str(data), "--out", str(m1), *args, "--log", str(tmp_path / "l1")) == 0
    assert run("train", str(data), "--out", str(m2), *args, "--log", str(tmp_path / "l2")) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_train_log_is_key_value(db1_files):
    root, _, _ = db1_files
    lines = (root / "train.log").read_text().splitlines()
    assert lines, "log should not be empty"
    for ln in lines:
        if ln.startswith("layer="):
            fields = dict(kv.split("=", 1) for kv in ln.split())
            assert {"layer", "node", "r", "lambda", "xi_sum", "train_rmse", "val_rmse"} <= set(fields)
            assert float(fields["xi_min"]) > 0
    # every node of this run added rank to the readout
    assert "event=readout dependent_columns=0" in lines


def test_train_mechanism_only(tmp_path, capsys, db1_files):
    _, data, _ = db1_files
    out = tmp_path / "m0.scm"
    assert run("train", str(data), "--out", str(out), "--nodes", "0", "--seed", "1") == 0
    model = load_model(out)
    assert model.layer_sizes == ()
    # with no nodes the two paths differ only by mechanism rounding
    capsys.readouterr()
    assert run("eval", str(out), str(data), "--mode", "both") == 0
    text = capsys.readouterr().out
    delta = float(text.split("max_output_delta=")[1].splitlines()[0])
    assert delta <= (model.d_enc + 1) * 2.0**-25


def test_train_refuses_no_nodes_and_no_mechanism(tmp_path, capsys, monkeypatch, db1_files):
    # unchecked, this saved a model with no layers and a zero mechanism
    _, data, _ = db1_files
    monkeypatch.setattr(cli, "train", _no_training)
    out = tmp_path / "m.scm"
    assert run("train", str(data), "--out", str(out), "--nodes", "0", "--no-mechanism") == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--nodes 0" in err[0] and "--no-mechanism" in err[0]


def test_train_layers_flag(tmp_path, db1_files):
    _, data, _ = db1_files
    out = tmp_path / "deep.scm"
    code = run(
        "train", str(data), "--out", str(out),
        "--encoding", "s2v2", "--layers", "8,4", "--act", "step,step",
        "--t-max", "200", "--seed", "2", "--log", str(tmp_path / "l"),
    )
    assert code == 0
    model = load_model(out)
    assert len(model.layer_sizes) <= 2 and model.layer_sizes[0] == 8


@pytest.mark.parametrize("layers", ["0", "0,0", "4,0"])
def test_train_refuses_a_layer_of_zero_nodes(tmp_path, capsys, monkeypatch, db1_files, layers):
    # a mechanism-only model is --nodes 0
    _, data, _ = db1_files
    monkeypatch.setattr(cli, "train", _no_training)
    out = tmp_path / "m.scm"
    code = run("train", str(data), "--out", str(out), "--layers", layers, "--act", "step")
    assert code == 2 and not out.exists()
    assert ">= 1" in capsys.readouterr().err


@pytest.mark.parametrize("options,message", [
    (("--layers", "4,4", "--act", "sign,step,step"), "2 layers but 3 activations"),
    (("--nodes", "0", "--act", "sign,step"), "0 layers but 2 activations"),
    (("--nodes", "3", "--layers", "3"), "use either --nodes or --layers, not both"),
], ids=["act-count", "act-without-layers", "nodes-and-layers"])
def test_train_refuses_layer_options_that_disagree(tmp_path, capsys, monkeypatch, db1_files,
                                                   options, message):
    _, data, _ = db1_files
    monkeypatch.setattr(cli, "train", _no_training)
    out = tmp_path / "m.scm"
    assert run("train", str(data), "--out", str(out), *options) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"usage error: {message}\n"


def _no_training(*args):
    raise AssertionError("training started")


@pytest.mark.parametrize("option,value", [("--alpha", "nan"), ("--alpha", "inf"),
                                          ("--tau", "nan")])
def test_train_refuses_a_non_finite_alpha_or_tau(tmp_path, capsys, monkeypatch, db1_files,
                                                 option, value):
    # unchecked, alpha nan trains and writes alpha=nan into the model, alpha inf
    # warns from lasso_objective, and tau nan makes early stopping keep one node
    _, data, _ = db1_files
    monkeypatch.setattr(cli, "train", _no_training)
    out = tmp_path / "m.scm"
    code = run("train", str(data), "--out", str(out), "--nodes", "30", "--t-max", "50",
               option, value)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {option[2:]} must be finite")


@pytest.mark.parametrize("field,options", [("n_features", []),
                                           ("n_features", ["--no-mechanism"]),
                                           ("n_targets", [])])
def test_train_refuses_a_manifest_without_feature_or_target_columns(tmp_path, capsys, field,
                                                                    options):
    # unchecked, no features failed in the L1 fit, or saved nodes of fan-in 0
    # without the mechanism, and no targets failed inside numpy
    data = tmp_path / "d.csv"
    data.write_text("a,b\n0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n0.9,1.0\n")
    counts = {"n_features": 2, "n_targets": 2, field: 0}
    data.with_suffix(".manifest").write_text(
        "".join(f"{k}={v}\n" for k, v in counts.items()) + "n_train=5\nn_val=0\nn_test=0\n")
    out = tmp_path / "m.scm"
    assert run("train", str(data), "--out", str(out), "--nodes", "2", *options) == 3
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"bad manifest: {field}=0 is below 1")


def test_train_names_the_l1_fit_when_too_few_rows_are_left_to_train(tmp_path, capsys):
    # three rows at --val-fraction 0.5 leave one training row
    data = tmp_path / "three.csv"
    data.write_text("x,y\n0.1,0.2\n0.5,0.4\n0.9,0.8\n")
    out = tmp_path / "m.scm"
    assert run("train", str(data), "--out", str(out), "--val-fraction", "0.5") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: the L1 mechanism fit needs at least 2 training rows, not 1"]
    assert run("train", str(data), "--out", str(out), "--val-fraction", "0.5",
               "--no-mechanism", "--nodes", "1", "--r-schedule", "0.5") == 0


@pytest.mark.parametrize("flag,bad", [("--out", "missing/file"), ("--log", "missing/file"),
                                      ("--out", "a-directory")])
def test_train_checks_its_output_paths_before_training(tmp_path, capsys, monkeypatch,
                                                       db1_files, flag, bad):
    _, data, _ = db1_files
    monkeypatch.setattr(cli, "train", _no_training)
    (tmp_path / "a-directory").mkdir()
    paths = {"--out": tmp_path / "m.scm", "--log": tmp_path / "log"}
    paths[flag] = tmp_path / bad
    code = run("train", str(data), "--out", str(paths["--out"]), "--log", str(paths["--log"]),
               "--nodes", "2", "--t-max", "20")
    assert code == 3
    assert str(paths[flag]) in capsys.readouterr().err
    # the other file is not created early
    assert not any(p.exists() for f, p in paths.items() if f != flag)


def _inputs(tmp_path, db1_files) -> dict:
    """Copies of the db1 dataset, its manifest and model, and the model's JSON."""
    _, data, model = db1_files
    paths = {"data": tmp_path / "d.csv", "manifest": tmp_path / "d.manifest",
             "model": tmp_path / "m.scm", "json": tmp_path / "m.json"}
    for name, src in [("data", data), ("manifest", data.with_suffix(".manifest")),
                      ("model", model)]:
        paths[name].write_bytes(src.read_bytes())
    assert run("export", str(model), "--out", str(paths["json"])) == 0
    return paths


def _check_refused(tmp_path, capsys, paths, argv):
    """The command argv, with {name} standing for paths[name] and {new} for a new
    file, exits 2 before it writes any file, and leaves the inputs' bytes as they were."""
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert run(*(a.format(new=tmp_path / "new", **paths) for a in argv)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: --")
    assert "is the same file as" in err[0]
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("out,log", [("{data}", "{new}"), ("{manifest}", "{new}"),
                                     ("{new}", "{new}"), ("{new}", "{data}")],
                         ids=["out-data", "out-manifest", "log-out", "log-data"])
def test_train_refuses_an_output_path_that_names_an_input_or_the_other_output(
        tmp_path, capsys, monkeypatch, db1_files, out, log):
    # unchecked, --out m.scm --log m.scm saved the log as the model, and
    # --out d.csv overwrote the dataset
    paths = _inputs(tmp_path, db1_files)
    monkeypatch.setattr(cli, "train", _no_training)
    _check_refused(tmp_path, capsys, paths, ["train", "{data}", "--out", out, "--log", log,
                                             "--nodes", "2", "--t-max", "20"])


@pytest.mark.parametrize("out", ["{model}", "{data}", "{manifest}", "d.csv"],
                         ids=["model", "data", "manifest", "relative-data"])
def test_eval_refuses_an_output_path_that_names_an_input(tmp_path, capsys, monkeypatch,
                                                         db1_files, out):
    paths = _inputs(tmp_path, db1_files)
    monkeypatch.chdir(tmp_path)  # so d.csv names the dataset by a relative path
    _check_refused(tmp_path, capsys, paths, ["eval", "{model}", "{data}", "--out", out])


def test_export_refuses_an_output_path_that_names_its_model(tmp_path, capsys, db1_files):
    paths = _inputs(tmp_path, db1_files)
    _check_refused(tmp_path, capsys, paths, ["export", "{model}", "--out", "{model}"])


def test_import_refuses_an_output_path_that_names_its_json(tmp_path, capsys, db1_files):
    paths = _inputs(tmp_path, db1_files)
    _check_refused(tmp_path, capsys, paths, ["import", "{json}", "--out", "{json}"])


def test_eval_both_modes(capsys, db1_files, tmp_path):
    _, data, model = db1_files
    out_csv = tmp_path / "outputs.csv"
    assert run("eval", str(model), str(data), "--mode", "both", "--out", str(out_csv)) == 0
    text = capsys.readouterr().out
    assert "rmse_pc=" in text and "rmse_fpga=" in text and "rmse_difference=" in text
    header = out_csv.read_text().splitlines()[0].split(",")
    assert header == ["target_0", "pc_0", "fpga_0", "fpga_raw_0"]
    row = out_csv.read_text().splitlines()[1].split(",")
    # the decimal string and the raw integer describe the same value exactly
    assert float(row[2]) == int(row[3]) / 2**25


def test_eval_quantization_close(capsys, db1_files):
    _, data, model = db1_files
    assert run("eval", str(model), str(data), "--mode", "both") == 0
    text = capsys.readouterr().out
    diff = float(text.split("rmse_difference=")[1].splitlines()[0])
    assert diff < 1e-4


def test_eval_loads_the_model_once(monkeypatch, db1_files):
    _, data, model = db1_files
    calls = []
    real = cli.load_model

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_model", counting)
    assert run("eval", str(model), str(data), "--mode", "both") == 0
    assert len(calls) == 1


def test_eval_prints_output_saturation(capsys, db1_files, tmp_path):
    _, data, model = db1_files
    assert run("eval", str(model), str(data), "--mode", "fpga") == 0
    assert "saturated=" not in capsys.readouterr().out
    # two SIGN nodes with readouts at RAW_MAX fire on every row whose one
    # density bit is set (normalized x >= 0.5), so those rows clamp
    nodes = layer(Activation.SIGN, np.ones((2, 1)), beta=(fx.REAL_MAX,))
    sat = ScmModel(parse_encoding("density:1"),
                   external_mechanism(np.zeros((1, 1)), np.zeros(1)), [nodes], 1)
    path = tmp_path / "sat.scm"
    save_model(sat, path)
    assert run("eval", str(path), str(data), "--mode", "fpga") == 0
    ds = load_dataset(data)
    expected = int(np.count_nonzero(ds.x_norm(ds.rows("test"))[:, 0] >= 0.5))
    assert expected > 0
    assert f"saturated={expected}" in capsys.readouterr().out.splitlines()


BOUND_NOTE = "note: outputs or parameters saturated, so quantization_bound does not apply"


def test_eval_says_when_the_bound_does_not_apply(capsys, db1_files, tmp_path):
    _, db1, db1_model = db1_files
    assert run("eval", str(db1_model), str(db1), "--mode", "both") == 0
    assert BOUND_NOTE not in capsys.readouterr().out
    # raw Rastrigin targets reach ~80, beyond the Q7.25 range
    data = tmp_path / "raw.csv"
    assert run(
        "gen-data", "db2", "--raw-targets", "--scale", "0.02", "--seed", "3", "--out", str(data)
    ) == 0
    model = tmp_path / "raw.scm"
    with pytest.warns(UserWarning, match=r"outside the Q7\.25 range"):
        assert run(
            "train", str(data), "--out", str(model), "--encoding", "s1:3",
            "--nodes", "3", "--t-max", "100", "--seed", "3",
        ) == 0
    capsys.readouterr()
    assert run("eval", str(model), str(data), "--rows", "train") == 0
    lines = capsys.readouterr().out.splitlines()
    sat = [i for i, ln in enumerate(lines) if ln.startswith("saturated=")]
    assert len(sat) == 1 and lines[sat[0] + 1] == BOUND_NOTE
    delta = float(next(ln for ln in lines if ln.startswith("max_output_delta=")).split("=")[1])
    assert delta > quantization_bound(load_model(model))


def test_eval_empty_selection_errors(db1_files, tmp_path):
    _, _, model = db1_files
    plain = tmp_path / "plain.csv"
    plain.write_text("x0,y0\n0.5,0.1\n")  # no manifest: everything is a train row
    assert run("eval", str(model), str(plain), "--rows", "test") == 3


def test_eval_rows_select_the_manifests_row_sets(db1_files, tmp_path, capsys):
    # gen-data writes 1000 training rows, 300 test rows and no validation rows;
    # train re-splits the 1000 by --val-fraction, so eval's train is all of them
    _, data, model = db1_files
    out = tmp_path / "o.csv"
    for rows, count in [("train", 1000), ("test", 300), ("all", 1300)]:
        assert run("eval", str(model), str(data), "--rows", rows, "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + count
    capsys.readouterr()
    assert run("eval", str(model), str(data), "--rows", "val") == 3
    assert capsys.readouterr().err == "error: no rows in the 'val' selection\n"


def test_eval_feature_mismatch_errors(db1_files, tmp_path):
    _, _, model = db1_files
    other = tmp_path / "wide.csv"
    other.write_text("a,b,y\n0.1,0.2,0.3\n")
    assert run("eval", str(model), str(other), "--rows", "all") == 3


def test_eval_target_count_mismatch_errors(db1_files, tmp_path, capsys):
    _, data, model = db1_files
    ds = load_dataset(data)
    ds.y = np.column_stack([ds.y, ds.y])
    ds.target_names = ["y0", "y1"]
    two = tmp_path / "two_targets.csv"
    write_dataset(ds, two)
    capsys.readouterr()
    assert run("eval", str(model), str(two)) == 3
    captured = capsys.readouterr()
    assert "1 features and 2 targets, but the model encodes 1 features and has 1 outputs" \
        in captured.err
    assert "rmse_pc" not in captured.out


def test_report_db1_cycles(capsys, tmp_path, db1_files):
    _, data, _ = db1_files
    model = tmp_path / "m60.scm"
    assert run(
        "train", str(data), "--out", str(model),
        "--encoding", "s2v2", "--nodes", "12", "--act", "step",
        "--t-max", "60", "--seed", "5", "--tau", "-1", "--log", str(tmp_path / "l"),
    ) == 0
    assert run("report", str(model)) == 0
    text = capsys.readouterr().out
    assert "cycles per evaluation: 9" in text
    assert "90 ns" in text
    assert "60.9375%" in text  # single-feature 25-bit input reduction
    bound = output_bound(load_model(model))[0]
    assert f"output bound: {bound / 2**25:.9g} (raw {bound})" in text


NO_SATURATION = "note: no input can saturate an output: nothing was clamped, every bound < 2**31"


def test_report_and_eval_say_when_no_input_can_saturate_an_output(capsys, db1_files):
    _, data, model = db1_files
    assert max(output_bound(load_model(model))) < 2**31
    for argv in (["report", str(model)], ["eval", str(model), str(data)]):
        assert run(*argv) == 0
        assert NO_SATURATION in capsys.readouterr().out.splitlines(), argv[0]


# two readouts at the format's maximum: no parameter clamped, but a bound of
# 2 * RAW_MAX; one readout of 70: clamped to RAW_MAX, a bound below 2**31
@pytest.mark.parametrize("nodes, beta", [(2, fx.REAL_MAX), (1, 70.0)], ids=["bound", "clamped"])
def test_report_and_eval_keep_quiet_when_an_output_may_saturate(capsys, db1_files, tmp_path,
                                                                nodes, beta):
    _, data, _ = db1_files
    model = ScmModel(parse_encoding("density:1"),
                     MechanismModel(np.zeros((1, 1)), np.zeros(1), SOURCE_NONE),
                     [layer(Activation.SIGN, np.ones((nodes, 1)), beta=(beta,))], 1)
    assert (max(output_bound(model)) < 2**31) == (nodes == 1)
    assert model.layers[0].saturated == (nodes == 1)
    path = tmp_path / "m.scm"
    save_model(model, path)
    for argv in (["report", str(path)], ["eval", str(path), str(data)]):
        assert run(*argv) == 0
        assert "no input can saturate" not in capsys.readouterr().out, argv[0]


def test_train_without_the_mechanism_saves_none(capsys, db1_files, tmp_path):
    _, data, _ = db1_files
    model, text, copy = tmp_path / "m.scm", tmp_path / "m.json", tmp_path / "copy.scm"
    assert run("train", str(data), "--out", str(model), "--encoding", "s2v2", "--nodes", "4",
               "--t-max", "50", "--seed", "3", "--no-mechanism") == 0
    blob = model.read_bytes()
    assert blob[4 + 2 + 1 + 2 + 2 + 4] == 2  # the source tag follows d_enc
    assert load_model(model).mechanism.source == SOURCE_NONE
    assert run("export", str(model), "--out", str(text)) == 0
    assert json.loads(text.read_text())["mechanism"] == {"source": "none", "d_enc": 25}
    assert run("import", str(text), "--out", str(copy)) == 0
    assert copy.read_bytes() == blob
    capsys.readouterr()
    assert run("report", str(model)) == 0
    assert "mechanism: 0 bits fixed" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("clock", ["0", "-5", "nan", "inf"])
def test_report_refuses_a_clock_that_is_not_positive_and_finite(capsys, db1_files, clock):
    # unchecked, 0 divides by zero and the others print -1.8e+09, nan or 0 ns
    assert run("report", str(db1_files[2]), "--clock", clock) == 2
    assert "is not positive and finite" in capsys.readouterr().err


def test_train_option_defaults_are_the_train_config_defaults():
    args = cli._build_parser().parse_args(["train", "data.csv", "--out", "m.scm"])
    shared = [f for f in dataclasses.fields(TrainConfig) if hasattr(args, f.name)]
    assert len(shared) == 7
    for f in shared:
        assert getattr(args, f.name) == f.default, f.name


def test_export_import_roundtrip(tmp_path, db1_files):
    _, _, model = db1_files
    j = tmp_path / "m.json"
    back = tmp_path / "back.scm"
    assert run("export", str(model), "--out", str(j)) == 0
    doc = json.loads(j.read_text())
    assert doc["format"] == "scmfpga-model"
    assert run("import", str(j), "--out", str(back)) == 0
    assert back.read_bytes() == model.read_bytes()


def test_import_external_mechanism(tmp_path):
    doc = {
        "format": "scmfpga-model",
        "version": 1,
        "encoding": "density:3",
        "n_outputs": 1,
        "mechanism": {
            "source": "external",
            "d_enc": 3,
            "weights": [[0.1], [0.2], [0.3]],
            "intercepts": [0.5],
        },
        "layers": [],
    }
    j = tmp_path / "mech.json"
    j.write_text(json.dumps(doc))
    out = tmp_path / "mech.scm"
    assert run("import", str(j), "--out", str(out)) == 0
    model = load_model(out)
    assert model.mechanism.source == "external"


@pytest.mark.parametrize(
    "node,intercept",
    [
        ({"bias": 1e-9, "bias_raw": 0, "beta": [1.0]}, {"intercepts": [0.0]}),
        ({"bias_raw": 0, "beta": [1.0], "beta_raw": [0]},
         {"intercepts": [0.5], "intercepts_raw": [0]}),
    ],
    ids=["bias", "readout-and-intercept"],
)
def test_import_refuses_floats_that_disagree_with_their_raw_values(tmp_path, capsys, node,
                                                                   intercept):
    doc = {
        "format": "scmfpga-model", "version": 1, "encoding": "density:2", "n_outputs": 1,
        "mechanism": {"d_enc": 2, "weights": [[0.0], [0.0]], **intercept},
        "layers": [{"activation": "step", "nodes": [{"weights": "10", "shift": 0, **node}]}],
    }
    j = tmp_path / "m.json"
    j.write_text(json.dumps(doc))
    out = tmp_path / "m.scm"
    assert run("import", str(j), "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_import_refuses_an_unknown_mechanism_source(tmp_path, capsys):
    doc = {
        "format": "scmfpga-model", "version": 1, "encoding": "density:2", "n_outputs": 1,
        "mechanism": {"source": "foo", "d_enc": 2, "weights": [[0.0], [0.0]],
                      "intercepts": [0.0]},
        "layers": [],
    }
    j = tmp_path / "m.json"
    j.write_text(json.dumps(doc))
    out = tmp_path / "m.scm"
    assert run("import", str(j), "--out", str(out)) == 3
    assert "unknown mechanism source 'foo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["NaN", "Infinity", "-1"])
def test_import_refuses_a_mechanism_alpha_that_is_not_finite_and_non_negative(
        tmp_path, capsys, alpha):
    j = tmp_path / "m.json"
    j.write_text(
        '{"format": "scmfpga-model", "version": 1, "encoding": "density:2", "n_outputs": 1, '
        f'"mechanism": {{"d_enc": 2, "weights": [[0.0], [0.0]], "intercepts": [0.0], '
        f'"alpha": {alpha}}}, "layers": []}}'
    )
    out = tmp_path / "m.scm"
    assert run("import", str(j), "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "alpha" in err[0]
    assert not out.exists()


def test_eval_and_report_refuse_a_model_file_with_a_nan_alpha(tmp_path, capsys, db1_files):
    _, data, model = db1_files
    body = bytearray(model.read_bytes()[:-4])
    body[16:24] = struct.pack("<d", float("nan"))  # the mechanism's f64 alpha
    bad = tmp_path / "bad.scm"
    bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    for argv in (("eval", str(bad), str(data)), ("report", str(bad))):
        assert run(*argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "alpha nan" in err[0]


def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, db1_files):
    # numpy raises MemoryError for an array it cannot allocate, such as the
    # (256, t_max) candidate work array at --t-max 100000000 (95 GiB)
    _, data, _ = db1_files

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 95.4 GiB for an array")

    monkeypatch.setattr(cli, "train", out_of_memory)
    out = tmp_path / "m.scm"
    assert run("train", str(data), "--out", str(out), "--t-max", "100000000") == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out of memory: Unable to allocate 95.4 GiB for an array"]
    assert not out.exists()


@pytest.mark.parametrize("case", ["import-model", "eval-csv", "eval-manifest"])
def test_a_file_that_is_not_utf8_text_is_a_data_error(tmp_path, capsys, db1_files, case):
    _, data, model = db1_files
    binary = b"\xff\xfe\x80 not text\n"
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(binary if case == "eval-csv" else data.read_bytes())
    if case == "eval-manifest":
        csv_path.with_suffix(".manifest").write_bytes(binary)
    argv = (["import", str(model), "--out", str(tmp_path / "x.scm")] if case == "import-model"
            else ["eval", str(model), str(csv_path)])
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "utf-8" in err[0]


def test_bad_model_file_is_data_error(tmp_path, db1_files):
    _, data, _ = db1_files
    bad = tmp_path / "bad.scm"
    bad.write_bytes(b"garbage")
    assert run("eval", str(bad), str(data)) == 3
    assert run("report", str(bad)) == 3


def test_unknown_encoding_kind_in_a_model_file_is_data_error(tmp_path, capsys, db1_files):
    # a file whose CRC is valid but whose encoding kind byte names no kind
    _, _, model = db1_files
    body = bytearray(model.read_bytes()[:-4])
    body[7] = 9
    bad = tmp_path / "bad.scm"
    bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    assert run("report", str(bad)) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_2(db1_files, tmp_path):
    _, data, _ = db1_files
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    # unknown encoding string is a usage error too
    assert run(
        "train", str(data), "--out", str(tmp_path / "x.scm"), "--encoding", "nope"
    ) == 2


def test_train_refuses_more_than_15_scheme_1_places(db1_files, tmp_path, capsys, monkeypatch):
    _, data, _ = db1_files
    monkeypatch.setattr(cli, "train", _no_training)
    out = tmp_path / "m.scm"
    assert run("train", str(data), "--out", str(out), "--encoding", "s1:16") == 2
    assert "parameter in 1..15" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("col,name", [(0, "x0"), (1, "y0")])
def test_train_refuses_a_non_finite_cell_as_a_data_error(tmp_path, capsys, col, name):
    rows = [[f"0.{i}", f"0.{9 - i}"] for i in range(10)]
    rows[4][col] = "nan"  # data row 5, line 6
    data = tmp_path / "nan.csv"
    data.write_text("x0,y0\n" + "".join(",".join(r) + "\n" for r in rows))
    capsys.readouterr()
    code = run("train", str(data), "--out", str(tmp_path / "m.scm"), "--nodes", "2",
               "--t-max", "10")
    assert code == 3
    assert f"line 6: non-finite value in column '{name}'" in capsys.readouterr().err


def test_training_failure_exit_4(tmp_path):
    flat = tmp_path / "flat.csv"
    rows = "\n".join(f"0.{i % 10}{i},0.25" for i in range(20))
    flat.write_text("x0,y0\n" + rows + "\n")
    code = run(
        "train", str(flat), "--out", str(tmp_path / "m.scm"),
        "--nodes", "3", "--t-max", "10", "--seed", "0",
    )
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "{data}", "--out", "{bad}", "--nodes", "2", "--t-max", "20"],
        ["train", "{data}", "--out", "{good}", "--log", "{bad}", "--nodes", "2", "--t-max", "20"],
        ["eval", "{model}", "{data}", "--out", "{bad}"],
        ["export", "{model}", "--out", "{bad}"],
        ["import", "{json}", "--out", "{bad}"],
        ["import", "{bad}", "--out", "{good}"],
        ["gen-data", "db1", "--out", "{bad}"],
        ["report", "{bad}"],
    ],
    ids=["train-out", "train-log", "eval-out", "export-out", "import-out", "import-in",
         "gen-data-out", "report-model"],
)
def test_a_file_that_cannot_be_read_or_written_is_a_data_error(tmp_path, capsys, db1_files,
                                                               argv):
    _, data, model = db1_files
    paths = dict(data=data, model=model, json=tmp_path / "m.json", good=tmp_path / "good",
                 bad=tmp_path / "missing" / "file")
    assert run("export", str(model), "--out", str(paths["json"])) == 0
    capsys.readouterr()
    assert run(*(a.format(**paths) for a in argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(paths["bad"]) in err
