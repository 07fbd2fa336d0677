import json
import struct
import zlib

import pytest

import numpy as np

from scmfpga import cli
from scmfpga import fixedpoint as fx
from scmfpga.bits import BitVec
from scmfpga.datasets import load_dataset, write_dataset
from scmfpga.encoding import parse_encoding
from scmfpga.mechanism import external_mechanism
from scmfpga.model import Activation, ScmLayer, ScmModel, ScmNode, quantization_bound
from scmfpga.modelfile import load_model, save_model


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
    beta_raw = np.array([fx.RAW_MAX], dtype=np.int32)
    node = ScmNode(BitVec.from_pm1([1]), 0, 0.0, 0, fx.dequantize_array(beta_raw), beta_raw)
    sat = ScmModel(
        parse_encoding("density:1"), external_mechanism(np.zeros((1, 1)), np.zeros(1)),
        [ScmLayer(Activation.SIGN, [node, node])], 1,
    )
    path = tmp_path / "sat.scm"
    save_model(sat, path)
    assert run("eval", str(path), str(data), "--mode", "fpga") == 0
    ds = load_dataset(data)
    expected = int(np.count_nonzero(ds.x_norm(ds.rows("test"))[:, 0] >= 0.5))
    assert expected > 0
    assert f"saturated={expected}" in capsys.readouterr().out.splitlines()


BOUND_NOTE = "note: outputs saturated, so quantization_bound does not apply to these rows"


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
    ],
    ids=["train-out", "train-log", "eval-out", "export-out", "import-out", "import-in",
         "gen-data-out"],
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
