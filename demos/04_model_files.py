#!/usr/bin/env python3
"""Model files: binary round trips, JSON interchange, external mechanisms.

Run: python demos/04_model_files.py
"""

import json
import tempfile
import warnings
from pathlib import Path

import scmfpga as s

warnings.filterwarnings("ignore", message="clamped")

print("train a small model...")
ds = s.split(s.gen_db1(seed=1), 0.2, seed=1)
spec = s.parse_encoding("s2v2")
data = s.prepare_train_data(
    ds.x_norm(ds.train_idx), ds.y[ds.train_idx],
    ds.x_norm(ds.val_idx), ds.y[ds.val_idx], spec,
)
model = s.train(data, s.TrainConfig.single_layer(10, s.Activation.SIGN, t_max=100, seed=1)).model

with tempfile.TemporaryDirectory(prefix="scmfpga-demo-") as tmp:
    path = Path(tmp) / "model.scm"
    s.save_model(model, path)
    blob = path.read_bytes()
    print(f"  saved {path} ({len(blob)} bytes, magic {blob[:4]!r}, crc32 at the tail)")

    back = s.load_model(path)
    print(f"  reload is byte-exact: {s.model_to_bytes(back) == blob}")

lean = s.model_to_bytes(model, include_floats=False)
print(f"  without the float sidecar the file shrinks to {len(lean)} bytes")

print()
print("JSON export/import (lossless, human-readable):")
doc = s.model_to_json(model)
again = s.model_from_json(doc)
print(f"  json -> model -> bytes identical: {s.model_to_bytes(again) == blob}")
node = json.loads(doc)["layers"][0]["nodes"][0]
print(f"  first node in JSON: shift={node['shift']} bias_raw={node['bias_raw']}")
print(f"    weights={node['weights']}")

print()
print("an externally supplied linear mechanism imports from plain JSON:")
external = {
    "format": "scmfpga-model",
    "version": 1,
    "encoding": "density:4",
    "n_outputs": 1,
    "mechanism": {
        "source": "external",
        "d_enc": 4,
        "weights": [[0.25], [0.125], [-0.5], [1.0]],
        "intercepts": [2.0],
    },
    "layers": [],
}
mech_model = s.model_from_json(json.dumps(external))
x = s.BitMatrix.from01([[1, 0, 1, 1]])  # one row
raw = int(s.predict_fpga_batch(mech_model, x)[0, 0])
pc = float(s.predict_float_batch(mech_model, x)[0, 0])
print(f"  inputs 1011 -> {pc} (float path)")
print(f"  emulated raw: {raw} (= {raw / 2**25})")
