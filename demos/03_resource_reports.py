#!/usr/bin/env python3
"""Memory-reduction and clock-cycle reports across the benchmark shapes.

The software baseline stores 64-bit floats; the packed side stores one bit
per encoded input or weight, 32-bit fixed-point readouts, and 3-bit scale
codes. Run: python demos/03_resource_reports.py
"""

import numpy as np

import scmfpga as s


def shape_model(spec_text, d, sizes):
    spec = s.parse_encoding(spec_text)
    d_enc = d * spec.bits_per_input
    mech = s.external_mechanism(np.zeros((d_enc, 1)), np.zeros(1))
    layers = []
    fan_in = d_enc
    for n in sizes:
        # all-zero weight bits, scale codes, biases and readouts: a report reads only shapes
        w = s.BitMatrix.from01(np.zeros((n, fan_in), bool))
        layers.append(s.ScmLayer.from_arrays(
            s.Activation.STEP, w, np.zeros(n, np.uint8), np.zeros(n, np.int32),
            np.zeros((n, 1))))
        fan_in = n
    return s.ScmModel(spec, mech, layers, 1)


SHAPES = [
    ("bump fn",    "s2v2", 1, (60,)),
    ("rastrigin",  "s1:3", 2, (60,)),
    ("36-sensor",  "s2v1", 36, (20,)),
    ("14-param",   "s2v1", 14, (25,)),
]

print(f"{'dataset':<11}{'inputs real->packed':>22}{'reduction':>11}"
      f"{'weights real->packed':>24}{'reduction':>12}{'cycles':>8}{'t@100MHz':>10}")
for name, spec, d, sizes in SHAPES:
    rep = s.memory_report(shape_model(spec, d, sizes))
    print(
        f"{name:<11}"
        f"{rep.inputs_real_bits:>12} -> {rep.inputs_fpga_bits:<6}"
        f"{rep.input_reduction * 100:>10.4g}%"
        f"{rep.weight_real_bits:>14} -> {rep.weight_fpga_bits:<6}"
        f"{rep.weight_reduction * 100:>11.4g}%"
        f"{rep.cycles:>8}"
        f"{rep.eval_seconds * 1e9:>8.0f}ns"
    )

print()
print("readouts always go 64-bit float -> 32-bit fixed: a 50% reduction.")
print()
print("deep structures pay 5 cycles per extra layer plus a deeper final sum:")
for name, spec, d, sizes in [
    ("bump fn", "s2v2", 1, (40, 40, 40)),
    ("bump fn", "s2v2", 1, (60, 60)),
    ("rastrigin", "s1:3", 2, (40, 40, 40)),
    ("36-sensor", "s2v1", 36, (20, 20)),
]:
    rep = s.memory_report(shape_model(spec, d, sizes))
    label = "-".join(str(n) for n in sizes)
    print(f"  {name:<11} {label:<10} {rep.cycles:>3} cycles  {rep.eval_seconds * 1e9:>4.0f}ns")

print()
print("full report for the univariate 60-node model:")
print(s.memory_report(shape_model("s2v2", 1, (60,))).text())
