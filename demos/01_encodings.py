#!/usr/bin/env python3
"""Walk through the three binary input encodings on a few sample values.

Each real feature in [0, 1] becomes a block of bits. Stored bits are {0,1}
but stand for {-1,+1} in the arithmetic. Run: python demos/01_encodings.py
"""

import numpy as np

from scmfpga import encode_matrix, parse_encoding


def show(label, spec_text, x):
    vec = encode_matrix(np.array([[x]]), parse_encoding(spec_text))[0][0]
    print(f"  {label:<28} {vec.to_string()}   ({vec.n} bits)")


print("Density encoding: unary bucket code, N evenly divided levels")
for x in (0.0, 0.3, 0.5, 0.74, 0.75, 1.0):
    show(f"x={x} (N=3)", "density:3", x)
show("x=0.42 (N=10)", "density:10", 0.42)

print()
print("Scheme 1: [integer bit][9-bit unary per decimal digit]")
print("  0.867 with three places -> digits 8, 6, 7:")
show("x=0.867 (u=3)", "s1:3", 0.867)
show("x=0.0   (u=3)", "s1:3", 0.0)
show("x=1.0   (u=3)", "s1:3", 1.0)

print()
print("Scheme 2: low-significance places quantize to 4-bit / 2-bit codes")
print("  V2 on 0.8674 -> digits 8, 6 unary; 7 -> 0111; 4 -> 01:")
show("x=0.8674 (V2)", "s2v2", 0.8674)
show("x=0.8674 (V1)", "s2v1", 0.8674)
show("x=0.25   (V1)", "s2v1", 0.25)

print()
print("Per-dataset encoded widths (one block per feature, concatenated):")
for d, spec_text, note in [
    (1, "s2v2", "univariate benchmark"),
    (2, "s1:3", "two-input benchmark"),
    (36, "s2v1", "36-sensor industrial shape"),
    (14, "s2v1", "14-parameter industrial shape"),
]:
    spec = parse_encoding(spec_text)
    bits, d_enc = encode_matrix(np.full((1, d), 0.5), spec)
    print(f"  {d:>2} features x {spec_text:<6} -> {d_enc:>4} binary inputs   ({note})")
