"""Batch evaluation helpers shared by the CLI and the test suites.

One loaded model drives both evaluators, so a comparison can never pit two
different parameter copies against each other. The encoded samples come as
one BitMatrix (encode_matrix), which both evaluators read as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix
from .emulate import predict_fpga_batch
from .encoding import samples_2d
from .linalg import rmse
from .model import ScmModel, predict_float_batch

MODES = ("pc", "fpga", "both")


@dataclass
class EvalReport:
    n_samples: int
    rmse_pc: float | None = None
    rmse_fpga: float | None = None
    outputs_pc: np.ndarray | None = None  # (N, m) float64
    outputs_fpga_raw: np.ndarray | None = None  # (N, m) int32
    saturated: np.ndarray | None = None  # (m,) emulated rows clamped to Q7.25, per output
    clamped: int = 0  # mechanism values and readouts clamped to Q7.25; set with `saturated`

    @property
    def outputs_fpga(self) -> np.ndarray | None:
        if self.outputs_fpga_raw is None:
            return None
        return fx.dequantize_array(self.outputs_fpga_raw)

    @property
    def bound_applies(self) -> bool:
        """False when any emulated row or model parameter was clamped, where
        quantization_bound no longer holds."""
        return self.saturated is None or not (self.clamped or self.saturated.any())

    @property
    def rmse_difference(self) -> float | None:
        if self.rmse_pc is None or self.rmse_fpga is None:
            return None
        return abs(self.rmse_fpga - self.rmse_pc)

    @property
    def max_output_delta(self) -> float | None:
        """Largest per-sample |emulated - reference| over all outputs."""
        if self.outputs_pc is None or self.outputs_fpga_raw is None:
            return None
        return float(np.max(np.abs(self.outputs_fpga - self.outputs_pc)))


def evaluate_bits(
    model: ScmModel, bits: BitMatrix, y: np.ndarray, mode: str = "both"
) -> EvalReport:
    """Evaluate one or more encoded samples against targets in the requested mode(s)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not len(bits):
        raise ValueError("no samples to evaluate")
    y = samples_2d(y)
    if y.shape != (len(bits), model.n_outputs):
        raise ValueError(f"targets of shape {y.shape}, not (samples, outputs) = "
                         f"{(len(bits), model.n_outputs)}")
    rep = EvalReport(n_samples=len(bits))
    if mode in ("pc", "both"):
        rep.outputs_pc = predict_float_batch(model, bits)
        rep.rmse_pc = rmse(rep.outputs_pc - y)
    if mode in ("fpga", "both"):
        rep.saturated = np.zeros(model.n_outputs, dtype=np.int64)
        rep.clamped = model.clamped
        rep.outputs_fpga_raw = predict_fpga_batch(model, bits, rep.saturated)
        rep.rmse_fpga = rmse(rep.outputs_fpga - y)
    return rep
