"""Stochastic configuration machines with binary weights, binary input
encodings, and a bit-exact emulation of the hardware datapath."""

from .bits import BitMatrix, BitVec
from .datasets import (
    Dataset,
    gen_db1,
    gen_db2,
    load_csv,
    load_dataset,
    rastrigin,
    split,
    write_dataset,
)
from .emulate import ResourceReport, memory_report, predict_fpga_batch
from .encoding import EncodingSpec, encode_matrix, parse_encoding
from .errors import DataError, ModelFormatError, ScmError, TrainingFailedError
from .evaluate import EvalReport, evaluate_bits
from .linalg import lasso_fit, least_squares
from .mechanism import (
    MechanismModel,
    external_mechanism,
    fit_mechanism,
    signals_pm1,
)
from .model import (
    Activation,
    ScmLayer,
    ScmModel,
    ScmNode,
    predict_float_batch,
    quantization_bound,
)
from .modelfile import (
    load_model,
    model_from_bytes,
    model_from_json,
    model_to_bytes,
    model_to_json,
    save_model,
)
from .train import (
    TrainConfig,
    TrainData,
    TrainResult,
    TrainState,
    add_node,
    prepare_train_data,
    train,
)

__version__ = "0.1.0"
