"""Stochastic configuration machines with binary weights, binary input
encodings, and a bit-exact emulation of the hardware datapath."""

from .bits import BitMatrix, BitVec
from .datasets import (
    Dataset,
    db1_function,
    gen_db1,
    gen_db2,
    load_csv,
    load_dataset,
    rastrigin,
    split,
    write_dataset,
)
from .emulate import (
    ResourceReport,
    cycle_estimate,
    memory_report,
    ones_count_dot,
    predict_fpga,
    predict_fpga_batch,
    xnor_count,
)
from .encoding import (
    EncodingKind,
    EncodingSpec,
    encode_matrix,
    parse_encoding,
)
from .errors import DataError, ModelFormatError, ScmError, TrainingFailedError
from .evaluate import EvalReport, evaluate_bits
from .linalg import LassoFit, lasso_fit, lasso_objective, least_squares
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
    node_output_float,
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
    TrainRecord,
    TrainResult,
    TrainState,
    add_node,
    early_stop_check,
    prepare_train_data,
    train,
    xi_score,
)

__version__ = "0.1.0"
