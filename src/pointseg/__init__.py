"""Point-supervised segmentation trained from one annotated pixel per class.

Set PSCV_THREADS to cap the BLAS/OpenMP thread pools; it must take effect
before numpy is imported, which is why it is handled at the top of this file.
A value that is not a positive integer leaves the pools alone; importing still
succeeds, and the command line reports the value as a usage error.
"""

import os

_threads = os.environ.get("PSCV_THREADS")
_bad_threads = None  # a rejected PSCV_THREADS value, reported by the CLI
if _threads is not None:
    if _threads.isdigit() and int(_threads) >= 1:
        for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(_var, _threads)
    else:
        _bad_threads = _threads

from .errors import (  # noqa: E402
    IngestError,
    InvalidConfigError,
    InvalidInputError,
    OracleFailureError,
    PointsegError,
    TrainingDivergenceError,
)
from .grids import (  # noqa: E402
    Image,
    LogitField,
    SoftPrediction,
    finite_diff_grad,
    softmax,
    softmax_backward,
)
from .losses import (  # noqa: E402
    LossBreakdown,
    LossSettings,
    PairingPlan,
    PointAnnotation,
    class_means,
    cosine_similarity,
    cv_loss,
    ms_data_term,
    partial_cross_entropy,
    total_loss,
    tv_term,
    variance_map,
)
from .models import (  # noqa: E402
    ModelParams,
    ModelSpec,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .data import (  # noqa: E402
    LabelMask,
    Sample,
    SynthSpec,
    augment,
    generate_annotations,
    load_manifest,
    load_split,
    read_pgm,
    save_dataset,
    synth_generate,
    write_pgm,
)
from .metrics import (  # noqa: E402
    EvalReport,
    central_bias_filter,
    dsc,
    evaluate,
    hard_mask,
    hd95,
)
from .train import (  # noqa: E402
    TrainConfig,
    TrainState,
    assemble_batch,
    poly_lr,
    sgd_step,
    train_loop,
)
from .seeding import keyed_rng, seed_words  # noqa: E402

__version__ = "0.1.0"
