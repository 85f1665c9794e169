"""Point-supervised segmentation trained from one annotated pixel per class."""

from .errors import (
    IngestError,
    InvalidConfigError,
    InvalidInputError,
    PointsegError,
    TrainingDivergenceError,
)
from .grids import (
    Image,
    LogitField,
    SoftPrediction,
    finite_diff_grad,
    softmax,
    softmax_backward,
)
from .losses import (
    LossBreakdown,
    LossSettings,
    PairingPlan,
    PointAnnotation,
    cv_loss,
    ms_data_term,
    partial_cross_entropy,
    total_loss,
    tv_term,
    variance_map,
)
from .models import (
    ModelParams,
    ModelSpec,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
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
from .metrics import (
    EvalReport,
    central_bias_filter,
    dsc,
    evaluate,
    hard_mask,
    hd95,
)
from .train import (
    TrainConfig,
    TrainState,
    assemble_batch,
    poly_lr,
    sgd_step,
    train_loop,
)
from .seeding import keyed_rng, seed_words

__version__ = "0.1.0"
