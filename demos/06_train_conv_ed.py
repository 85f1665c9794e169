"""
Training the small convolutional encoder-decoder
================================================

A scaled-down U-shaped network (two conv blocks, one pooling level, skip
concatenation) trained with the contrastive-variance objective on a tiny
synthetic dataset. Runs in well under a minute.
"""

import pathlib
import tempfile

from pointseg import (
    SynthSpec,
    TrainConfig,
    evaluate,
    forward,
    generate_annotations,
    hard_mask,
    load_checkpoint,
    synth_generate,
    train_loop,
)
from pointseg.grids import softmax
from pointseg.train import HISTORY_COLUMNS

spec = SynthSpec(num_classes=3, height=48, width=48, train_count=10,
                 test_count=4, seed=1)
train, test, _ = synth_generate(spec)
train = generate_annotations(train, seed=1)

config = TrainConfig(
    mode="pce+cv",
    model_kind="conv-ed",
    channels=(8, 8, 16, 8),
    total_iterations=200,
    batch_size=4,
    lr0=0.001,
    seed=0,
)

# Checkpoints are flat binary files; reloading reproduces the parameters
# for any image size because kernels do not encode the grid.
with tempfile.TemporaryDirectory(prefix="pointseg_demo_") as tmp:
    out = pathlib.Path(tmp)
    state = train_loop(train, config, checkpoint_dir=out)
    params = load_checkpoint(out / "checkpoint_final.bin", height=48, width=48)

print("loss history, every 40 iterations:")
for values in state.history[::40]:
    row = dict(zip(HISTORY_COLUMNS, values))
    print(f"  it {row['iteration']:3d}  pce {row['pce']:7.4f}  cv {row['cv_contrastive']:8.4f}  "
          f"tv {row['tv']:9.1f}  total {row['total']:8.4f}")

preds = []
for sample in test:
    field, _ = forward(params, params.spec, sample.image, sample.id)
    preds.append(hard_mask(softmax(field)))
report = evaluate(preds, [s.mask for s in test])
print(f"held-out foreground DSC after {config.total_iterations} iterations: "
      f"{report.dsc_average:.3f}")
