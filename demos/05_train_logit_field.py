"""
The transductive logit field: losses without network capacity
=============================================================

A logit-field model stores one logit plane per class per image and nothing
else, so training it shows what the losses alone can do. Partial
cross-entropy has its optimum at the annotated one-hots, and the field
drives straight there.
"""

from pointseg import SynthSpec, TrainConfig, forward, generate_annotations, synth_generate, train_loop
from pointseg.grids import softmax
from pointseg.losses import partial_cross_entropy
from pointseg.train import HISTORY_COLUMNS

spec = SynthSpec(num_classes=3, height=24, width=24, train_count=2,
                 test_count=1, seed=3)
train, _, _ = synth_generate(spec)
train = generate_annotations(train, seed=3)

config = TrainConfig(
    mode="pce",
    model_kind="logit-field",
    total_iterations=200,
    batch_size=2,
    lr0=1.0,
    augment=False,
    weight_decay=0.0,
    mu=0.0,
    seed=0,
)
state = train_loop(train, config)

for it in (0, 24, 49, 99, 199):
    row = dict(zip(HISTORY_COLUMNS, state.history[it]))
    print(f"iteration {row['iteration']:3d}  lr {row['lr']:.4f}  pce {row['pce']:.6f}")

# The annotated points are now fit essentially perfectly.
total = 0.0
for sample in train:
    field, _ = forward(state.params, state.params.spec, sample.image, sample.id)
    value, _ = partial_cross_entropy(softmax(field), sample.annotation)
    total += value
print(f"final pce over both images: {total:.2e}")
