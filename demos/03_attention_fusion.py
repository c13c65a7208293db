"""Inside the classifier: the three-stage feature pyramid, the
deep-to-shallow attention chain, and multi-scale probability fusion."""

import numpy as np

from sceneparse import fusion, model
from sceneparse import tensor as T

cfg = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(5,))
params = model.init_params(cfg, seed=0)
rng = np.random.Generator(np.random.PCG64(7))
x = T.tensor(rng.random((1, 3, 32, 32)))

# The backbone halves resolution per stage; han_forward then walks the
# pyramid deep-to-shallow, modulating each shallow map with a sigmoid
# attention mask computed from the (upsampled) deeper one.
feats = model.backbone_forward(x, cfg, params)  # [F1, F2, F3], shallow to deep
streams = model.han_forward(feats, params)  # [AF1, AF2, AF3], AF3 is F3
for name, f, s in zip(("f1", "f2", "f3"), feats, streams):
    print(f"{name}: {f.data.shape} -> attended {s.data.shape}")

# With the attention conv zeroed the sigmoid is exactly 0.5 everywhere,
# so each attended map is exactly 1.5x its input; a quick way to see the
# residual form AF = SF + SF * mask.
zeroed = {
    name: T.tensor(np.zeros_like(p.data)) if name.startswith("attn") else p
    for name, p in params.items()
}
z = model.han_forward(model.backbone_forward(x, cfg, zeroed), zeroed)
print("zeroed attention gives exactly 1.5x:", np.array_equal(z[0].data, 1.5 * feats[0].data))

# Each stream ends in its own softmax head; fusion combines the
# per-scale probability vectors by a weighted mean.  Deeper streams get
# larger weights, so they dominate unless shallow scales strongly agree.
w = fusion.DEFAULT_SCALE_WEIGHTS
probs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # [scales, classes]
fused = fusion.fuse(probs, w)
print("weights", w, "-> fused", np.round(fused, 5), "label", int(fused.argmax()))

# The fused vector stays on the simplex and the argmax never depends on
# a global rescale of the weights.
rows = rng.random((3, 4))
rows /= rows.sum(axis=1, keepdims=True)
a = fusion.fuse(rows, w)
b = fusion.fuse(rows, tuple(10.0 * ws for ws in w))
print("sum", float(a.sum()), "argmax stable under rescale:", a.argmax() == b.argmax())
