"""Training and grid outputs must not depend on the number of BLAS threads."""

import os
import subprocess
import sys

SCRIPT = r"""
import hashlib, os, sys
import numpy as np
from sceneparse import model, parser, synthdata

out = sys.argv[1]
# 16-px tiles at batch 24 and a 32-px grid classifier: their GEMMs are large
# enough for OpenBLAS to split them across threads
cfg = model.BackboneConfig(input_size=16, stage_channels=(4, 8, 8), num_classes_per_task=(3,))
spec = synthdata.SceneSpec(
    classes=synthdata.default_texture_classes(3),
    layout=synthdata.GridLayout(rows=1, cols=3),
    height=16,
    width=48,
)
man = synthdata.generate_tile_dataset(spec, 16, 16, 0, os.path.join(out, "tiles"))
ckpt, _ = model.train(cfg, [man], model.TrainConfig(epochs=1, batch_size=24, lr=0.01, schedule=(), seed=0))
model.save_checkpoint(ckpt, os.path.join(out, "m.ckpt"))
with open(os.path.join(out, "m.ckpt"), "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())

# two tasks, with an auxiliary set of 10 tiles, smaller than the batch
spec2 = synthdata.SceneSpec(
    classes=synthdata.default_texture_classes(2),
    layout=synthdata.GridLayout(rows=1, cols=2),
    height=16,
    width=32,
)
aux = synthdata.generate_tile_dataset(spec2, 5, 16, 1, os.path.join(out, "aux"))
cfg2 = model.BackboneConfig(input_size=16, stage_channels=(4, 8, 8), num_classes_per_task=(3, 2))
ckpt, _ = model.train(cfg2, [man, aux], model.TrainConfig(epochs=1, batch_size=24, lr=0.01, schedule=(), seed=0))
model.save_checkpoint(ckpt, os.path.join(out, "two.ckpt"))
with open(os.path.join(out, "two.ckpt"), "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())

# one SGD step of the desk classifier: 32-px tiles of 8 classes at batch 32
desk8 = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(8,))
spec8 = synthdata.SceneSpec(
    classes=synthdata.default_texture_classes(8),
    layout=synthdata.GridLayout(rows=1, cols=8),
    height=32,
    width=256,
)
man8 = synthdata.generate_tile_dataset(spec8, 4, 32, 0, os.path.join(out, "desk"))
ckpt, _ = model.train(desk8, [man8], model.TrainConfig(epochs=1, batch_size=32, lr=0.002, schedule=(), seed=0))
model.save_checkpoint(ckpt, os.path.join(out, "desk.ckpt"))
with open(os.path.join(out, "desk.ckpt"), "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())

desk = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(3,))
params = {name: t.data for name, t in model.init_params(desk, seed=5).items()}
clf = model.TileClassifier(model.Checkpoint(desk, model.MSCConfig(mu_g=1.0, mu_m=0.0), ["a", "b", "c"], [1, 2, 3], params))
raster = np.random.Generator(np.random.PCG64(9)).integers(0, 256, size=(96, 112, 3), dtype=np.uint8)
grid = parser.build_grid_map(raster, clf, parser.ParseConfig())
print(hashlib.sha256(grid.cell_probs.tobytes()).hexdigest())
"""


def run_with_threads(n: int, out_dir) -> list[str]:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n), MKL_NUM_THREADS=str(n))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out_dir)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_same_bytes_with_one_and_two_blas_threads(tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    one = run_with_threads(1, tmp_path / "one")
    two = run_with_threads(2, tmp_path / "two")
    assert len(one) == 4
    assert one == two
