"""Synthetic aerial data: texture classes, labeled tile datasets, and
full scenes with aligned ground truth."""

import tempfile

import numpy as np

from sceneparse import synthdata
from sceneparse.netpbm import write_pgm, write_ppm

out = tempfile.mkdtemp(prefix="sceneparse_demo1_")
print("writing to", out)

# Eight texture classes: each has a distinct base color plus a pattern
# (flat, stripes, grid), so a classifier can learn them from color alone
# but patterns make the tiles look less artificial.
textures = synthdata.default_texture_classes(8)
for i, t in enumerate(textures):
    print(f"  class {i}: base {t.base_rgb}, pattern {t.pattern}")

# A scene is a layout (voronoi cells here) painted with those textures.
# generate_scene_raster returns the RGB image and the 1-based truth
# raster; 0 is reserved for void, so class k paints truth value k+1.
spec = synthdata.SceneSpec(
    classes=textures,
    layout=synthdata.VoronoiLayout(n_points=10),
    height=256,
    width=256,
)
rgb, truth = synthdata.generate_scene_raster(spec, seed=3)
write_ppm(f"{out}/scene.ppm", rgb)
write_pgm(f"{out}/truth.pgm", truth.astype(np.uint8))
print("scene labels present:", [int(v) for v in np.unique(truth)])

# Tile datasets are what the classifier trains on: one small raster per
# sample plus a TSV manifest with 0-based labels.  Tile i is seeded by
# (seed, i) so regenerating is bit-identical.
manifest = synthdata.generate_tile_dataset(spec, tiles_per_class=20, tile_size=32, seed=5, out_dir=f"{out}/tiles")
print("tiles written:", len(manifest.samples))

# Class-imbalanced datasets come from a largest-remainder split of the
# total count under a power-law profile.
counts = synthdata.long_tail_counts(n_classes=8, total=400, exponent=1.2)
print("long-tail counts:", counts, "sum", sum(counts))
