"""
Self-reconstruction pretraining on procedural CT textures
=========================================================

Pretraining asks the model to compress CT content through its quantized
bottleneck and reproduce it. Procedural texture volumes stand in for real
CT here; the exercise shows the loss falling and the reconstruction error
of the tri-planar inference path on one of the training volumes.
"""

import numpy as np

from vqsct.model import ModelConfig, value_space
from vqsct.phantom import generate_texture_volume
from vqsct.pipeline import translate_volume
from vqsct.training import pretrain_recon
from vqsct.volume import HU_MAX, HU_MIN, normalize

# Three texture volumes: multi-scale smooth noise plus random inclusions,
# spanning a wide HU band.
volumes = [generate_texture_volume((32, 32, 32), seed=s) for s in (1, 2, 3)]
print("texture HU ranges:")
for v in volumes:
    print(f"  seed {v.meta['texture_seed']}: "
          f"[{v.voxels.min():.0f}, {v.voxels.max():.0f}]")

# Pretraining consumes volumes normalized to [0, 1].
normed = [normalize(v, "unit01") for v in volumes]

config = ModelConfig(spatial_rank=2, depth=2, base_channels=8,
                     codebook_size=32, codebook_dim=16, pyramid_levels=1,
                     seed=0)
result = pretrain_recon(config, normed, steps=300, seed=0,
                        learning_rate=2e-3, batch_size=8)

print("\nreconstruction L1 during training:")
for step in (1, 10, 50, 100, 200, 300):
    print(f"  step {step:>3}: {result.l1_history[step - 1]:.4f}")

ckpt = result.checkpoint
print(f"\ncheckpoint provenance: {ckpt.provenance}"
      f" (expects {value_space(ckpt)} inputs)")

# Run the tri-planar path on the first training volume: slice along each
# plane, translate every slice, restack, and fuse by voxelwise median.
out = translate_volume(ckpt, normed[0], dump_planes=True)
target = np.clip(volumes[0].voxels, HU_MIN, HU_MAX)
print("\nper-plane and fused MAE against the original (HU):")
for name in ("axial", "coronal", "sagittal", "fused"):
    err = np.abs(getattr(out, name).voxels - target).mean()
    print(f"  {name:<8} {err:7.1f}")
