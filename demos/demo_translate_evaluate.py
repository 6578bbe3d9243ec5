"""
PET-to-CT translation, end to end on a small phantom cohort
===========================================================

The full workflow in miniature: pretrain on CT self-reconstruction,
fine-tune the same architecture on paired PET/CT slices, translate the
held-out case, and score it inside the body contour. A useful yardstick
throughout is the constant-water baseline, which predicts 0 HU at every
voxel inside the contour.

At this desk scale (48^3 volumes, minutes of CPU) expect the model to
beat water clearly on the whole body and soft tissue while bone stays
hard: PET carries little bone contrast, so the predicted CT rarely
crosses the 300 HU bone threshold and the bone Dice can be zero.
"""

import numpy as np

from vqsct.evaluation import body_contour, evaluate_case, mae
from vqsct.model import ModelConfig
from vqsct.phantom import generate_phantom_pair
from vqsct.pipeline import slice_volume, translate_volume
from vqsct.training import finetune_translate, pretrain_recon
from vqsct.volume import normalize

# Four training cases and one held-out case, all 48^3 for speed.
cases = [generate_phantom_pair((48, 48, 48), seed=[7, i]) for i in range(5)]
train, (held_ct, held_pet, _) = cases[:4], cases[4]

# Stage 1: self-reconstruction pretraining on the training CTs ([0,1]).
config = ModelConfig(spatial_rank=2, depth=2, base_channels=8,
                     codebook_size=32, codebook_dim=16, pyramid_levels=2,
                     seed=0)
ct_unit = [normalize(ct, "unit01") for ct, _, _ in train]
pre = pretrain_recon(config, ct_unit, steps=150, seed=0,
                     learning_rate=2e-3, batch_size=8, beta=0.0, augment=True)
print(f"pretrain L1: {pre.l1_history[0]:.3f} -> {pre.l1_history[-1]:.3f}")

# Stage 2: paired fine-tuning on slices from all three planes ([-1,1]).
pet_slices, ct_slices = [], []
for ct, pet, _ in train:
    pet_n = normalize(pet, "sym11")
    ct_n = normalize(ct, "sym11")
    for plane in ("axial", "coronal", "sagittal"):
        pet_slices.extend(slice_volume(pet_n, plane))
        ct_slices.extend(slice_volume(ct_n, plane))

fin = finetune_translate(pre.checkpoint, "no-frozen", pet_slices, ct_slices,
                         steps=300, seed=1, learning_rate=2e-3, batch_size=8,
                         beta=0.0, augment=True,
                         freeze_codebook_with_encoder=False)
print(f"finetune L1: {fin.l1_history[0]:.3f} -> {fin.l1_history[-1]:.3f}")

# Stage 3: translate the held-out PET and fuse the three planar passes.
synthetic = translate_volume(fin.checkpoint, normalize(held_pet, "sym11"))

# Stage 4: score inside the body contour of the true CT.
body = body_contour(held_ct)
model_mae = mae(synthetic.fused, held_ct, body)
water = float(np.abs(np.clip(held_ct.voxels, -1024, 2976))[body].mean())
print(f"\nheld-out whole-body MAE: model {model_mae:.0f} HU"
      f" vs constant-water {water:.0f} HU")

rows = evaluate_case(synthetic.fused, held_ct, case_id="held-out")
print("\nregion  metric   value")
for row in rows:
    print(f"{row['region']:<7} {row['metric']:<7} {row['value']:9.3f}")
