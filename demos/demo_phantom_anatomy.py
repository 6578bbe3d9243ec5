"""
Synthetic phantom anatomy and the body contour
==============================================

Generate one paired PET/CT phantom case, look at its tissue composition
in Hounsfield units, and check that the body contour keeps the lungs
while rejecting the exterior air.
"""

from vqsct.evaluation import body_contour, region_masks
from vqsct.phantom import LABEL_NAMES, generate_phantom_pair

# A case is one CT volume, one PET volume, and the per-voxel tissue truth.
ct, pet, truth = generate_phantom_pair((64, 64, 64), seed=42)
print(f"CT: dims {ct.dims}, spacing {ct.spacing_mm} mm, space {ct.intensity_space}")
print(f"PET: dims {pet.dims}, space {pet.intensity_space}")

# Tissue composition and the HU each tissue lands on.
print("\nlabel  voxels     CT mean    CT std    PET mean")
for value, name in enumerate(LABEL_NAMES):
    sel = truth.labels == value
    print(f"{name:<6} {sel.sum():>7}  {ct.voxels[sel].mean():>9.1f}"
          f"  {ct.voxels[sel].std():>8.1f}  {pet.voxels[sel].mean():>9.3f}")

# The body contour thresholds at -500 HU and fills enclosed holes slice by
# slice, so the lungs (air-like HU, but inside the torso) stay part of the
# body while the air around the phantom does not.
inside = body_contour(ct)
lungs = truth.labels == 1
print(f"\nbody contour covers {inside.mean():.1%} of the grid")
print(f"lung voxels inside the contour: {inside[lungs].mean():.1%}")
print(f"corner air inside the contour: {inside[:4, :4, :4].mean():.1%}")

# Within the body, a single HU threshold separates soft tissue from bone.
regions = region_masks(ct)
for name in ("whole", "soft", "bone"):
    frac = regions[name].sum() / regions["whole"].sum()
    print(f"region {name:<5}: {frac:.1%} of the body")

# Lesions are hot spots in the PET activity map.
print(f"\nlesions: {len(truth.geometry['lesions'])}")
soft_activity = pet.voxels[truth.labels == 2].mean()
for lesion in truth.geometry["lesions"]:
    center = lesion["center_voxel"]
    value = pet.voxels[center]
    print(f"  at {center}: activity {value:.2f}"
          f" ({value / soft_activity:.1f}x soft tissue)")
