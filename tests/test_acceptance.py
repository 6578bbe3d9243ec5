"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

Each criterion is a test that prints a single summary line (visible under
plain ``pytest -v`` via capsys.disabled) and then asserts. The end-to-end
pipeline (criteria 9 and 10) runs the command line twice in temporary
directories and compares artifacts byte for byte.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import (brute_force_assign, flood_fill_body, mae_loop,
                     psnr_loop, ssim_window, wilcoxon_enum)
import vqsct
from vqsct import autograd as ag
from vqsct.codebook import Codebook, ema_update, expire_stale, quantize
from vqsct.evaluation import (body_contour, dsc, mae, psnr, region_masks,
                              read_report_csv, ssim, wilcoxon_signed_rank)
from vqsct.model import ModelConfig, apply_freeze, mask_for_mode
from vqsct.phantom import LABEL_LUNG, generate_phantom_pair, generate_texture_volume
from vqsct.pipeline import (fuse_median, restack_slices, slice_volume,
                            translate_volume)
from vqsct.training import (finetune_translate, pretrain_recon,
                            select_checkpoint)
from vqsct.volume import HU_MAX, HU_MIN, Volume, normalize

# Pinned end-to-end configuration (criteria 9 and 10).
E2E_DIMS = "96,96,96"
E2E_PHANTOM_SEED = "7"
E2E_MODEL = ["--rank", "2", "--depth", "2", "--base-channels", "8",
             "--codebook-size", "32", "--codebook-dim", "16",
             "--pyramid-levels", "2"]
E2E_TRAIN = ["--steps", "300", "--batch-size", "16",
             "--learning-rate", "0.002", "--beta", "0.0", "--augment"]
E2E_FINETUNE_EXTRA = ["--train-codebook"]
E2E_PRETRAIN_SEED = "0"
E2E_FINETUNE_SEED = "1"

MODES = ("scratch", "no-frozen", "enc-frozen")


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
              f" ({detail})")


# ---------------------------------------------------------------------------
# 1. autodiff gradients vs central finite differences
# ---------------------------------------------------------------------------

def _random_net(rng, rank):
    """Random conv/lrelu stack, depth <= 2, with a 1x1 head."""
    side = int(rng.integers(6, 9)) if rank == 2 else int(rng.integers(5, 7))
    depth = int(rng.integers(1, 3))
    spec = []
    params = {}
    c_in = 1
    for d in range(depth):
        k = int(rng.choice([2, 3]))
        stride = int(rng.choice([1, 2]))
        pad = 1 if k == 3 else 0
        c_out = int(rng.integers(2, 4))
        params[f"w{d}"] = 0.5 * rng.standard_normal((c_out, c_in) + (k,) * rank)
        params[f"b{d}"] = 0.2 * rng.standard_normal(c_out)
        spec.append((k, stride, pad))
        c_in = c_out
    params["wf"] = 0.5 * rng.standard_normal((1, c_in) + (1,) * rank)
    params["bf"] = 0.2 * rng.standard_normal(1)
    xv = rng.standard_normal((1,) + (side,) * rank)

    def forward(leaves):
        h = ag.leaf(xv)
        for d, (k, stride, pad) in enumerate(spec):
            h = ag.conv(h, leaves[f"w{d}"], leaves[f"b{d}"],
                        stride=stride, pad=pad)
            h = ag.leaky_relu(h)
        h = ag.conv(h, leaves["wf"], leaves["bf"])
        return ag.mean_all(ag.mul(h, h))

    return params, forward


def test_criterion_01_gradients_match_finite_differences(capsys):
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        rank = 2 if trial % 2 == 0 else 3
        params, forward = _random_net(rng, rank)
        leaves = {k: ag.leaf(v) for k, v in params.items()}
        grads = ag.backward(forward(leaves), leaves)
        for name, value in params.items():
            def f(v, name=name):
                trial_leaves = {k: ag.leaf(x) for k, x in params.items()}
                trial_leaves[name] = ag.leaf(v)
                return forward(trial_leaves).data.item()
            fd = np.zeros_like(value)
            it = np.nditer(value, flags=["multi_index"])
            eps = 1e-5
            while not it.finished:
                idx = it.multi_index
                up = value.copy()
                up[idx] += eps
                dn = value.copy()
                dn[idx] -= eps
                fd[idx] = (f(up) - f(dn)) / (2 * eps)
                it.iternext()
            denom = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd)),
                               1e-6)
            worst = max(worst, float(np.max(np.abs(grads[name] - fd) / denom)))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    _report(capsys, 1, "autodiff-vs-finite-differences", ok,
            f"20 nets, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. quantizer equals brute-force cosine scan; norms; scale invariance
# ---------------------------------------------------------------------------

def test_criterion_02_quantizer_brute_force_norms_scale(capsys):
    rng = np.random.default_rng(7)
    mismatches = 0
    for trial in range(10_000):
        k = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 9))
        book = Codebook(n_codes=k, dim=dim, seed=trial)
        codes = rng.standard_normal((k, dim))
        if trial % 10 == 0 and k >= 2:
            codes[1] = codes[0]  # exact duplicate: ties must pick index 0
        book.codes = codes / np.linalg.norm(codes, axis=1, keepdims=True)
        book.initialized = True
        m = int(rng.integers(1, 9))
        x = rng.standard_normal((m, dim))
        if trial % 17 == 0:
            x[0] = 0.0  # zero row -> e0 convention, shared with the oracle
        got = quantize(book, x).indices
        want = brute_force_assign(x, book.codes)
        if not np.array_equal(got, want):
            mismatches += 1

    worst_norm = 0.0
    for trial in range(300):
        book = Codebook(n_codes=4, dim=6, seed=trial)
        book.codes = rng.standard_normal((4, 6))
        book.codes /= np.linalg.norm(book.codes, axis=1, keepdims=True)
        book.initialized = True
        for _ in range(5):
            x = rng.standard_normal((12, 6))
            res = quantize(book, x)
            ema_update(book, res.unit_rows, res.indices)
            expire_stale(book, res.unit_rows)
        worst_norm = max(worst_norm, float(np.max(np.abs(
            np.linalg.norm(book.codes, axis=1) - 1.0))))

    scale_breaks = 0
    for trial in range(1000):
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 7))
        book = Codebook(n_codes=k, dim=dim, seed=trial)
        book.codes = rng.standard_normal((k, dim))
        book.codes /= np.linalg.norm(book.codes, axis=1, keepdims=True)
        book.initialized = True
        x = rng.standard_normal((5, dim))
        factors = rng.uniform(0.1, 10.0, (5, 1))
        a = quantize(book, x).indices
        b = quantize(book, x * factors).indices
        if not np.array_equal(a, b):
            scale_breaks += 1

    ok = mismatches == 0 and worst_norm <= 1e-6 and scale_breaks == 0
    _report(capsys, 2, "quantizer-brute-force-and-invariances", ok,
            f"10000 exact, norm dev {worst_norm:.1e}, 1000 scale trials")
    assert mismatches == 0
    assert worst_norm <= 1e-6
    assert scale_breaks == 0


# ---------------------------------------------------------------------------
# 3. straight-through estimator copies gradients bitwise
# ---------------------------------------------------------------------------

def test_criterion_03_straight_through_bitwise(capsys):
    rng = np.random.default_rng(11)
    bad = 0
    for _ in range(200):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        xv = rng.standard_normal(shape)
        qv = rng.standard_normal(shape)
        mv = rng.standard_normal(shape)

        x1 = ag.leaf(xv)
        st = ag.straight_through(x1, qv)
        g1 = ag.backward(ag.mean_all(ag.mul(st, ag.leaf(mv))), {"x": x1})["x"]

        x2 = ag.leaf(xv)
        g2 = ag.backward(ag.mean_all(ag.mul(x2, ag.leaf(mv))), {"x": x2})["x"]

        if not np.array_equal(st.data, qv):
            bad += 1
        if not np.array_equal(g1, g2):
            bad += 1
    ok = bad == 0
    _report(capsys, 3, "straight-through-bitwise", ok, "200 cases, forward and grad")
    assert bad == 0


# ---------------------------------------------------------------------------
# 4. body contour equals border-BFS flood fill
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def phantom_cohort():
    return [generate_phantom_pair((96, 96, 96), [int(E2E_PHANTOM_SEED), i])
            for i in range(5)]


def test_criterion_04_hole_fill_matches_flood_fill(capsys, phantom_cohort):
    rng = np.random.default_rng(13)
    bad_random = 0
    for _ in range(1000):
        h = int(rng.integers(12, 25))
        w = int(rng.integers(12, 25))
        density = rng.uniform(0.25, 0.75)
        sl = np.where(rng.random((h, w)) < density, 50.0, -1000.0)
        vol = Volume(sl[:, :, None], (1, 1, 1), "HU", {})
        if not np.array_equal(body_contour(vol)[:, :, 0],
                              flood_fill_body(sl)):
            bad_random += 1

    bad_phantom = 0
    lungs_out = 0
    air_in = 0
    for ct, _, truth in phantom_cohort:
        mask = body_contour(ct)
        for z in range(mask.shape[2]):
            if not np.array_equal(mask[:, :, z],
                                  flood_fill_body(ct.voxels[:, :, z])):
                bad_phantom += 1
        lungs_out += int((~mask[truth.labels == LABEL_LUNG]).sum())
        air_in += int(mask[:3, :3, :3].sum() + mask[-3:, -3:, -3:].sum())

    ok = bad_random == 0 and bad_phantom == 0 and lungs_out == 0 and air_in == 0
    _report(capsys, 4, "hole-fill-vs-border-bfs", ok,
            f"1000 random slices + {5 * 96} phantom slices, lungs in, air out")
    assert bad_random == 0
    assert bad_phantom == 0
    assert lungs_out == 0
    assert air_in == 0


# ---------------------------------------------------------------------------
# 5. metric identities, oracles, monotonicity, partitions
# ---------------------------------------------------------------------------

def test_criterion_05_metric_properties(capsys):
    rng = np.random.default_rng(17)
    worst_loop = 0.0
    worst_ident = 0.0
    for _ in range(100):
        shape = (int(rng.integers(12, 17)), int(rng.integers(12, 17)),
                 int(rng.integers(2, 4)))
        g = rng.uniform(-1000, 2000, shape)
        p = g + rng.normal(0, 100, shape)
        m = rng.random(shape) < 0.7
        m[0, 0, 0] = True
        worst_loop = max(
            worst_loop,
            abs(mae(p, g, m) - mae_loop(p, g, m)) / mae_loop(p, g, m),
            abs(psnr(p, g, m) - psnr_loop(p, g, m)) / abs(psnr_loop(p, g, m)))
        c = float(rng.uniform(-300, 300))
        worst_ident = max(
            worst_ident,
            abs(mae(g + c, g, m) - abs(c)) / max(abs(c), 1e-6),
            mae(g, g, m))
        body = body_contour(Volume(g, (1, 1, 1), "HU", {}))
        if body.any():
            regions = region_masks(g)
            assert np.array_equal(regions["soft"] | regions["bone"],
                                  regions["whole"])
            assert not (regions["soft"] & regions["bone"]).any()

    # PSNR strictly decreases as MSE increases
    base = np.zeros((8, 8, 8))
    full = np.ones(base.shape, dtype=bool)
    series = [psnr(base + off, base, full) for off in (0.5, 2.0, 8.0, 64.0)]
    monotone = all(a > b for a, b in zip(series, series[1:]))

    # identical volumes are perfect
    sample = rng.uniform(-500, 1500, (16, 16, 2))
    fullm = np.ones(sample.shape, dtype=bool)
    perfect = (mae(sample, sample, fullm) == 0.0
               and psnr(sample, sample, fullm) == math.inf
               and abs(ssim(sample, sample, fullm) - 1.0) < 1e-12)

    # DSC symmetry on random HU volumes
    sym_ok = True
    for _ in range(20):
        a = Volume(rng.uniform(-1000, 1200, (10, 10, 4)), (1, 1, 1), "HU", {})
        b = Volume(rng.uniform(-1000, 1200, (10, 10, 4)), (1, 1, 1), "HU", {})
        for region in ("whole", "soft", "bone"):
            if dsc(a, b, region) != dsc(b, a, region):
                sym_ok = False

    # Wilcoxon W invariant when both samples shift together
    shift_ok = True
    for _ in range(20):
        x = rng.integers(0, 50, 10).astype(np.float64)
        y = rng.integers(0, 50, 10).astype(np.float64)
        y += np.where(x == y, 2.0, 0.0)
        c = float(rng.integers(-64, 64))
        if wilcoxon_signed_rank(x, y)[0] != wilcoxon_signed_rank(x + c, y + c)[0]:
            shift_ok = False

    # SSIM against explicit per-window evaluation
    worst_ssim = 0.0
    for _ in range(5):
        p2 = rng.uniform(-1000, 2000, (16, 16, 1))
        g2 = p2 + rng.normal(0, 150, p2.shape)
        for _ in range(10):
            ci = int(rng.integers(5, 11))
            cj = int(rng.integers(5, 11))
            m2 = np.zeros(p2.shape, dtype=bool)
            m2[ci, cj, 0] = True
            got = ssim(p2, g2, m2)
            want = ssim_window(p2[:, :, 0], g2[:, :, 0], ci, cj)
            worst_ssim = max(worst_ssim, abs(got - want))

    ok = (worst_loop <= 1e-9 and worst_ident <= 1e-9 and monotone
          and perfect and sym_ok and shift_ok and worst_ssim <= 1e-6)
    _report(capsys, 5, "metric-identities-and-oracles", ok,
            f"loop dev {worst_loop:.1e}, ssim dev {worst_ssim:.1e}")
    assert worst_loop <= 1e-9
    assert worst_ident <= 1e-9
    assert monotone and perfect and sym_ok and shift_ok
    assert worst_ssim <= 1e-6


# ---------------------------------------------------------------------------
# 6. exact Wilcoxon equals full enumeration
# ---------------------------------------------------------------------------

def test_criterion_06_wilcoxon_exact_enumeration(capsys):
    rng = np.random.default_rng(19)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(5, 13))
        x = rng.integers(-5, 6, n).astype(np.float64)
        y = rng.integers(-5, 6, n).astype(np.float64)
        if np.count_nonzero(x - y) < 5:
            x = x + np.where(x == y, 1.0, 0.0)
        w_got, p_got = wilcoxon_signed_rank(x, y)
        w_want, p_want = wilcoxon_enum(x, y)
        if abs(w_got - w_want) > 1e-12 or abs(p_got - p_want) > 1e-12:
            bad += 1
    w, p = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0],
                                [2.0, 4.0, 6.0, 8.0, 10.0])
    pinned = (w == 0.0 and abs(p - 0.0625) < 1e-15)
    ok = bad == 0 and pinned
    _report(capsys, 6, "wilcoxon-exact-vs-enumeration", ok,
            f"100 trials n<=12, pinned example p={p}")
    assert bad == 0
    assert pinned


# ---------------------------------------------------------------------------
# 7. median fusion and slice/restack round trips
# ---------------------------------------------------------------------------

def test_criterion_07_fusion_and_slicing(capsys):
    rng = np.random.default_rng(23)
    bad = 0
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(4, 8, 3))
        vols = [Volume(rng.uniform(-500, 500, dims), (1, 1, 1), "HU", {})
                for _ in range(3)]
        fused = fuse_median(*vols).voxels
        flat = [v.voxels.ravel() for v in vols]
        for i in range(fused.size):
            if fused.ravel()[i] != sorted((flat[0][i], flat[1][i],
                                           flat[2][i]))[1]:
                bad += 1
                break
        for order in itertools.permutations(range(3)):
            if not np.array_equal(
                    fuse_median(*(vols[i] for i in order)).voxels, fused):
                bad += 1
        if not np.array_equal(fuse_median(vols[0], vols[0], vols[0]).voxels,
                              vols[0].voxels):
            bad += 1

    round_trips = 0
    for _ in range(10):
        dims = tuple(int(d) for d in rng.integers(3, 9, 3))
        vol = Volume(rng.uniform(-500, 500, dims), (1, 1, 1), "HU", {})
        for plane in ("axial", "coronal", "sagittal"):
            back = restack_slices(slice_volume(vol, plane), plane)
            if np.array_equal(back, vol.voxels):
                round_trips += 1
    ok = bad == 0 and round_trips == 30
    _report(capsys, 7, "median-fusion-and-slice-round-trip", ok,
            f"20 fuse oracles, {round_trips}/30 bit-exact round trips")
    assert bad == 0
    assert round_trips == 30


# ---------------------------------------------------------------------------
# 8. freeze modes: encoder bytes pinned, scratch reinitializes
# ---------------------------------------------------------------------------

def _hash_params(ckpt, selector):
    digest = hashlib.sha256()
    for name in sorted(ckpt.params):
        if selector(name):
            digest.update(name.encode())
            digest.update(ckpt.params[name].tobytes())
    return digest.hexdigest()


def test_criterion_08_freeze_modes(capsys):
    pairs = [generate_phantom_pair((32, 32, 32), [31, i]) for i in range(2)]
    config = ModelConfig(spatial_rank=2, depth=2, base_channels=4,
                         codebook_size=8, codebook_dim=6, pyramid_levels=1,
                         seed=0)
    pre_vols = [normalize(ct, "unit01") for ct, _, _ in pairs]
    base = pretrain_recon(config, pre_vols, steps=30, seed=0,
                          learning_rate=1e-3, batch_size=4).checkpoint

    pet_slices, ct_slices = [], []
    for ct, pet, _ in pairs:
        pet_n = normalize(pet, "sym11")
        ct_n = normalize(ct, "sym11")
        for plane in ("axial", "coronal", "sagittal"):
            pet_slices.extend(slice_volume(pet_n, plane))
            ct_slices.extend(slice_volume(ct_n, plane))

    mask = mask_for_mode("enc-frozen")
    trainable = set(apply_freeze(base, mask))
    frozen_names = set(base.params) - trainable

    def enc_sel(name):
        return name in frozen_names

    def dec_sel(name):
        return name in trainable

    before_enc = _hash_params(base, enc_sel)
    tuned = finetune_translate(base, "enc-frozen", pet_slices, ct_slices,
                               steps=200, seed=1, learning_rate=1e-3,
                               batch_size=4).checkpoint
    after_enc = _hash_params(tuned, enc_sel)
    dec_changed = _hash_params(base, dec_sel) != _hash_params(tuned, dec_sel)
    codes_frozen = all(
        np.array_equal(a.codes, b.codes)
        for a, b in zip(base.codebooks, tuned.codebooks))

    scratch0 = finetune_translate(base, "scratch", pet_slices, ct_slices,
                                  steps=0, seed=1).checkpoint
    keep0 = finetune_translate(base, "no-frozen", pet_slices, ct_slices,
                               steps=0, seed=1).checkpoint
    reinit_differs = any(
        not np.array_equal(scratch0.params[n], keep0.params[n])
        for n in base.params)

    ok = (before_enc == after_enc and codes_frozen and dec_changed
          and reinit_differs)
    _report(capsys, 8, "freeze-modes", ok,
            f"encoder hash stable over 200 steps, decoder changed, "
            f"scratch reinit differs")
    assert before_enc == after_enc
    assert codes_frozen
    assert dec_changed
    assert reinit_differs


# ---------------------------------------------------------------------------
# 9 and 10. end-to-end pipeline, twice, byte-identical
# ---------------------------------------------------------------------------

def _run_cli(workdir, args):
    env = dict(os.environ)
    # the subprocess runs in workdir, so a relative PYTHONPATH would not
    # find the package; put the directory it was imported from first
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(vqsct.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "vqsct.cli", *args],
                          cwd=workdir, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, (args, proc.stderr[-2000:])
    return proc


def _e2e_pipeline(root):
    """Run phantom -> pretrain -> 3x(finetune, translate, evaluate)."""
    os.makedirs(root, exist_ok=True)
    cases = os.path.join(root, "cases")
    _run_cli(root, ["phantom", "--out", cases, "--cases", "5",
                    "--dims", E2E_DIMS, "--seed", E2E_PHANTOM_SEED])
    cts = [os.path.join(cases, f"case_{i:03d}_ct.mvol") for i in range(5)]
    pets = [os.path.join(cases, f"case_{i:03d}_pet.mvol") for i in range(5)]

    pre = os.path.join(root, "pre.vqck")
    _run_cli(root, ["pretrain", "--volumes", *cts[:4], "--out", pre,
                    *E2E_MODEL, *E2E_TRAIN, "--seed", E2E_PRETRAIN_SEED])

    artifacts = {"pre": pre}
    for mode in MODES:
        ck = os.path.join(root, f"{mode}.vqck")
        _run_cli(root, ["finetune", "--base", pre, "--mode", mode,
                        "--pet", *pets[:4], "--ct", *cts[:4], "--out", ck,
                        *E2E_TRAIN, *E2E_FINETUNE_EXTRA,
                        "--seed", E2E_FINETUNE_SEED])
        sct = os.path.join(root, f"{mode}_sct.mvol")
        _run_cli(root, ["translate", "--ckpt", ck, "--pet", pets[4],
                        "--out", sct])
        report = os.path.join(root, f"{mode}_report.csv")
        _run_cli(root, ["evaluate", "--pred", sct, "--gt", cts[4],
                        "--out", report, "--case-id", "holdout"])
        artifacts[mode] = {"ckpt": ck, "sct": sct, "report": report,
                           "history": f"{ck}.history.csv"}
    artifacts["gt"] = cts[4]
    return artifacts


@pytest.fixture(scope="module")
def e2e_second(tmp_path_factory):
    """The criterion-10 rerun, started before the first pass.

    Each CLI subprocess uses one BLAS thread, so with two or more CPUs the
    two passes run side by side; on one CPU the rerun starts only when
    criterion 10 asks for it, so criterion 09's wall time is not shared.
    """
    root = str(tmp_path_factory.mktemp("e2e_b"))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        yield lambda: _e2e_pipeline(root)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool.submit(_e2e_pipeline, root).result


@pytest.fixture(scope="module")
def e2e_first(tmp_path_factory, e2e_second):
    root = tmp_path_factory.mktemp("e2e_a")
    start = time.time()
    artifacts = _e2e_pipeline(str(root))
    artifacts["elapsed"] = time.time() - start
    return artifacts


def _l1_at_step(history_path, step):
    with open(history_path) as fh:
        rows = fh.read().splitlines()
    fields = rows[step].split(",")  # rows[0] is the header
    assert fields[0] == str(step)
    return float(fields[1])


def test_criterion_09_end_to_end_quality_and_time(capsys, e2e_first):
    from vqsct.volume import read_volume

    gt = read_volume(e2e_first["gt"])
    body = body_contour(gt)
    water = float(np.abs(np.clip(gt.voxels, HU_MIN, HU_MAX))[body].mean())

    maes = {}
    for mode in MODES:
        rows = read_report_csv(e2e_first[mode]["report"])
        maes[mode] = next(r["value"] for r in rows
                          if r["region"] == "whole" and r["metric"] == "mae")
    under_water = all(maes[m] < water for m in MODES)

    l1_50 = {m: _l1_at_step(e2e_first[m]["history"], 50) for m in MODES}
    early = (l1_50["no-frozen"] <= l1_50["scratch"]
             and l1_50["enc-frozen"] <= l1_50["scratch"])

    elapsed = e2e_first["elapsed"]
    ok = under_water and early and elapsed < 900.0
    detail = (f"water {water:.0f}, "
              + ", ".join(f"{m} {maes[m]:.0f}" for m in MODES)
              + f"; L1@50 " + ", ".join(f"{m} {l1_50[m]:.3f}" for m in MODES)
              + f"; {elapsed:.0f}s")
    _report(capsys, 9, "end-to-end-pipeline", ok, detail)
    for mode in MODES:
        assert maes[mode] < water, (mode, maes[mode], water)
    assert early, l1_50
    assert elapsed < 900.0


def test_criterion_10_end_to_end_reproducible(capsys, e2e_first, e2e_second):
    second = e2e_second()

    def same(a, b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()

    checks = [("pre.vqck", same(e2e_first["pre"], second["pre"]))]
    for mode in MODES:
        checks.append((f"{mode}.vqck",
                       same(e2e_first[mode]["ckpt"], second[mode]["ckpt"])))
        checks.append((f"{mode}_sct.mvol",
                       same(e2e_first[mode]["sct"], second[mode]["sct"])))
        checks.append((f"{mode}_report.csv",
                       same(e2e_first[mode]["report"], second[mode]["report"])))
    bad = [name for name, okay in checks if not okay]
    ok = not bad
    _report(capsys, 10, "end-to-end-byte-identical", ok,
            f"{len(checks)} artifacts compared" + (f"; differ: {bad}" if bad else ""))
    assert not bad


# ---------------------------------------------------------------------------
# 11. checkpoint selection prefers the lower-MSE candidate
# ---------------------------------------------------------------------------

def test_criterion_11_checkpoint_selection(capsys):
    vol = generate_texture_volume((24, 24, 24), seed=77)
    normed = normalize(vol, "unit01")
    config = ModelConfig(spatial_rank=2, depth=2, base_channels=4,
                         codebook_size=16, codebook_dim=8, pyramid_levels=1,
                         seed=0)
    good = pretrain_recon(config, [normed], steps=80, seed=0,
                          learning_rate=2e-3, batch_size=8).checkpoint

    flat = pretrain_recon(config, [normed], steps=0, seed=0).checkpoint
    head = [n for n in flat.params if n.endswith(".w")][-1]
    flat.params[head] = np.zeros_like(flat.params[head])
    bias = head[:-2] + ".b"
    if bias in flat.params:
        flat.params[bias] = np.zeros_like(flat.params[bias])

    def mse_of(ckpt):
        fused = translate_volume(ckpt, normed).fused
        target = np.clip(vol.voxels, HU_MIN, HU_MAX)
        return float(((fused.voxels - target) ** 2).mean())

    best = select_checkpoint([flat, good], [vol])
    mses = (mse_of(flat), mse_of(good))
    ok = best is good and mses[1] < mses[0]
    _report(capsys, 11, "checkpoint-selection", ok,
            f"identity-quality MSE {mses[1]:.0f} vs constant {mses[0]:.0f}")
    assert best is good
    assert mses[1] < mses[0]
