"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import euler_characteristic, finite_difference, random_topology, reference_pool
from woundfill import (
    Architecture,
    Autoencoder,
    Mesh,
    ScarRanges,
    boundary_loops,
    build_hierarchy,
    extract_filling,
    fill_holes,
    generate_scar,
    icosahedron,
    icosphere,
    is_watertight,
    make_dataset,
    mean_edge_length,
    outlier_indices,
    reconstruction_loss,
    sample_scar_spec,
    signed_volume,
    synth_head,
    vertex_distance,
)
from woundfill.ops import (
    VdParams,
    elu,
    elu_backward,
    init_vc_conv,
    init_vd,
    vc_conv,
    vc_conv_backward,
    vd_res,
    vd_res_backward,
)
from woundfill.train import TrainSettings, evaluate, train


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# --- 1. gradient correctness -------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst_overall = 0.0
    n_instances = 20

    for case in range(n_instances):
        rng = np.random.default_rng([1, case])

        # vcConv
        topo = random_topology(rng, int(rng.integers(5, 9)), int(rng.integers(3, 6)))
        i_dim, o_dim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = init_vc_conv(rng, topo, i_dim, o_dim)
        params.basis = rng.normal(size=params.basis.shape)
        params.coeffs = rng.normal(size=params.coeffs.shape)
        params.bias = rng.normal(size=params.bias.shape)
        x = rng.normal(size=(topo.n_in, i_dim))
        w = rng.normal(size=(topo.n_out, o_dim))
        dx, grads = vc_conv_backward(params, topo, vc_conv(params, topo, x)[1], w)
        worst_overall = max(worst_overall, finite_difference(
            lambda: float((w * vc_conv(params, topo, x)[0]).sum()),
            [x, params.basis, params.coeffs, params.bias],
            [dx, grads["basis"], grads["coeffs"], grads["bias"]],
        ))

        # vcTransConv on the same topology
        tr = topo.transposed
        pt = init_vc_conv(rng, tr, o_dim, i_dim)
        pt.basis = rng.normal(size=pt.basis.shape)
        pt.coeffs = rng.normal(size=pt.coeffs.shape)
        xt = rng.normal(size=(topo.n_out, o_dim))
        wt = rng.normal(size=(topo.n_in, i_dim))
        dxt, gt = vc_conv_backward(pt, tr, vc_conv(pt, tr, xt)[1], wt)
        worst_overall = max(worst_overall, finite_difference(
            lambda: float((wt * vc_conv(pt, tr, xt)[0]).sum()),
            [xt, pt.basis, pt.coeffs, pt.bias],
            [dxt, gt["basis"], gt["coeffs"], gt["bias"]],
        ))

        # vdPool / vdUnpool (vd_res without a matrix on both orientations)
        vd = VdParams(rho=rng.normal(size=topo.edge_count) + 0.2)
        wp = rng.normal(size=(topo.n_out, i_dim))
        dxp, gp = vd_res_backward(vd, topo, vd_res(vd, topo, x)[1], wp)
        worst_overall = max(worst_overall, finite_difference(
            lambda: float((wp * vd_res(vd, topo, x)[0]).sum()),
            [x, vd.rho], [dxp, gp["rho"]],
        ))
        vdu = VdParams(rho=rng.normal(size=tr.edge_count) + 0.2)
        wu = rng.normal(size=(tr.n_out, o_dim))
        dxu, gu = vd_res_backward(vdu, tr, vd_res(vdu, tr, xt)[1], wu)
        worst_overall = max(worst_overall, finite_difference(
            lambda: float((wu * vd_res(vdu, tr, xt)[0]).sum()),
            [xt, vdu.rho], [dxu, gu["rho"]],
        ))

        # vdRes with a projection matrix
        vr = VdParams(rho=rng.normal(size=topo.edge_count) + 0.2,
                      matrix=rng.normal(size=(o_dim, i_dim)))
        wr = rng.normal(size=(topo.n_out, o_dim))
        dxr, gr = vd_res_backward(vr, topo, vd_res(vr, topo, x)[1], wr)
        worst_overall = max(worst_overall, finite_difference(
            lambda: float((wr * vd_res(vr, topo, x)[0]).sum()),
            [x, vr.rho, vr.matrix], [dxr, gr["rho"], gr["matrix"]],
        ))

        # ELU
        xe = rng.normal(size=(6, 3))
        we = rng.normal(size=(6, 3))
        dxe = elu_backward(xe, we)
        worst_overall = max(worst_overall, finite_difference(
            lambda: float((we * elu(xe)).sum()), [xe], [dxe],
        ))

    # end-to-end 2-level autoencoder with the mean-distance loss
    mesh = icosahedron()
    arch = Architecture(ratios=(1.0, 0.35), widths=(3, 2))
    for case in range(n_instances):
        rng = np.random.default_rng([2, case])
        model = Autoencoder.build(mesh, arch, seed=int(rng.integers(0, 2**31)))
        x = mesh.positions + rng.normal(scale=0.1, size=mesh.positions.shape)
        target = mesh.positions + rng.normal(scale=0.1, size=mesh.positions.shape)

        def full_loss():
            return reconstruction_loss(model.forward(x), target, "l2")[0]

        out, cache = model.forward(x, keep_cache=True)
        _, gout = reconstruction_loss(out, target, "l2")
        grads = model.backward(cache, gout)
        gin = model.input_gradient(cache, gout)
        params = model.parameters()
        worst_overall = max(worst_overall, finite_difference(
            full_loss,
            list(params.values()) + [x],
            [grads[k] for k in params] + [gin],
        ))

    elapsed = time.time() - t0
    report(1, "gradient correctness", worst_overall < 1e-4 and elapsed < 60.0,
           f"max rel err {worst_overall:.3e}, {elapsed:.1f}s")


# --- 2. pooling equivalence ----------------------------------------------------


def test_criterion_2_pooling_equivalence():
    worst_eq = 0.0
    worst_norm = 0.0
    for case in range(100):
        rng = np.random.default_rng([3, case])
        topo = random_topology(rng, int(rng.integers(4, 20)), int(rng.integers(2, 10)))
        x = rng.normal(size=(topo.n_in, int(rng.integers(1, 6))))
        const = float(rng.uniform(0.1, 5.0))
        equal = VdParams(rho=np.full(topo.edge_count, const))
        diff = np.abs(vd_res(equal, topo, x)[0] - reference_pool(topo, x)).max()
        worst_eq = max(worst_eq, float(diff))

        rho = rng.normal(size=topo.edge_count)
        for s, e in zip(topo.indptr[:-1], topo.indptr[1:]):
            if np.abs(rho[s:e]).sum() == 0:
                rho[s] = 1.0
        weights = np.abs(rho)
        sums = np.add.reduceat(weights, topo.indptr[:-1])
        norm = weights / np.repeat(sums, np.diff(topo.indptr))
        per_row = np.add.reduceat(norm, topo.indptr[:-1])
        worst_norm = max(worst_norm, float(np.abs(per_row - 1.0).max()))
    report(2, "pooling equivalence", worst_eq <= 1e-12 and worst_norm <= 1e-12,
           f"avg-pool diff {worst_eq:.2e}, normalization err {worst_norm:.2e}")


# --- 3. hole filling -------------------------------------------------------------


def _plant_holes(mesh: Mesh, rng) -> tuple[Mesh, list[int]]:
    """Remove single faces or edge-adjacent pairs, pairwise vertex-disjoint."""
    faces = mesh.faces
    n_holes = int(rng.integers(1, 4))
    used: set[int] = set()
    removed: list[int] = []
    loop_lengths: list[int] = []
    order = rng.permutation(len(faces))
    for fi in order:
        if len(loop_lengths) == n_holes:
            break
        tri = set(faces[fi].tolist())
        if tri & used:
            continue
        pair = bool(rng.integers(0, 2))
        if pair:
            partner = next(
                (j for j in range(len(faces))
                 if j != fi and j not in removed
                 and len(set(faces[j].tolist()) & tri) == 2
                 and not (set(faces[j].tolist()) - tri) & used),
                None,
            )
            if partner is not None:
                removed += [int(fi), int(partner)]
                used |= tri | set(faces[partner].tolist())
                loop_lengths.append(4)
                continue
        removed.append(int(fi))
        used |= tri
        loop_lengths.append(3)
    keep = np.ones(len(faces), dtype=bool)
    keep[removed] = False
    return Mesh(mesh.positions, faces[keep]), loop_lengths


def test_criterion_3_hole_filling():
    cases = 0
    failures = []
    base_meshes = [icosphere(1), icosphere(2), synth_head(5, 1), synth_head(9, 2)]
    case = 0
    while cases < 200:
        rng = np.random.default_rng([4, case])
        case += 1
        base = base_meshes[case % len(base_meshes)]
        holed, loop_lengths = _plant_holes(base, rng)
        if not loop_lengths:
            continue
        cases += 1
        loops = boundary_loops(holed)
        if sorted(len(l) for l in loops) != sorted(loop_lengths):
            failures.append(f"case {case}: loop lengths {sorted(len(l) for l in loops)}")
            continue
        filled = fill_holes(holed)
        if boundary_loops(filled):
            failures.append(f"case {case}: boundary remains")
        if filled.n_vertices != holed.n_vertices + len(loop_lengths):
            failures.append(f"case {case}: vertex delta wrong")
        if filled.n_faces != holed.n_faces + sum(loop_lengths):
            failures.append(f"case {case}: face delta wrong")
        if euler_characteristic(filled) != 2:
            failures.append(f"case {case}: euler {euler_characteristic(filled)}")
        if not is_watertight(filled):
            failures.append(f"case {case}: not watertight")
    report(3, "hole filling", cases >= 200 and not failures,
           f"{cases} cases" + (f"; first failure {failures[0]}" if failures else ""))


# --- 4. overfit surrogate ----------------------------------------------------------


def test_criterion_4_overfit_surrogate(tmp_path):
    t0 = time.time()
    data_dir = tmp_path / "overfit"
    manifest = make_dataset(data_dir, count=8, scars_per_mesh=1, seed=42,
                            split_ratios=(1.0, 0.0, 0.0), subdivisions=2)

    arch = Architecture(ratios=(1.0, 0.25), widths=(3, 16))
    settings = TrainSettings(lr=1e-3, batch_size=4, epochs=10**6, patience=10**6,
                             max_steps=1000, seed=0)
    result = train(manifest, data_dir, arch, settings, tmp_path / "run")

    from woundfill.checkpoint import load_checkpoint
    from woundfill.train import load_pairs

    model, _ = load_checkpoint(result.checkpoint_path)
    pairs = load_pairs(manifest, data_dir, "train")
    assert len(pairs) == 8
    assert all(g.n_vertices == 162 and w.n_vertices == 162 for _, w, g in pairs)
    gt0 = pairs[0][2]
    diag = float(np.linalg.norm(gt0.positions.max(0) - gt0.positions.min(0)))
    mean_dist = float(np.mean([
        vertex_distance(model.forward(w.positions), g.positions).mean()
        for _, w, g in pairs
    ]))

    rep = evaluate(model, manifest, data_dir, "train")
    stats_ok = (
        rep.min_vertex_distance <= rep.mean_vertex_distance <= rep.max_vertex_distance
        and rep.min_mesh_mean <= rep.max_mesh_mean
    )

    # the window-50 smoothed training curve never rises on this run
    losses = np.array([v for _, split, v in result.history if split == "train"])
    smooth = np.convolve(losses, np.ones(50) / 50, mode="valid")
    curve_ok = bool((np.diff(smooth) <= 0).all())

    elapsed = time.time() - t0
    ok = (
        result.steps <= 2000
        and mean_dist < 0.05 * diag
        and stats_ok
        and curve_ok
        and elapsed < 600.0
    )
    report(4, "overfit surrogate", ok,
           f"mean dist {mean_dist:.4f} vs threshold {0.05 * diag:.4f}, "
           f"{result.steps} steps, smoothed curve monotone {curve_ok}, {elapsed:.0f}s")


# --- 5. outlier rule vs brute force --------------------------------------------------


def exact_outliers(values, k_sigma) -> set[int]:
    vals = [Fraction(v) for v in values]
    n = len(vals)
    mu = sum(vals) / n
    var = sum((v - mu) ** 2 for v in vals) / n
    k2 = Fraction(k_sigma) ** 2
    return {i for i, v in enumerate(vals) if (v - mu) ** 2 > k2 * var}


def test_criterion_5_outlier_rule_oracle():
    mismatches = 0
    sigma_zero_cases = 0
    for case in range(1000):
        rng = np.random.default_rng([5, case])
        n = int(rng.integers(1, 50))
        kind = case % 5
        if kind == 0:
            d = np.full(n, float(rng.uniform(0, 9)))
            sigma_zero_cases += 1
        elif kind == 1:
            d = rng.integers(0, 5, size=n).astype(float)
        elif kind == 2:
            d = np.abs(rng.normal(scale=rng.uniform(0.01, 10), size=n))
        else:
            d = rng.uniform(0, 10, size=n)
        k = 2.0 if case % 3 else float(rng.uniform(0.5, 4.0))
        ours = set(outlier_indices(d, k).tolist())
        oracle = exact_outliers(d.tolist(), k)
        if ours != oracle:
            mismatches += 1
    report(5, "outlier rule vs oracle", mismatches == 0 and sigma_zero_cases >= 100,
           f"{mismatches} mismatches over 1000 multisets "
           f"({sigma_zero_cases} with sigma=0)")


# --- 6. filling extraction -----------------------------------------------------------


def test_criterion_6_filling_extraction():
    n_cases = 50
    iou_hits = 0
    bad_solids = []
    for case in range(n_cases):
        rng = np.random.default_rng([6, case])
        head = synth_head(int(rng.integers(0, 2**63)), 3)
        spec = sample_scar_spec(rng, head.n_vertices, mean_edge_length(head),
                                ScarRanges(radius=(3, 4)))
        wounded, mask = generate_scar(head, spec)
        rep = extract_filling(wounded, head, k_sigma=2.0)
        pred = set(rep.outliers.tolist())
        true = set(mask.affected.tolist())
        iou = len(pred & true) / len(pred | true)
        iou_hits += iou >= 0.6
        if rep.watertight:
            if not is_watertight(rep.filling) or signed_volume(rep.filling) <= 0:
                bad_solids.append(case)
        else:
            bad_solids.append(case)
    report(6, "filling extraction", iou_hits >= 0.9 * n_cases and not bad_solids,
           f"IoU>=0.6 on {iou_hits}/{n_cases}, bad solids: {bad_solids}")


# --- 7. determinism ---------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    # gen-data bytes
    make_dataset(tmp_path / "a", count=2, scars_per_mesh=2, seed=11, subdivisions=1,
                 split_ratios=(1.0, 0.0, 0.0))
    make_dataset(tmp_path / "b", count=2, scars_per_mesh=2, seed=11, subdivisions=1,
                 split_ratios=(1.0, 0.0, 0.0))
    gen_ok = all(
        f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
        for f in sorted((tmp_path / "a").iterdir())
    )

    # parameter init
    mesh = icosphere(1)
    arch = Architecture(ratios=(1.0, 0.3), widths=(3, 8))
    ma = Autoencoder.build(mesh, arch, seed=33)
    mb = Autoencoder.build(mesh, arch, seed=33)
    init_ok = all(
        np.array_equal(a, b)
        for a, b in zip(ma.parameters().values(), mb.parameters().values())
    )

    # 50-step training run
    from woundfill.scars import load_manifest

    manifest = load_manifest(tmp_path / "a" / "manifest.json")
    settings = TrainSettings(lr=1e-3, batch_size=4, epochs=10**6, patience=10**6,
                             max_steps=50, seed=3)
    ra = train(manifest, tmp_path / "a", arch, settings, tmp_path / "run_a")
    rb = train(manifest, tmp_path / "a", arch, settings, tmp_path / "run_b")
    train_ok = (
        ra.checkpoint_path.read_bytes() == rb.checkpoint_path.read_bytes()
        and ra.metrics_path.read_bytes() == rb.metrics_path.read_bytes()
    )
    report(7, "determinism", gen_ok and init_ok and train_ok,
           f"gen-data {gen_ok}, init {init_ok}, 50-step train {train_ok}")


# --- 8. scale/shift equivariance -----------------------------------------------------------


def test_criterion_8_outlier_equivariance():
    failures = 0
    for case in range(100):
        rng = np.random.default_rng([8, case])
        d = rng.uniform(0, 10, size=int(rng.integers(2, 80)))
        c = float(rng.uniform(0.05, 20.0))
        a = float(rng.uniform(-8.0, 8.0))
        base = outlier_indices(d).tolist()
        if outlier_indices(d * c).tolist() != base:
            failures += 1
        if outlier_indices(d + a).tolist() != base:
            failures += 1
    report(8, "outlier scale/shift equivariance", failures == 0,
           f"{failures} failures over 100 cases")
