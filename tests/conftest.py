import contextlib
import warnings
from collections import deque

import numpy as np
import pytest

from woundfill import Autoencoder, Mesh, icosahedron, icosphere, reconstruction_loss
from woundfill.hierarchy import ConvTopology, MeshHierarchy
from woundfill.ops import elu, elu_backward, vc_conv, vc_conv_backward, vd_res, vd_res_backward
from woundfill.train import load_pairs


@contextlib.contextmanager
def clamps_ignored():
    """Ignores make_dataset's documented scar radius clamp warning. A module-scoped fixture
    uses this, not the test's filterwarnings mark, because a mark covers the fixture only
    in the test that happens to set it up first."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"scar radius .* clamping", UserWarning)
        yield


@pytest.fixture
def ico():
    return icosahedron()


@pytest.fixture
def sphere2():
    return icosphere(2)


@pytest.fixture
def cube():
    """Unit cube triangulated into 12 faces with outward winding."""
    return make_cube()


def make_cube() -> Mesh:
    pos = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    quads = [
        (0, 3, 2, 1),  # bottom (z=0), outward -z
        (4, 5, 6, 7),  # top (z=1), outward +z
        (0, 1, 5, 4),  # y=0
        (1, 2, 6, 5),  # x=1
        (2, 3, 7, 6),  # y=1
        (3, 0, 4, 7),  # x=0
    ]
    faces = []
    for a, b, c, d in quads:
        faces.append([a, b, c])
        faces.append([a, c, d])
    return Mesh(pos, np.array(faces))


def random_topology(rng: np.random.Generator, n_in: int, n_out: int,
                    max_degree: int = 4) -> ConvTopology:
    """Random covering topology with ascending neighbor lists."""
    neigh = []
    for _ in range(n_out):
        k = int(rng.integers(1, max_degree + 1))
        neigh.append(np.sort(rng.choice(n_in, size=min(k, n_in), replace=False)))
    covered = np.unique(np.concatenate(neigh))
    for j, v in enumerate(np.setdiff1d(np.arange(n_in), covered)):
        neigh[j % n_out] = np.unique(np.append(neigh[j % n_out], v))
    indptr = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum([len(x) for x in neigh], out=indptr[1:])
    return ConvTopology(n_in, n_out, indptr, np.concatenate(neigh), basis_count=3)


# --- plain-numpy oracles: a check does not run through the code it checks ----------------


def _face_edges(mesh: Mesh) -> np.ndarray:
    """(3F, 2) vertex pairs of every face's three edges, each pair sorted."""
    f = mesh.faces
    return np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)


def reference_pool(topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    """Plain average pooling: output row i is the mean of x over its neighborhood's rows."""
    x = np.asarray(x, dtype=np.float64)
    return np.stack([x[topology.indices[topology.indptr[i]:topology.indptr[i + 1]]].mean(axis=0)
                     for i in range(topology.n_out)])


def k_ring(mesh: Mesh, center: int, k: int) -> np.ndarray:
    """Sorted vertices within k edge hops of center, by a set-based breadth-first walk."""
    edges = _face_edges(mesh)
    ring = frontier = {center}
    for _ in range(k):
        touched = np.isin(edges, list(frontier)).any(axis=1)
        frontier = set(edges[touched].ravel().tolist()) - ring
        ring = ring | frontier
    return np.array(sorted(ring), dtype=np.int64)


def reference_components(adj: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Component label per vertex by plain queue BFS from each unlabelled vertex in order,
    so components are numbered by their lowest vertex."""
    indptr, indices = adj
    label = [-1] * (len(indptr) - 1)
    count = 0
    for start in range(len(label)):
        if label[start] >= 0:
            continue
        label[start] = count
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in indices[indptr[u]:indptr[u + 1]].tolist():
                if label[w] < 0:
                    label[w] = count
                    queue.append(w)
        count += 1
    return np.array(label, dtype=np.int64)


def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F, the edges counted as distinct sorted vertex pairs."""
    return mesh.n_vertices - len(np.unique(_face_edges(mesh), axis=0)) + mesh.n_faces


def reference_stl_body(mesh: Mesh) -> bytes:
    """A binary STL after its 80-byte header, its normals formed the plain way: np.cross
    face normals divided by their np.linalg.norm lengths through a boolean mask, and set
    to zero where the length is zero."""
    p, f = mesh.positions, mesh.faces
    normals = np.cross(p[f[:, 1]] - p[f[:, 0]], p[f[:, 2]] - p[f[:, 0]])
    lens = np.linalg.norm(normals, axis=1)
    nz = lens > 0
    normals[nz] /= lens[nz, None]
    normals[~nz] = 0.0
    records = np.zeros(len(f), dtype=[("n", "<f4", (3,)), ("v", "<f4", (3, 3)), ("a", "<u2")])
    records["n"] = normals
    records["v"] = p[f]
    return np.uint32(len(f)).astype("<u4").tobytes() + records.tobytes()


def pinched_rim_pair() -> tuple[Mesh, Mesh]:
    """(wounded, reconstruction) whose one filling patch has a pinched rim.

    Seven unit cells of a flat grid, two triangles each, ring round the cell
    they leave out; two of them meet at one corner only, so the rim passes
    that vertex twice. The wounded copy sinks every grid vertex by 0.5; 200
    unreferenced vertices that do not move keep the grid's vertices the only
    outliers, and no face outside the patch can dilate it.
    """
    cells = [(1, 1), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2)]
    corners = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
    used = sorted({(c + dx, r + dy) for c, r in cells for dx, dy in corners})
    index = {v: i for i, v in enumerate(used)}
    faces = []
    for c, r in cells:
        a, b, p, d = (index[(c + dx, r + dy)] for dx, dy in corners)
        faces += [[a, b, p], [a, p, d]]
    grid = np.array([[x, y, 0.0] for x, y in used])
    pad = np.column_stack([np.arange(200.0), np.full(200, 50.0), np.zeros(200)])
    output = np.concatenate([grid, pad])
    wounded = output.copy()
    wounded[: len(grid), 2] = -0.5
    return Mesh(wounded, faces), Mesh(output, faces)


def format_2_hierarchy(h: MeshHierarchy) -> dict:
    """The header's hierarchy entry as checkpoint format 2 wrote it: index arrays as JSON lists."""
    def topology(t):
        return {"n_in": t.n_in, "n_out": t.n_out, "indptr": t.indptr.tolist(),
                "indices": t.indices.tolist(), "basis_count": t.basis_count}

    return {"levels": [lv.tolist() for lv in h.levels], "parents": [p.tolist() for p in h.parents],
            "conv_down": [topology(t) for t in h.conv_down],
            "pool_down": [topology(t) for t in h.pool_down], "faces_sha256": h.faces_sha256}


def reference_reverse(model, x: np.ndarray, grad_out: np.ndarray):
    """(output, parameter gradients, input gradient) of the model by the public operators.

    The forward keeps each block's input and conv output. The reverse walk runs
    each block's vc_conv and vd_res again on its kept input and passes those
    fresh saved arrays to their backwards, so no array the model's own forward
    cached reaches them; every block forms its d_x.
    """
    inputs = []
    for blk in model.blocks:
        h = vc_conv(blk.conv, blk.conv_topology, x)[0]
        inputs.append((x, h))
        x = elu(h) + vd_res(blk.res, blk.pool_topology, x)[0]
    grads, g = {}, grad_out
    for blk, (x_in, h) in zip(reversed(model.blocks), reversed(inputs)):
        conv_saved = vc_conv(blk.conv, blk.conv_topology, x_in)[1]
        res_saved = vd_res(blk.res, blk.pool_topology, x_in)[1]
        dx_conv, conv_grads = vc_conv_backward(blk.conv, blk.conv_topology, conv_saved,
                                               elu_backward(h, g))
        dx_res, res_grads = vd_res_backward(blk.res, blk.pool_topology, res_saved, g)
        for part, part_grads in (("conv", conv_grads), ("res", res_grads)):
            grads.update({f"{blk.name}.{part}.{k}": v for k, v in part_grads.items()})
        g = dx_conv + dx_res
    return x, grads, g


def reference_train(manifest, data_dir, architecture, settings) -> tuple[bytes, str]:
    """(parameter bytes of the kept checkpoint, metrics.csv text) of train() by a plain loop.

    It keeps one array per parameter name, loads them into the model before
    each forward, takes each sample's loss and gradient by its own
    reconstruction_loss call, takes the parameter gradients from
    reference_reverse, and runs Adam as written-out expressions per array.
    Batches, val batches, selection and early stopping follow train()'s rules.
    """
    pairs = load_pairs(manifest, data_dir, "train")
    val = load_pairs(manifest, data_dir, "val", pairs[0][2])
    model = Autoencoder.build(pairs[0][2], architecture, settings.seed)
    params = {k: v.copy() for k, v in model.parameters().items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    spec, b1, b2 = settings.loss, settings.beta1, settings.beta2

    def target(wounded, gt):
        return gt.positions if spec.target == "ground_truth" else wounded.positions

    def losses(batch):  # (model output, per-sample (loss, gradient)) at the current params
        model.set_parameters(params)
        out = model.forward(np.stack([w.positions for _, w, _ in batch], axis=1))
        return out, [reconstruction_loss(out[:, b], target(w, g), spec.metric)
                     for b, (_, w, g) in enumerate(batch)]

    rows, best, best_epoch, kept, t = ["epoch,split,loss"], np.inf, -1, None, 0
    for epoch in range(settings.epochs):
        order = np.random.default_rng([settings.seed, 1, epoch]).permutation(len(pairs))
        epoch_losses = []
        for start in range(0, len(order), settings.batch_size):
            batch = [pairs[i] for i in order[start:start + settings.batch_size]]
            out, per_sample = losses(batch)
            grad_out = np.stack([g for _, g in per_sample], axis=1)
            x = np.stack([w.positions for _, w, _ in batch], axis=1)
            grads = reference_reverse(model, x, grad_out)[1]
            t += 1
            for k in params:
                g = grads[k] * (1.0 / len(batch))
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                m_hat, v_hat = m[k] / (1 - b1 ** t), v[k] / (1 - b2 ** t)
                params[k] = params[k] - settings.lr * m_hat / (np.sqrt(v_hat) + settings.eps)
            total = 0.0
            for value, _ in per_sample:
                total += value
            epoch_losses.append(total * (1.0 / len(batch)))
            if settings.max_steps is not None and t >= settings.max_steps:
                break
        selection = float(np.mean(epoch_losses))
        rows.append(f"{epoch},train,{selection!r}")
        if val:
            total = 0.0
            for start in range(0, len(val), settings.batch_size):
                for value, _ in losses(val[start:start + settings.batch_size])[1]:
                    total += value
            selection = total / len(val)
            rows.append(f"{epoch},val,{selection!r}")
        if selection < best:
            best, best_epoch = selection, epoch
            kept = b"".join(p.tobytes() for p in params.values())
        if (settings.max_steps is not None and t >= settings.max_steps
                or epoch - best_epoch >= settings.patience):
            break
    return kept, "\n".join(rows) + "\n"


def finite_difference(fn, arrays, grads, h=1e-5, rng=None, samples=None):
    """Worst relative error between analytic grads and central differences.

    Perturbs every entry unless `samples` caps the count per array (chosen
    with `rng`). Arrays are modified in place and restored.
    """
    worst = 0.0
    for arr, g in zip(arrays, grads):
        flat = arr.ravel()
        gf = np.asarray(g).ravel()
        idx = range(flat.size)
        if samples is not None and flat.size > samples:
            idx = rng.choice(flat.size, size=samples, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            rel = abs(fd - gf[i]) / max(abs(fd), abs(gf[i]), 1e-6)
            worst = max(worst, rel)
    return worst
