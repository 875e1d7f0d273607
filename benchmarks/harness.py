"""Workloads, timed stages, output checks and metric assembly for the woundfill benchmark.

Every call into the program goes through a module attribute (for example
``train_mod.train``), so the tracer's wrappers see it. See README.md in this
directory for what each workload and metric is for.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tracing import ACTIVATIONS, Tracer

errors = importlib.import_module("woundfill.errors")
checkpoint_mod = importlib.import_module("woundfill.checkpoint")
filling_mod = importlib.import_module("woundfill.filling")
mesh_mod = importlib.import_module("woundfill.mesh")
meshio_mod = importlib.import_module("woundfill.meshio")
model_mod = importlib.import_module("woundfill.model")
scars_mod = importlib.import_module("woundfill.scars")
train_mod = importlib.import_module("woundfill.train")

SETUPS = 7  # set-ups per untraced run; setup_s is their median
MIN_REPS = 2  # the determinism checks compare repetitions, so never fewer
WALL_LIMIT_S = 150.0  # stop repeating past this, whatever --seconds says


@dataclass(frozen=True)
class Workload:
    name: str
    heads: int
    scars_per_head: int
    subdivisions: int
    radius: tuple[int, int] = (3, 8)
    ratios: tuple[float, ...] = ()  # empty: no network (fill only)
    widths: tuple[int, ...] = ()
    max_steps: int = 0
    batch_size: int = 4

    @property
    def trains(self) -> bool:
        return bool(self.ratios)


# Split ratios are the README's 0.8/0.1/0.1, so ten heads give non-empty val
# and test splits. Patience is out of reach: every run takes max_steps steps.
WORKLOADS = {
    "train-desk": Workload("train-desk", heads=10, scars_per_head=4, subdivisions=2,
                           ratios=(1.0, 0.25), widths=(3, 16), max_steps=8),
    "train-deep": Workload("train-deep", heads=10, scars_per_head=1, subdivisions=4,
                           ratios=(1.0, 0.25, 0.0625), widths=(3, 16, 32), max_steps=1),
    "scar-fill": Workload("scar-fill", heads=4, scars_per_head=5, subdivisions=4, radius=(3, 4)),
}

# Smallest sizes that still run every stage; used by the smoke tests.
TINY = {
    "train-desk": dict(scars_per_head=1, max_steps=2),
    "train-deep": dict(subdivisions=3, max_steps=1),
    "scar-fill": dict(heads=2, scars_per_head=2, subdivisions=3),
}


def workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


# --- small helpers --------------------------------------------------------


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tail_percentile(n: int) -> int:
    """Highest of p90/p95/p99 with at least ten samples beyond it (0 if none)."""
    best = 0
    for p in (90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def training_samples(n_train: int, batch_size: int, max_steps: int) -> int:
    """Samples train() consumes: full epochs of batches, cut at max_steps."""
    per_epoch = [min(batch_size, n_train - s) for s in range(0, n_train, batch_size)]
    steps, total = 0, 0
    while steps < max_steps:
        for size in per_epoch:
            total += size
            steps += 1
            if steps >= max_steps:
                break
    return total


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


# --- counters filled while tracing ---------------------------------------


def _path_arg(args, kwargs, index, name):
    return Path(args[index] if len(args) > index else kwargs[name])


def _count_read(counters, args, kwargs, result, exc):
    if exc is None:
        counters["meshio.bytes_read"] += _path_arg(args, kwargs, 0, "path").stat().st_size


def _count_written(counters, args, kwargs, result, exc):
    if exc is None:
        counters["meshio.bytes_written"] += _path_arg(args, kwargs, 1, "path").stat().st_size


def _count_checkpoint(counters, args, kwargs, result, exc):
    if exc is None:
        counters["checkpoint.save_checkpoint.bytes"] += _path_arg(args, kwargs, 0, "path").stat().st_size


def _count_fill(counters, args, kwargs, result, exc):
    if isinstance(exc, errors.NoFillingError):
        counters["filling.no_filling"] += 1
    elif exc is None:
        counters["filling.outliers"] += len(result.outliers)


def _count_hierarchy(counters, args, kwargs, result, exc):
    if exc is None:
        edges = sum(t.edge_count for t in result.conv_down)
        counters["hierarchy.conv_edges"] = max(counters["hierarchy.conv_edges"], edges)


def _count_vc_flops(counters, args, kwargs, result, exc):
    # Computed, not measured: 2 flops per multiply-add of the per-edge weight
    # build (E*M*I*O) and of the per-edge product W_e^T x_e (E*I*O).
    params, topology = args[0], args[1]
    m, i, o = params.basis.shape
    counters["ops.vc_conv.gflop"] += 2.0 * topology.edge_count * i * o * (m + 1) / 1e9


OBSERVERS = {
    "meshio.load_mesh_path": _count_read,
    "meshio.save_mesh_path": _count_written,
    "checkpoint.save_checkpoint": _count_checkpoint,
    "filling.extract_filling": _count_fill,
    "hierarchy.build_hierarchy": _count_hierarchy,
    "ops.vc_conv": _count_vc_flops,
}

# counter name -> the wrapped function that fills it
COUNTER_SOURCES = {
    "meshio.bytes_read": "meshio.load_mesh_path",
    "meshio.bytes_written": "meshio.save_mesh_path",
    "checkpoint.save_checkpoint.bytes": "checkpoint.save_checkpoint",
    "filling.outliers": "filling.extract_filling",
    "filling.no_filling": "filling.extract_filling",
    "hierarchy.conv_edges": "hierarchy.build_hierarchy",
    "ops.vc_conv.gflop": "ops.vc_conv",
}


def layer_metric(name: str, summary, overhead_s: float):
    """Value of one per-layer metric, or None when the function it needs is gone."""
    if name == "trace.overhead_s":
        return overhead_s
    if name == "trace.spans":
        return summary.span_count
    if name in COUNTER_SOURCES:
        if COUNTER_SOURCES[name] not in summary.wrapped:
            return None
        return summary.counters.get(name, 0.0)
    layer, rest = name.split(".", 1)
    if rest == "self_ms":
        return summary.self_ms.get(layer, 0.0)
    if name == "ops.act.ms_total":
        present = [k for k in ACTIVATIONS if k in summary.wrapped]
        return sum(summary.ms_total(k) for k in present) if present else None
    for suffix, stat in ((".calls", summary.calls), (".ms_total", summary.ms_total),
                         (".ms.p50", summary.ms_p50)):
        if name.endswith(suffix):
            key = name[: -len(suffix)]
            return stat(key) if key in summary.wrapped else None
    raise KeyError(f"no rule computes per-layer metric {name!r}")


# --- one run ------------------------------------------------------------------


@dataclass
class Setup:
    data_dir: Path
    manifest: object
    test_pairs: list
    wall_s: float
    gen_s: float
    digest: str


class Run:
    """One invocation: set-ups, timed repetitions, output checks."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, tracer: Tracer):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.fill_targets: list[tuple[str, str, str, np.ndarray | None]] = []
        self._saved = None  # (model, parameter copies) at the last checkpoint write
        tracer.patch(train_mod, "save_checkpoint", self._capture(train_mod.save_checkpoint))

    def _capture(self, save):
        def capture(path, model, extra=None):
            save(path, model, extra)
            self._saved = (model, {k: v.copy() for k, v in model.parameters().items()})
        return capture

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- set-up ------------------------------------------------------------

    def setup(self, index: int) -> Setup:
        wl = self.wl
        data_dir = self.workdir / f"data{index}"
        self.attempted += 1
        t0 = time.perf_counter()
        scars_mod.make_dataset(
            data_dir, wl.heads, wl.scars_per_head, self.seed,
            subdivisions=wl.subdivisions, ranges=scars_mod.ScarRanges(radius=wl.radius),
        )
        t_gen = time.perf_counter()
        manifest = scars_mod.load_manifest(data_dir / "manifest.json")
        test_pairs = train_mod.load_pairs(manifest, data_dir, "test") if wl.trains else []
        t1 = time.perf_counter()
        with self.tracer.paused():
            digest = dir_digest(data_dir)
        return Setup(data_dir, manifest, test_pairs, t1 - t0, t_gen - t0, digest)

    def prepare_fill(self, data: Setup, unwounded_pairs: int = 0) -> None:
        """Planted wound masks, rebuilt from the manifest specs (untimed)."""
        with self.tracer.paused():
            for e in data.manifest.entries:
                gt = meshio_mod.load_mesh_path(data.data_dir / e.gt_file)
                _, mask = scars_mod.generate_scar(gt, e.spec)
                self.fill_targets.append((Path(e.wounded_file).stem, e.wounded_file, e.gt_file,
                                          mask.affected))
            # an unwounded head paired with itself has nothing to fill
            for k in range(unwounded_pairs):
                gt_file = data.manifest.entries[k].gt_file
                self.fill_targets.append((f"unwounded{k}", gt_file, gt_file, None))

    # -- timed repetitions ---------------------------------------------------

    def train_rep(self, data: Setup, index: int) -> dict | None:
        wl = self.wl
        arch = model_mod.Architecture(ratios=wl.ratios, widths=wl.widths)
        settings = train_mod.TrainSettings(batch_size=wl.batch_size, epochs=10**9, patience=10**9,
                                           max_steps=wl.max_steps, seed=self.seed)
        out_dir = self.workdir / f"run{index}"
        self.attempted += 1
        self._saved = None
        try:
            t0 = time.perf_counter()
            result = train_mod.train(data.manifest, data.data_dir, arch, settings, out_dir)
            t1 = time.perf_counter()
            model, _ = checkpoint_mod.load_checkpoint(result.checkpoint_path)
            t2 = time.perf_counter()
            report = train_mod.evaluate(model, data.manifest, data.data_dir, "test")
            t3 = time.perf_counter()
        except errors.WoundfillError as exc:
            self.fail(f"rep {index}: {type(exc).__name__}: {exc}")
            return None
        with self.tracer.paused():
            saved_model, saved_params = self._saved
            saved_model.set_parameters(saved_params)
            for name, wounded, _ in data.test_pairs:
                if not np.array_equal(saved_model.forward(wounded.positions),
                                      model.forward(wounded.positions)):
                    self.fail(f"rep {index}: reloaded checkpoint forward differs on {name}")
            loss = [v for _, split, v in result.history if split == "train"][-1]
            if not np.isfinite(loss):
                self.fail(f"rep {index}: final train loss {loss}")
            n_train = len(data.manifest.split_entries("train"))
            digest = file_digest(result.checkpoint_path)
            shutil.rmtree(out_dir)
            return {
                "wall_s": t3 - t0,
                "train_s": t1 - t0,
                "load_ms": (t2 - t1) * 1e3,
                "eval_s": t3 - t2,
                "samples": training_samples(n_train, wl.batch_size, result.steps),
                "eval_meshes": len(report.per_mesh),
                "loss": loss,
                "checkpoint": digest,
                "report": hashlib.sha256(report.to_json().encode()).hexdigest(),
            }

    def fill_rep(self, data: Setup, index: int) -> dict:
        out_dir = self.workdir / f"fill{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        times_ms, ious = {}, []
        t_start = time.perf_counter()
        for stem, wounded_file, gt_file, affected in self.fill_targets:
            self.attempted += 1
            ply, stl = out_dir / f"{stem}_fill.ply", out_dir / f"{stem}_fill.stl"
            t0 = time.perf_counter()
            try:
                wounded = meshio_mod.load_mesh_path(data.data_dir / wounded_file)
                gt = meshio_mod.load_mesh_path(data.data_dir / gt_file)
                report = filling_mod.extract_filling(wounded, gt)
                meshio_mod.save_mesh_path(report.filling, ply)
                meshio_mod.save_mesh_path(report.filling, stl)
            except errors.WoundfillError as exc:
                self.fail(f"pass {index}, {stem}: {type(exc).__name__}: {exc}")
                continue
            times_ms[stem] = (time.perf_counter() - t0) * 1e3
            with self.tracer.paused():
                filling = report.filling
                if not (report.watertight and mesh_mod.is_watertight(filling)):
                    self.fail(f"pass {index}, {stem}: filling is not watertight")
                elif mesh_mod.signed_volume(filling) <= 0:
                    self.fail(f"pass {index}, {stem}: filling volume is not positive")
                if affected is not None:
                    planted, found = set(affected.tolist()), set(report.outliers.tolist())
                    ious.append(len(planted & found) / len(planted | found))
                digest.update(ply.read_bytes() + stl.read_bytes())
        shutil.rmtree(out_dir)
        return {
            "wall_s": time.perf_counter() - t_start,
            "fill_ms": times_ms,
            "ious": ious,
            "outputs": digest.hexdigest(),
        }

    def rep(self, data: Setup, index: int):
        return self.train_rep(data, index) if self.wl.trains else self.fill_rep(data, index)

    # -- checks across set-ups and repetitions ----------------------------------

    def same(self, what: str, values: list) -> str | None:
        """Record a failure unless every value agrees; returns the common value."""
        distinct = sorted(set(values))
        if len(distinct) > 1:
            self.fail(f"{what} differs across repeats: {distinct}")
        return distinct[0] if distinct else None


# --- the whole invocation -------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 spec: dict, threads: int, tiny: bool = False,
                 unwounded_pairs: int = 0) -> tuple[dict, dict]:
    """Run one workload; returns (detail report, summary line)."""
    wl = workload(name, tiny)
    tracer = Tracer()
    if trace:
        tracer.install(OBSERVERS)
    run = Run(wl, seed, workdir, tracer)
    t_begin = time.perf_counter()
    try:
        if trace:
            metrics, detail = _traced(run, spec, unwounded_pairs)
        else:
            metrics, detail = _untraced(run, seconds, t_begin, spec, unwounded_pairs)
    finally:
        tracer.restore()
    failed = min(len(run.failures), run.attempted)  # a failed operation can fail several checks
    detail.update({
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "tiny": tiny,
        "sizes": {k: v for k, v in vars(wl).items() if k != "name"},
        "environment": environment(threads),
        "attempted": run.attempted,
        "failed": failed,
        "fail_frac": failed / run.attempted,
        "failures": run.failures[:20],
        "wall_s": time.perf_counter() - t_begin,
    })
    summary = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, summary


def _repeat(run: Run, data: Setup, seconds: float, t_begin: float) -> list[dict]:
    """Repetitions of the timed section until `seconds` have passed (at least MIN_REPS)."""
    reps = []
    t0 = time.perf_counter()
    while True:
        rep = run.rep(data, len(reps))
        if rep is None:  # training raised; nothing more to time
            break
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and (now - t0 >= seconds or now - t_begin >= WALL_LIMIT_S):
            break
    return reps


def _untraced(run: Run, seconds: float, t_begin: float, spec: dict, unwounded_pairs: int):
    setups = [run.setup(i) for i in range(SETUPS)]
    if not run.wl.trains:
        run.prepare_fill(setups[0], unwounded_pairs)
    reps = _repeat(run, setups[0], seconds, t_begin)
    values = {
        "setup_s": statistics.median(s.wall_s for s in setups),
        "pipeline_s": _best_pass_s(run, reps) if reps else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setups": len(setups),
        "reps": len(reps),
        "setup_walls_s": [s.wall_s for s in setups],
        "rep_walls_s": [r["wall_s"] for r in reps],
        "stages": _stage_metrics(run, setups, reps),
        "digests": _digests(run, setups, reps),
    }
    return _labelled(spec["end_to_end"], values), detail


def _best_pass_s(run: Run, reps: list[dict]) -> float:
    """The timed section at its fastest: the best repetition or, as the pairs of
    scar-fill are independent, the sum of each pair's best fill time. The
    host's speed swings by up to 2x within seconds, and the best of many
    tries is the figure that stays put from run to run."""
    if run.wl.trains:
        return min(r["wall_s"] for r in reps)
    best: dict[str, float] = {}
    for r in reps:
        for stem, ms in r["fill_ms"].items():
            best[stem] = min(ms, best.get(stem, ms))
    return sum(best.values()) / 1e3


def _stage_metrics(run: Run, setups: list[Setup], reps: list[dict]) -> dict:
    """Per-stage figures behind the end-to-end metrics, with units and directions."""
    stages = {}

    def put(name, value, unit, better):
        stages[name] = {"value": value, "unit": unit, "better": better}

    n_pairs = len(setups[0].manifest.entries)
    put("gen_pairs_per_s", statistics.median(n_pairs / s.gen_s for s in setups), "1/s", "higher")
    if not reps:
        return stages
    put("pipeline_s.p50", statistics.median(r["wall_s"] for r in reps), "s", "lower")
    if run.wl.trains:
        put("train_samples_per_s", statistics.median(r["samples"] / r["train_s"] for r in reps),
            "1/s", "higher")
        put("eval_meshes_per_s", statistics.median(r["eval_meshes"] / r["eval_s"] for r in reps),
            "1/s", "higher")
        put("checkpoint_load_ms", statistics.median(r["load_ms"] for r in reps), "ms", "lower")
        put("train_loss_final", run.same("final train loss", [r["loss"] for r in reps]),
            "1", "lower")
    else:
        times = [t for r in reps for t in r["fill_ms"].values()]
        if times:
            put("fill_ms.p50", float(np.percentile(times, 50)), "ms", "lower")
            tail = tail_percentile(len(times))
            if tail:
                put(f"fill_ms.p{tail}", float(np.percentile(times, tail)), "ms", "lower")
            put("fill_samples", len(times), "count", "higher")
        if reps[0]["ious"]:
            put("fill_iou_mean", float(np.mean(reps[0]["ious"])), "1", "higher")
    return stages


def _digests(run: Run, setups: list[Setup], reps: list[dict]) -> dict:
    """sha256 of the outputs; each must agree across the set-ups and repetitions of a run."""
    out = {"dataset": run.same("dataset digest", [s.digest for s in setups])}
    keys = ("checkpoint", "report") if run.wl.trains else ("outputs",)
    for key in keys:
        out[key] = run.same(f"{key} digest", [r[key] for r in reps])
    return out


def _traced(run: Run, spec: dict, unwounded_pairs: int):
    """Two set-ups and two repetitions untraced, then one of each traced.

    Counts come from the traced pass alone, so they repeat exactly; the
    untraced pass gives the baseline for the tracing overhead.
    """
    tracer = run.tracer
    plain = [run.setup(0), run.setup(1)]
    if not run.wl.trains:
        run.prepare_fill(plain[0], unwounded_pairs)
    plain_reps = [r for r in (run.rep(plain[0], 0), run.rep(plain[0], 1)) if r is not None]
    with tracer.active():
        traced = run.setup(2)
    with tracer.active():
        traced_rep = run.rep(traced, 2)
    setups = plain + [traced]
    reps = plain_reps + ([traced_rep] if traced_rep is not None else [])
    overhead = float("nan")
    if traced_rep is not None and plain_reps:
        overhead = (traced.wall_s - min(s.wall_s for s in plain)
                    + traced_rep["wall_s"] - min(r["wall_s"] for r in plain_reps))
    summary = tracer.summary()
    values, absent = {}, []
    for m in spec["per_layer"]:
        v = layer_metric(m["name"], summary, overhead)
        if v is None:
            absent.append(m["name"])
        values[m["name"]] = 0 if v is None else v
    detail = {
        "setups": len(setups),
        "reps": len(reps),
        "stages": _stage_metrics(run, plain, plain_reps),
        "digests": _digests(run, setups, reps),
        "absent": absent,
        "layers_without_calls": sorted(
            layer for layer in {k.split(".", 1)[0] for k in summary.wrapped}
            if not any(summary.calls(k) for k in summary.wrapped if k.startswith(layer + "."))
        ),
        "profile": _profile(run.wl, summary),
    }
    return _labelled(spec["per_layer"], values), detail


def _profile(wl: Workload, summary) -> dict:
    """Whether the traced repetition spends its time where the workload intends."""
    vc_keys = ("ops.vc_conv", "ops.vc_conv_backward")
    out = {}
    if wl.trains:
        train_ms = summary.ms_total("train.train")
        share = summary.function_ms_under("train.train", vc_keys) / train_ms if train_ms else 0.0
        out["vc_conv_share_of_train"] = share
        if wl.name == "train-deep":
            out["intended"] = "vc_conv + vc_conv_backward are most of train()"
            out["as_intended"] = share > 0.5
        else:
            out["intended"] = "vc_conv + vc_conv_backward are under half of train()"
            out["as_intended"] = share < 0.5
    else:
        total, by_layer = summary.subtree_self_ms("scars.make_dataset")
        share = (by_layer.get("mesh", 0.0) + by_layer.get("scars", 0.0)) / total if total else 0.0
        ops_calls = sum(summary.calls(k) for k in summary.wrapped if k.startswith("ops."))
        out["mesh_scars_share_of_make_dataset"] = share
        out["ops_calls"] = ops_calls
        out["intended"] = "mesh + scars are most of make_dataset; no ops calls"
        out["as_intended"] = share > 0.5 and ops_calls == 0
    return out


def _labelled(entries: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}


def clean(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass
