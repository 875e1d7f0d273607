"""Command-line pipeline: gen-data, preprocess, train, eval, extract-fill, stats.

Every subcommand is deterministic given its config and seed. Exit codes:
0 success, 1 usage or config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .config import RunConfig
from .errors import ConfigError, DataError, MeshError, NumericalError
from .filling import _require_finite, extract_filling
from .losses import METRICS, TARGETS, vertex_distance
from .mesh import fill_holes, is_watertight, keep_largest_component
from .meshio import _encoded_for, load_mesh_path, save_mesh_path
from .scars import SPLITS, load_manifest, make_dataset
from .train import evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that for data errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setting(parser, flag: str, key: str, **kwargs) -> None:
    """A flag that overrides config key `key` ("section.name"), held as its dest."""
    if "choices" not in kwargs:
        kwargs.setdefault("metavar", flag.lstrip("-").replace("-", "_").upper())
    parser.add_argument(flag, dest=key, **kwargs)


def _overrides(args) -> dict:
    """{section: {name: value}} from every flag given whose dest is a config key."""
    out: dict = {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if section and value is not None:
            out.setdefault(section, {})[key] = value
    return out


def cmd_gen_data(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    out = cfg.resolve_path("out_dir", "--out")
    manifest = make_dataset(out, **cfg.dataset)
    n_files = manifest.count * (manifest.scars_per_mesh + 1)
    print(f"wrote {n_files} mesh files and manifest.json to {out}")
    print(f"manifest entries: {len(manifest.entries)}")
    for split in SPLITS:
        heads = {e.head for e in manifest.split_entries(split)}
        print(f"  {split}: {len(heads)} heads, {len(manifest.split_entries(split))} pairs")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for src in args.inputs:
        src = Path(src)
        mesh = load_mesh_path(src)
        before = is_watertight(mesh)
        cleaned, _ = keep_largest_component(mesh)
        cleaned = fill_holes(cleaned)
        after = is_watertight(cleaned)
        unchanged = (
            cleaned.n_vertices == mesh.n_vertices and cleaned.n_faces == mesh.n_faces
        )
        dst = out / src.name
        save_mesh_path(cleaned, dst)
        state = "no-op" if unchanged else "repaired"
        print(f"{src.name}: watertight {before} -> {after} ({state})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    data = cfg.resolve_path("data_dir", "--data")
    out = cfg.resolve_path("out_dir", "--out")
    manifest = load_manifest(Path(data) / "manifest.json")
    result = train(manifest, data, cfg.architecture, cfg.training, out)
    print(f"trained {result.steps} steps; best loss {result.best_loss!r}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest = load_manifest(Path(args.data) / "manifest.json")
    model = None if args.identity else load_checkpoint(args.checkpoint)[0]
    report = evaluate(model, manifest, args.data, args.split,
                      out_dir=args.out if args.write_meshes else None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"eval_{args.split}.json"
    report_path.write_text(report.to_json())
    print(f"split {args.split}: {len(report.per_mesh)} meshes")
    print(f"  min vertex distance:  {report.min_vertex_distance:.6g}")
    print(f"  max vertex distance:  {report.max_vertex_distance:.6g}")
    print(f"  mean vertex distance: {report.mean_vertex_distance:.6g}")
    print(f"  min of mesh means:    {report.min_mesh_mean:.6g}")
    print(f"  max of mesh means:    {report.max_mesh_mean:.6g}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_extract_fill(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    input_mesh = load_mesh_path(args.input)
    output_mesh = load_mesh_path(args.output, like=input_mesh)
    report = extract_filling(input_mesh, output_mesh, **cfg.extraction)
    out = Path(cfg.resolve_path("out_dir", "--out"))
    # every file is serialized before --out is made, so a refused filling writes nothing
    names = ("filling.ply", "filling.stl") if report.watertight else ("filling.ply",)
    files = {name: _encoded_for(report.filling, out / name) for name in names}
    files["fill_report.json"] = report.to_json().encode()
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    for note in report.notes:
        print(f"note: {note}")
    print(f"|D| = {len(report.distances)}")
    print(f"mean = {report.mean:.6g}")
    print(f"std = {report.std:.6g}")
    print(f"outliers = {len(report.outliers)}")
    print(f"watertight = {report.watertight}")
    return EXIT_OK


def cmd_stats(args) -> int:
    d = vertex_distance(load_mesh_path(args.a), load_mesh_path(args.b))
    if d.size == 0:
        raise DataError(f"{args.a}, {args.b}: no vertices to compare")
    _require_finite(d)
    mu = d.mean()
    print(f"vertices = {len(d)}")
    print(f"min vertex distance = {d.min():.6g}")
    print(f"max vertex distance = {d.max():.6g}")
    print(f"mean vertex distance = {mu:.6g}")
    sigma = (((d - mu) ** 2).mean()) ** 0.5
    print(f"std = {sigma:.6g}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="woundfill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize heads, scars and the manifest")
    _setting(p, "--out", "paths.out_dir",
             help="output directory (or paths.out_dir in the config)")
    p.add_argument("--config")
    _setting(p, "--count", "dataset.count", type=int)
    _setting(p, "--scars", "dataset.scars_per_mesh", type=int)
    _setting(p, "--seed", "dataset.seed", type=int)
    _setting(p, "--ratios", "dataset.split_ratios", type=float, nargs=3,
             metavar=("TRAIN", "VAL", "TEST"))
    _setting(p, "--subdivisions", "dataset.subdivisions", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("preprocess", help="keep largest component and fill holes")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the autoencoder on a dataset")
    _setting(p, "--data", "paths.data_dir", help="directory with manifest.json and meshes")
    _setting(p, "--out", "paths.out_dir")
    p.add_argument("--config")
    _setting(p, "--lr", "training.lr", type=float)
    _setting(p, "--epochs", "training.epochs", type=int)
    _setting(p, "--batch", "training.batch_size", type=int)
    _setting(p, "--max-steps", "training.max_steps", type=int)
    _setting(p, "--seed", "training.seed", type=int)
    _setting(p, "--loss-target", "training.loss_target", choices=TARGETS)
    _setting(p, "--loss-metric", "training.loss_metric", choices=METRICS)
    _setting(p, "--arch-ratios", "architecture.ratios", type=float, nargs="+")
    _setting(p, "--widths", "architecture.widths", type=int, nargs="+")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--identity", action="store_true",
                        help="evaluate output=input instead of a checkpoint")
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--write-meshes", action="store_true",
                   help="write per-mesh reconstructions with an 'error' channel")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extract-fill", help="extract the wound filling from a mesh pair")
    p.add_argument("--input", required=True, help="wounded mesh")
    p.add_argument("--output", required=True, help="reconstructed mesh")
    _setting(p, "--out", "paths.out_dir")
    p.add_argument("--config")
    _setting(p, "--k-sigma", "extraction.k_sigma", type=float)
    p.set_defaults(func=cmd_extract_fill)

    p = sub.add_parser("stats", help="distance statistics between two meshes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeshError, DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
