"""Facial-wound mesh toolkit: synthetic scar datasets, a mesh autoencoder
trained to recover the pre-injury surface, and print-ready filling extraction."""

from .filling import FillReport, extract_filling, outlier_indices
from .hierarchy import ConvTopology, MeshHierarchy, build_hierarchy
from .losses import LossSpec, reconstruction_loss, vertex_distance
from .mesh import (
    Mesh,
    boundary_loops,
    fill_holes,
    is_watertight,
    keep_largest_component,
    mean_edge_length,
    signed_volume,
    vertex_normals,
)
from .meshio import load_mesh, load_mesh_path, save_mesh, save_mesh_path
from .model import Architecture, Autoencoder
from .optim import AdamState, adam_init, adam_step
from .scars import (
    DatasetManifest,
    ScarMask,
    ScarRanges,
    ScarSpec,
    generate_scar,
    icosahedron,
    icosphere,
    load_manifest,
    make_dataset,
    sample_scar_spec,
    synth_head,
)
from .train import EvalReport, TrainSettings, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Architecture",
    "Autoencoder",
    "ConvTopology",
    "DatasetManifest",
    "EvalReport",
    "FillReport",
    "LossSpec",
    "Mesh",
    "MeshHierarchy",
    "ScarMask",
    "ScarRanges",
    "ScarSpec",
    "TrainSettings",
    "adam_init",
    "adam_step",
    "boundary_loops",
    "build_hierarchy",
    "evaluate",
    "extract_filling",
    "fill_holes",
    "generate_scar",
    "icosahedron",
    "icosphere",
    "is_watertight",
    "keep_largest_component",
    "load_manifest",
    "load_mesh",
    "load_mesh_path",
    "make_dataset",
    "mean_edge_length",
    "outlier_indices",
    "reconstruction_loss",
    "sample_scar_spec",
    "save_mesh",
    "save_mesh_path",
    "signed_volume",
    "synth_head",
    "train",
    "vertex_distance",
    "vertex_normals",
]
