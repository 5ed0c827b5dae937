"""Seed-guided clustering of typed graphs via motif tensors.

Pipeline: load a typed graph (`hin`), declare motifs and enumerate their
instances (`motifs`), transcribe the instance sets into binary sparse tensors
(`tensors`), jointly factorize them under seed guidance (`model`), and score
the resulting hard labels (`metrics`). `planted` generates synthetic typed
graphs with planted block structure, and `cli` wires the same steps into a
batch command line.
"""

from .hin import HIN, load_hin, write_hin
from .metrics import accuracy_micro_f1, macro_f1, nmi
from .model import (
    FitResult,
    Hyperparameters,
    ModelState,
    assign_clusters,
    consensus,
    fit,
    init_model,
    objective,
    optimize_motif_weights,
    project_simplex,
    update_factor,
)
from .motifs import Motif, enumerate_instances, parse_motif, transcribe
from .planted import MotifTemplate, PlantedConfig, generate_planted_hin
from .tensors import SparseTensor, gram_hadamard, mttkrp_sparse, residual_fro_sq

__version__ = "0.1.0"

__all__ = [
    "HIN",
    "load_hin",
    "write_hin",
    "Motif",
    "parse_motif",
    "enumerate_instances",
    "transcribe",
    "SparseTensor",
    "mttkrp_sparse",
    "gram_hadamard",
    "residual_fro_sq",
    "Hyperparameters",
    "ModelState",
    "FitResult",
    "init_model",
    "consensus",
    "objective",
    "update_factor",
    "project_simplex",
    "optimize_motif_weights",
    "fit",
    "assign_clusters",
    "accuracy_micro_f1",
    "macro_f1",
    "nmi",
    "MotifTemplate",
    "PlantedConfig",
    "generate_planted_hin",
    "__version__",
]
