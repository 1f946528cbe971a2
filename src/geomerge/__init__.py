"""geomerge: norm-preserving geodesic checkpoint merging, Euclidean merge
baselines, and representation-collapse diagnostics.  Each export and each
submodule is imported on first use (PEP 562): ``import geomerge`` loads no numpy.
"""

from importlib import import_module
from importlib.util import find_spec

__version__ = "0.1.0"

__all__ = [
    "ActivationMatrix",
    "AlignmentReport",
    "CheckpointHandle",
    "CheckpointWriter",
    "DiagnosticsReport",
    "KarcherConfig",
    "KarcherResult",
    "MergeJob",
    "MergeMethod",
    "MergeRecipe",
    "MergeSummary",
    "SparsifySpec",
    "SpectralStats",
    "TensorRecord",
    "bootstrap_stats",
    "covariance_spectrum",
    "dare_drop",
    "della_drop",
    "diagnostics_report",
    "disjoint_merge",
    "effective_rank",
    "elect_signs",
    "karcher_mean",
    "load_recipe",
    "mean_activation_variance",
    "merge_dare",
    "merge_della",
    "merge_karcher",
    "merge_lerp",
    "merge_model_stock",
    "merge_multislerp",
    "merge_slerp",
    "merge_task_arithmetic",
    "merge_ties",
    "numerical_rank",
    "open_checkpoint",
    "parse_recipe",
    "participation_ratio",
    "run_merge",
    "slerp",
    "spectral_stats",
    "stable_rank",
    "task_vector",
    "toy_forward_collect",
    "trim_topk",
    "validate_aligned",
    "write_checkpoint",
]

#: The modules an export is looked up in, in order.
_MODULES = ("delta_ops", "diagnostics", "merge_methods", "recipe", "sphere", "tensor_io")


def __getattr__(name: str) -> object:
    """An export, from the first of ``_MODULES`` that has it, or a submodule."""
    if name in __all__:
        for module in map(import_module, (f"{__name__}.{m}" for m in _MODULES)):
            if name in vars(module):
                globals()[name] = vars(module)[name]  # the next lookup finds it here
                return globals()[name]
    elif name.isidentifier() and find_spec(f"{__name__}.{name}") is not None:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
