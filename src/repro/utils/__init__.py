"""Small shared utilities: RNG handling, validation, top-k selection, tables."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.topk import select_objects_by_topk_q, top_k_indices
from repro.utils.validation import check_probability_matrix

__all__ = [
    "as_rng",
    "spawn_rngs",
    "top_k_indices",
    "select_objects_by_topk_q",
    "check_probability_matrix",
]
