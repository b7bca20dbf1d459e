"""Small shared utilities: RNG handling, validation, top-k selection, tables."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.topk import (
    select_objects_by_topk_q,
    top_k_indices,
    top_k_sum,
)
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability_matrix,
    check_probability_vector,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "top_k_indices",
    "top_k_sum",
    "select_objects_by_topk_q",
    "check_fraction",
    "check_positive",
    "check_probability_matrix",
    "check_probability_vector",
]
