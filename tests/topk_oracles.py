"""The paper-literal heap top-k procedures: oracles for :mod:`repro.utils.topk`.

:func:`repro.utils.topk.top_k_indices` and
:func:`repro.utils.topk.select_objects_by_topk_q` are vectorized drop-ins
for the original heap-based procedures kept here, verbatim.  The property
tests (``test_topk_properties.py``) pin ``vectorized == heap`` on
arbitrary inputs, ties included, and ``benchmarks/bench_episode_stepping.py``
times the heap selection as its pre-vectorization reference.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

import numpy as np

from repro.utils.topk import _check_select_args


def top_k_indices_reference(values: Sequence[float], k: int) -> list[int]:
    """The original heap-based top-k."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    arr = np.asarray(values, dtype=float).ravel()
    k = min(k, arr.size)
    if k == 0:
        return []
    # heapq.nlargest on (value, -index) gives deterministic tie-breaking.
    best = heapq.nlargest(k, ((v, -i) for i, v in enumerate(arr)))
    return [-neg_i for _v, neg_i in best]


def select_objects_by_topk_q_reference(
    q_matrix: np.ndarray,
    k_annotators: int,
    n_objects: int,
    *,
    group_mask: Optional[np.ndarray] = None,
    max_group: Optional[int] = None,
) -> list[tuple[int, list[int]]]:
    """The paper-literal min-heap selection.

    Same contract as :func:`repro.utils.topk.select_objects_by_topk_q`;
    kept verbatim from the pre-vectorization implementation.
    """
    q = np.asarray(q_matrix, dtype=float)
    group_mask = _check_select_args(q, k_annotators, group_mask, max_group)
    if n_objects <= 0:
        return []

    def row_top_k(row: np.ndarray) -> list[int]:
        ranked = [j for j in top_k_indices_reference(row, row.size)
                  if np.isfinite(row[j])]
        if group_mask is None:
            return ranked[:k_annotators]
        chosen: list[int] = []
        in_group = 0
        for j in ranked:
            if group_mask[j]:
                if in_group >= max_group:
                    continue
                in_group += 1
            chosen.append(j)
            if len(chosen) == k_annotators:
                break
        return chosen

    # Min-heap of (score, -object_index) holding the best candidates so far.
    heap: list[tuple[float, int]] = []
    assignments: dict[int, list[int]] = {}
    for i in range(q.shape[0]):
        # Only unmasked pairs may be assigned; a partially masked row is
        # still selectable through its remaining valid annotators.
        annotators = row_top_k(q[i])
        if not annotators:
            continue  # fully masked row: object already labelled
        score = float(q[i, annotators].sum())
        if len(heap) < n_objects:
            heapq.heappush(heap, (score, -i))
            assignments[i] = annotators
        elif score > heap[0][0]:
            _, neg_evicted = heapq.heapreplace(heap, (score, -i))
            del assignments[-neg_evicted]
            assignments[i] = annotators

    ranked = sorted(heap, key=lambda item: (-item[0], -item[1]))
    return [(-neg_i, assignments[-neg_i]) for _score, neg_i in ranked]
