"""Top-k selection utilities, including the paper's min-heap object selection.

Section IV ("Discussion") of the paper assigns ``k`` annotators per object by
computing, for each candidate object, the sum of the top-``k`` Q-values over
annotators and then selecting the objects with the largest sums via a
min-heap.  :func:`select_objects_by_topk_q` implements exactly that
selection — but vectorized: the production path ranks whole matrices with
``np.argsort``/``np.argpartition`` instead of Python-level heaps.  The
paper-literal heap procedures live with the tests (``tests/topk_oracles.py``)
as the oracles the property tests pin the vectorized path against.

Every function here breaks ties deterministically by **lower index** (the
``(value, -index)`` ordering of the original heap formulation), so the
vectorized implementations are bit-compatible drop-ins: same inputs, same
selections, same output order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def top_k_indices(values: Sequence[float], k: int) -> list[int]:
    """Return indices of the ``k`` largest entries, largest first.

    Equal values are ordered by lower index — the deterministic
    ``(value, -index)`` ordering every caller relies on.  The single
    top-k entry point used by agent selection and the cold-start
    annotator ranking alike.

    Parameters
    ----------
    values:
        1-D array-like of scores.  ``-inf`` entries sort last; ``NaN`` is
        unsupported (rankings involving NaN are not well defined).
    k:
        How many indices to return; ``k`` larger than ``len(values)``
        returns every index.

    Notes
    -----
    Implemented with ``np.argpartition``: an O(n) partition finds the
    ``k``-th value, index-ordered candidates are completed from the tied
    boundary group, and only the ``k`` survivors pay a sort.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    arr = np.asarray(values, dtype=float).ravel()
    k = min(k, arr.size)
    if k == 0:
        return []
    if k >= arr.size:
        order = np.argsort(-arr, kind="stable")
        return [int(i) for i in order]
    # Partition once to find the k-th largest value, then resolve the tie
    # group at the boundary by lowest index — the exact (value, -index)
    # ordering of the heap formulation.
    part = np.argpartition(-arr, k - 1)
    kth_value = arr[part[k - 1]]
    above = np.flatnonzero(arr > kth_value)
    ties = np.flatnonzero(arr == kth_value)[: k - above.size]
    chosen = np.concatenate([above, ties])
    # `chosen` is index-ascending within each value group, so a stable
    # sort on value alone reproduces (value desc, index asc).
    order = chosen[np.argsort(-arr[chosen], kind="stable")]
    return [int(i) for i in order]


def _check_select_args(q: np.ndarray, k_annotators: int,
                       group_mask: Optional[np.ndarray],
                       max_group: Optional[int]) -> Optional[np.ndarray]:
    """Shared validation for the two select implementations."""
    if q.ndim != 2:
        raise ValueError(f"q_matrix must be 2-D, got shape {q.shape}")
    if k_annotators <= 0:
        raise ValueError(f"k_annotators must be > 0, got {k_annotators}")
    if group_mask is not None:
        group_mask = np.asarray(group_mask, dtype=bool)
        if group_mask.shape != (q.shape[1],):
            raise ValueError(
                f"group_mask must have shape ({q.shape[1]},), got "
                f"{group_mask.shape}"
            )
        if max_group is None or max_group < 0:
            raise ValueError("max_group must be a non-negative int with group_mask")
    return group_mask


def select_objects_by_topk_q(
    q_matrix: np.ndarray,
    k_annotators: int,
    n_objects: int,
    *,
    group_mask: Optional[np.ndarray] = None,
    max_group: Optional[int] = None,
) -> list[tuple[int, list[int]]]:
    """Select objects and their annotator assignments from a Q-value matrix.

    Parameters
    ----------
    q_matrix:
        ``(|O|, |W|)`` array of Q-values.  Masked entries (e.g. objects that
        are already labelled) should be ``-inf``; a row whose top-``k`` sum is
        ``-inf`` is never selected.
    k_annotators:
        Number of annotators to assign per object (the paper's ``k``).
    n_objects:
        Number of objects to select this iteration (batch size).
    group_mask / max_group:
        Optional per-annotator boolean mask and a cap: at most ``max_group``
        annotators with a True mask may be assigned to any single object
        (e.g. "at most one expert per object").  Remaining slots fall to the
        best annotators outside the group.

    Returns
    -------
    list of ``(object_index, [annotator indices])`` pairs, ordered by
    decreasing top-``k`` Q-value sum, ties by lower object index —
    identical membership and order to the paper's min-heap procedure, but
    computed with one matrix-level ranking pass instead of a per-row
    Python loop.
    """
    q = np.asarray(q_matrix, dtype=float)
    group_mask = _check_select_args(q, k_annotators, group_mask, max_group)
    if n_objects <= 0:
        return []
    n_rows, n_cols = q.shape
    k = min(k_annotators, n_cols)

    # Rank every row's annotators by (value desc, index asc); -inf entries
    # sort last, so finite candidates form a prefix of each ranked row.
    order = np.argsort(-q, axis=1, kind="stable")
    vals = np.take_along_axis(q, order, axis=1)
    finite = np.isfinite(vals)
    if group_mask is None:
        allowed = finite
    else:
        in_group = group_mask[order]
        # g-th capped-group member (in ranked order) is eligible iff
        # g <= max_group; skipped members never consume a slot, exactly
        # like the reference loop's `continue`.
        group_rank = np.cumsum(in_group & finite, axis=1)
        allowed = finite & (~in_group | (group_rank <= max_group))
    position = np.cumsum(allowed, axis=1)
    chosen = allowed & (position <= k)
    n_chosen = chosen.sum(axis=1)

    # Gather each row's chosen values contiguously (ranked order, padded
    # with trailing zeros) and sum rows grouped by their chosen count, so
    # every row's score reduces over exactly the same operand sequence as
    # the reference's `q[i, annotators].sum()` — bit-identical scores.
    padded = np.zeros((n_rows, k))
    rows_sel, cols_sel = np.nonzero(chosen)
    padded[rows_sel, position[chosen] - 1] = vals[chosen]
    scores = np.zeros(n_rows)
    for m in np.unique(n_chosen):
        if m == 0:
            continue
        rows_m = np.flatnonzero(n_chosen == m)
        scores[rows_m] = padded[np.ix_(rows_m, np.arange(m))].sum(axis=1)

    selectable = np.flatnonzero(n_chosen > 0)
    if selectable.size == 0:
        return []
    # (score desc, object index asc): a stable sort over index-ascending
    # candidates replicates both the heap's tie membership (first n rows
    # at a tied score survive, since eviction needed a strictly greater
    # score) and its final ordering.
    ranked = selectable[
        np.argsort(-scores[selectable], kind="stable")[:n_objects]
    ]
    return [
        (int(i), [int(j) for j in order[i][chosen[i]]])
        for i in ranked
    ]
