"""Property tests: vectorized top-k == the paper's heap oracle, ties included.

The vectorized implementations in :mod:`repro.utils.topk` promise to be
bit-compatible drop-ins for the original heap-based procedures, kept
beside these tests in ``topk_oracles.py``.  These tests pin that
equivalence on adversarial inputs: values are drawn from a small pool of
levels (ties are the norm, not the exception), ``-inf`` masking is mixed
in, and the grouped-selection cap is exercised — membership *and* order
must match exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from topk_oracles import select_objects_by_topk_q_reference, top_k_indices_reference

from repro.utils.topk import select_objects_by_topk_q, top_k_indices

#: A few repeated levels plus -inf: almost every draw contains ties.
tie_rich_values = st.lists(
    st.sampled_from([-np.inf, -2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0]),
    min_size=0,
    max_size=40,
)


@given(values=tie_rich_values, k=st.integers(0, 45))
@settings(max_examples=300, deadline=None)
def test_top_k_matches_heap_oracle(values, k):
    assert top_k_indices(values, k) == top_k_indices_reference(values, k)


@given(values=tie_rich_values, k=st.integers(0, 45))
@settings(max_examples=200, deadline=None)
def test_top_k_no_tiebreak_is_a_valid_topk_set(values, k):
    """``tie_break='none'`` may reorder, but the multiset of values must
    equal the deterministic selection's."""
    chosen = top_k_indices(values, k, tie_break="none")
    oracle = top_k_indices_reference(values, k)
    arr = np.asarray(values, dtype=float)
    assert len(chosen) == len(oracle)
    assert sorted(arr[chosen].tolist()) == sorted(arr[oracle].tolist())


@st.composite
def q_matrices(draw, max_rows=12, max_cols=6):
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    cells = draw(st.lists(
        st.sampled_from([-np.inf, -1.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0]),
        min_size=n_rows * n_cols, max_size=n_rows * n_cols,
    ))
    return np.array(cells).reshape(n_rows, n_cols)


@given(q=q_matrices(), k=st.integers(1, 8), n_objects=st.integers(0, 14))
@settings(max_examples=300, deadline=None)
def test_select_matches_heap_oracle(q, k, n_objects):
    assert select_objects_by_topk_q(q, k, n_objects) == \
        select_objects_by_topk_q_reference(q, k, n_objects)


@given(
    q=q_matrices(),
    k=st.integers(1, 8),
    n_objects=st.integers(0, 14),
    mask_bits=st.lists(st.booleans(), min_size=6, max_size=6),
    max_group=st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_grouped_select_matches_heap_oracle(q, k, n_objects, mask_bits,
                                            max_group):
    group_mask = np.array(mask_bits[: q.shape[1]])
    assert select_objects_by_topk_q(
        q, k, n_objects, group_mask=group_mask, max_group=max_group
    ) == select_objects_by_topk_q_reference(
        q, k, n_objects, group_mask=group_mask, max_group=max_group
    )
