"""Determinism regression tests for :class:`repro.crowd.annotator.Annotator`.

The ``_rng`` field used to default to an *unseeded* ``default_rng()``
factory, so two identically-constructed annotators
produced different answer streams.  These tests pin the fixed contract:
the default stream derives from ``annotator_id``, and an explicit stream
(``seeded`` / ``_rng``) still takes precedence.
"""

import numpy as np

from repro.crowd.annotator import Annotator, AnnotatorKind
from repro.crowd.confusion import ConfusionMatrix
from repro.utils.rng import as_rng


def make_annotator(annotator_id=0, **kwargs):
    """A worker with a mildly noisy confusion matrix."""
    return Annotator(
        annotator_id=annotator_id,
        kind=AnnotatorKind.WORKER,
        confusion=ConfusionMatrix.from_accuracy(3, 0.7),
        cost=1.0,
        **kwargs,
    )


def answer_stream(annotator, n=50):
    """The first ``n`` answers over cycling true classes and difficulties."""
    return [
        annotator.answer(true_class=i % 3, difficulty=0.2 * (i % 4))
        for i in range(n)
    ]


def test_same_construction_gives_identical_answer_stream():
    """Two identically-constructed annotators answer identically."""
    first, second = make_annotator(annotator_id=7), make_annotator(annotator_id=7)
    assert answer_stream(first) == answer_stream(second)


def test_default_stream_derives_from_annotator_id():
    """Different ids get different (decoupled) default streams."""
    streams = [answer_stream(make_annotator(annotator_id=i)) for i in range(4)]
    assert len({tuple(s) for s in streams}) > 1


def test_explicit_stream_overrides_id_default():
    """A caller-supplied generator takes precedence over the id default."""
    explicit = make_annotator(annotator_id=7, _rng=as_rng(123))
    reference = make_annotator(annotator_id=99, _rng=as_rng(123))
    assert answer_stream(explicit) == answer_stream(reference)


def test_seeded_copy_is_reproducible():
    """``seeded`` rebinds the stream without touching the original."""
    base = make_annotator(annotator_id=3)
    assert answer_stream(base.seeded(5)) == answer_stream(base.seeded(5))


def test_per_call_rng_bypasses_owned_stream():
    """``answer(rng=...)`` draws from the given stream, not ``_rng``."""
    annotator = make_annotator(annotator_id=3)
    first = [annotator.answer(0, rng=np.random.default_rng(11))
             for _ in range(20)]
    second = [annotator.answer(0, rng=np.random.default_rng(11))
              for _ in range(20)]
    assert first == second
