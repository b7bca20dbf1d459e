"""Every truth-inference algorithm rejects a malformed answer map.

The four algorithms ``repro.inference`` exports share
``TruthInference._validate``; each must call it before touching the
answers, so a bad map fails loudly with ``ConfigurationError`` instead of
indexing out of range or inferring from nothing.
"""

import numpy as np
import pytest

from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.exceptions import ConfigurationError
from repro.inference import DawidSkene, JointInference, MajorityVote, PMInference

N_OBJECTS, N_CLASSES, N_ANNOTATORS = 4, 2, 3


def _joint():
    return JointInference(
        LogisticRegressionClassifier(2, N_CLASSES),
        np.zeros((N_OBJECTS, 2)),
    )


ALGORITHMS = {
    "MajorityVote": MajorityVote,
    "DawidSkene": DawidSkene,
    "PMInference": PMInference,
    "JointInference": _joint,
}

#: name -> (answers, n_classes), each malformed in exactly one way.
MALFORMED = {
    "empty-answer-set": ({0: {0: 1, 1: 1}, 1: {}}, N_CLASSES),
    "annotator-out-of-range": ({0: {0: 1, N_ANNOTATORS: 0}}, N_CLASSES),
    "negative-annotator": ({0: {-1: 1}}, N_CLASSES),
    "answer-out-of-range": ({0: {0: 1, 1: N_CLASSES}}, N_CLASSES),
    "negative-answer": ({0: {0: -1}}, N_CLASSES),
    "one-class": ({0: {0: 0, 1: 0}}, 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_malformed_answers_raise(algorithm, case):
    answers, n_classes = MALFORMED[case]
    with pytest.raises(ConfigurationError):
        ALGORITHMS[algorithm]().infer(answers, n_classes, N_ANNOTATORS)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_well_formed_answers_accepted(algorithm):
    answers = {0: {0: 1, 1: 1}, 1: {0: 0, 2: 0}, 2: {1: 1, 2: 0}}
    result = ALGORITHMS[algorithm]().infer(answers, N_CLASSES, N_ANNOTATORS)
    assert sorted(result.labels) == [0, 1, 2]
