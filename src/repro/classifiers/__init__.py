"""Classifier models used as the paper's ``phi``.

All classifiers share the :class:`~repro.classifiers.base.Classifier`
interface: ``fit`` on hard labels, ``fit_soft`` on label distributions (used
by the joint truth-inference model), and ``predict_proba``.
"""

from repro.classifiers.base import Classifier
from repro.classifiers.knn import KNNClassifier
from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.classifiers.mlp import MLPClassifier

__all__ = [
    "Classifier",
    "MLPClassifier",
    "LogisticRegressionClassifier",
    "KNNClassifier",
]
