"""Classifier models used as the paper's ``phi``.

All classifiers share the :class:`~repro.classifiers.base.Classifier`
interface: ``fit`` on hard labels, ``fit_soft`` on label distributions (used
by the joint truth-inference model), and ``predict_proba``.  Every
framework's ``phi`` is :class:`LogisticRegressionClassifier`; the paper's
fully connected network lost to it on paired seeds in both accuracy and
cost (DESIGN.md section 5).  :class:`KNNClassifier` serves the OBA
baseline.
"""

from repro.classifiers.base import Classifier
from repro.classifiers.knn import KNNClassifier
from repro.classifiers.logistic import LogisticRegressionClassifier

__all__ = [
    "Classifier",
    "LogisticRegressionClassifier",
    "KNNClassifier",
]
