"""k-nearest-neighbour classifier.

The OBA baseline (Kobayashi et al., WWW 2020) uses "traditional
classification or clustering methods, e.g. KNN" as its AI worker, so the
reproduction ships one.  Soft labels are handled by averaging neighbours'
label distributions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier
from repro.exceptions import ConfigurationError


class KNNClassifier(Classifier):
    """Brute-force KNN with inverse-distance-weighted neighbour votes."""

    def __init__(self, n_classes: int, *, k: int = 5) -> None:
        super().__init__(n_classes)
        if k <= 0:
            raise ConfigurationError(f"k must be > 0, got {k}")
        self.k = k
        self._x: Optional[np.ndarray] = None
        self._soft: Optional[np.ndarray] = None

    def fit_soft(self, x, soft_labels, sample_weights=None) -> "KNNClassifier":
        """Memorise ``x`` with its soft labels for neighbour voting."""
        x, soft = self._check_xy(x, soft_labels)
        if sample_weights is not None:
            w = np.asarray(sample_weights, dtype=float)
            if w.shape != (x.shape[0],):
                raise ConfigurationError(
                    f"sample_weights must have shape ({x.shape[0]},), got {w.shape}"
                )
            soft = soft * w[:, None]
            row_sums = soft.sum(axis=1, keepdims=True)
            soft = np.divide(soft, row_sums, out=np.full_like(soft, 1.0 / self.n_classes),
                             where=row_sums > 0)
        self._x = x
        self._soft = soft
        self._fitted = True
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Average the soft labels of the ``k`` nearest training rows."""
        self._check_fitted()
        assert self._x is not None and self._soft is not None
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self._x.shape[1]:
            raise ConfigurationError(
                f"expected input (n, {self._x.shape[1]}), got {x.shape}"
            )
        k = min(self.k, self._x.shape[0])
        # Squared Euclidean distances, (n_query, n_train).
        d2 = (
            (x ** 2).sum(axis=1, keepdims=True)
            - 2.0 * x @ self._x.T
            + (self._x ** 2).sum(axis=1)
        )
        np.maximum(d2, 0.0, out=d2)
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        proba = np.empty((x.shape[0], self.n_classes))
        for row, idx in enumerate(nearest):
            weights = 1.0 / (np.sqrt(d2[row, idx]) + 1e-8)
            dist = (self._soft[idx] * weights[:, None]).sum(axis=0)
            total = dist.sum()
            proba[row] = dist / total if total > 0 else 1.0 / self.n_classes
        return proba
