"""Multinomial logistic regression trained by full-batch gradient descent.

A cheap, convex alternative to :class:`~repro.classifiers.mlp.MLPClassifier`
used where speed matters (large sweeps) and by baselines whose papers used
shallow models.  Supports soft labels and per-sample weights so it is a
drop-in ``phi`` for the joint inference model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier
from repro.exceptions import ConfigurationError


class LogisticRegressionClassifier(Classifier):
    """Softmax regression with L2 regularisation."""

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        *,
        learning_rate: float = 0.5,
        epochs: int = 200,
        l2: float = 1e-3,
        tol: float = 1e-6,
    ) -> None:
        super().__init__(n_classes)
        if n_features <= 0:
            raise ConfigurationError(f"n_features must be > 0, got {n_features}")
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {learning_rate}")
        if l2 < 0:
            raise ConfigurationError(f"l2 must be >= 0, got {l2}")
        self.n_features = n_features
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.tol = tol
        self.weight = np.zeros((n_features, n_classes))
        self.bias = np.zeros(n_classes)

    def _softmax(self, logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        ex = np.exp(shifted)
        return ex / ex.sum(axis=1, keepdims=True)

    def fit_soft(self, x, soft_labels,
                 sample_weights: Optional[np.ndarray] = None
                 ) -> "LogisticRegressionClassifier":
        """Fit multinomial logistic weights to soft labels by gradient descent.

        Descent continues from the current weights: zeros on a new
        instance, the previous optimum on a refit.  The objective is
        convex, so a refit on slowly changing labels (each M-step of
        joint EM) reaches the same optimum in far fewer epochs; callers
        that want a cold fit build a new instance.
        """
        x, soft = self._check_xy(x, soft_labels)
        n = x.shape[0]
        if sample_weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(sample_weights, dtype=float)
            if w.shape != (n,):
                raise ConfigurationError(
                    f"sample_weights must have shape ({n},), got {w.shape}"
                )
            w = w / w.sum()

        prev_loss = np.inf
        for _ in range(self.epochs):
            proba = self._softmax(x @ self.weight + self.bias)
            err = (proba - soft) * w[:, None]
            grad_w = x.T @ err + self.l2 * self.weight
            grad_b = err.sum(axis=0)
            self.weight -= self.learning_rate * grad_w
            self.bias -= self.learning_rate * grad_b
            loss = -float((w * (soft * np.log(proba + 1e-12)).sum(axis=1)).sum())
            if abs(prev_loss - loss) < self.tol:
                break
            prev_loss = loss
        self._fitted = True
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for each row of ``x``."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        return self._softmax(x @ self.weight + self.bias)
