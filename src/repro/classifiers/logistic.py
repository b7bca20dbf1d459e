"""Multinomial logistic regression trained by full-batch gradient descent.

A cheap, convex alternative to :class:`~repro.classifiers.mlp.MLPClassifier`
used where speed matters (large sweeps) and by baselines whose papers used
shallow models.  Supports soft labels and per-sample weights so it is a
drop-in ``phi`` for the joint inference model.

:meth:`LogisticRegressionClassifier.fit_soft` runs its epochs class-major:
logits, probabilities and residuals live in ``(n_classes, n)`` arrays, so
the per-object softmax max and sum are a few vectorised passes over ``n``
columns instead of one short reduction per object.  Every value is the one
the row-major ``(n, n_classes)`` formulation computes, bit for bit: the
matrix products see the same operands in the same layout, and
:func:`_class_sum` adds the classes in the order numpy sums a contiguous
row.  The gain is at few classes (every bundled dataset has two).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier
from repro.exceptions import ConfigurationError


#: Rows shorter than this numpy sums one entry at a time (its pairwise
#: summation's unrolled block).
_SEQUENTIAL_ROW = 8


def _class_sum(t: np.ndarray) -> np.ndarray:
    """Sum a class-major ``(n_classes, n)`` array over its classes.

    Bit-identical to summing each row of the row-major copy
    ``t.T.copy().sum(axis=1)`` (up to the sign of an all-zero sum).
    numpy adds a contiguous row of fewer than 8 entries one by one, so
    for fewer than 8 classes that is one vectorised add per class across
    the ``n`` columns.  Longer rows are summed pairwise, in an order
    this does not re-derive: they are summed as the row-major copy.
    """
    if t.shape[0] >= _SEQUENTIAL_ROW:
        return np.ascontiguousarray(t.T).sum(axis=1)
    out = t[0] + t[1]
    for k in range(2, t.shape[0]):
        out += t[k]
    return out


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

    def _logits(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Class-major logits ``(x @ weight + bias).T`` into ``out``.

        ``x @ weight`` is computed as it is, then transposed by the add:
        asking BLAS for the transposed product directly (``out=out.T``)
        lets it sum in another order.
        """
        return np.add((x @ self.weight).T, self.bias[:, None], out=out)

    def _softmax(self, logits: np.ndarray) -> np.ndarray:
        """Softmax over the classes of ``(n_classes, n)`` logits, in place."""
        logits -= logits.max(axis=0)
        np.exp(logits, out=logits)
        logits /= _class_sum(logits)
        return logits

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

        # Class-major epochs (see the module docstring).  The gradient
        # product takes a row-major copy of the residuals: the operand
        # layout a row-major loop hands BLAS, so the same sums.
        soft_t = np.ascontiguousarray(soft.T)
        logits = np.empty_like(soft_t)
        prev_loss = np.inf
        for _ in range(self.epochs):
            proba = self._softmax(self._logits(x, logits))
            err = np.ascontiguousarray(((proba - soft_t) * w).T)
            grad_w = x.T @ err + self.l2 * self.weight
            grad_b = err.sum(axis=0)
            self.weight -= self.learning_rate * grad_w
            self.bias -= self.learning_rate * grad_b
            loss = -float((w * _class_sum(soft_t * np.log(proba + 1e-12))).sum())
            if abs(prev_loss - loss) < self.tol:
                break
            prev_loss = loss
        self._fitted = True
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for each row of ``x``."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ConfigurationError(f"x must be 2-D, got shape {x.shape}")
        logits = np.empty((self.n_classes, x.shape[0]))
        return np.ascontiguousarray(self._softmax(self._logits(x, logits)).T)
