"""Common classifier interface.

The paper's classifier ``phi`` maps an object's feature vector to a class
distribution (Table I: ``phi_{c_j}(o_i) = p(y_i = c_j; phi)``).  The joint
truth-inference model additionally needs to train ``phi`` on *soft* labels —
the posterior ``q(y_i)`` from the E-step — so the interface exposes both a
hard-label ``fit`` and a soft-label ``fit_soft``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError


class Classifier:
    """Abstract multi-class classifier."""

    def __init__(self, n_classes: int) -> None:
        if n_classes < 2:
            raise ConfigurationError(f"n_classes must be >= 2, got {n_classes}")
        self.n_classes = n_classes
        self._fitted = False

    # -- fitting --------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray,
            sample_weights: Optional[np.ndarray] = None) -> "Classifier":
        """Fit on hard integer labels ``y`` in ``[0, n_classes)``."""
        y = np.asarray(y)
        soft = np.zeros((y.shape[0], self.n_classes))
        soft[np.arange(y.shape[0]), y.astype(int)] = 1.0
        return self.fit_soft(x, soft, sample_weights)

    def fit_soft(self, x: np.ndarray, soft_labels: np.ndarray,
                 sample_weights: Optional[np.ndarray] = None) -> "Classifier":
        """Fit on soft labels: rows of ``soft_labels`` are class distributions."""
        raise NotImplementedError

    # -- prediction -----------------------------------------------------
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Return an ``(n, n_classes)`` matrix of class probabilities."""
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return hard labels (argmax of :meth:`predict_proba`)."""
        return self.predict_proba(x).argmax(axis=1)

    # -- plumbing -------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before prediction"
            )

    def _check_xy(self, x: np.ndarray, soft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        soft = np.asarray(soft, dtype=float)
        if x.ndim != 2:
            raise ConfigurationError(f"x must be 2-D, got shape {x.shape}")
        if soft.shape != (x.shape[0], self.n_classes):
            raise ConfigurationError(
                f"soft labels must have shape ({x.shape[0]}, {self.n_classes}), "
                f"got {soft.shape}"
            )
        return x, soft
