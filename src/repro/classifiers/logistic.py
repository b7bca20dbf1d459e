"""Multinomial logistic regression fitted to its optimum by Newton-CG.

A cheap, convex alternative to :class:`~repro.classifiers.mlp.MLPClassifier`
used where speed matters (large sweeps) and by baselines whose papers used
shallow models.  Supports soft labels and per-sample weights so it is a
drop-in ``phi`` for the joint inference model.

:meth:`LogisticRegressionClassifier.fit_soft` minimises the weighted
soft-label cross-entropy plus ``l2/2 * ||weight||^2`` (the bias is not
penalised) by truncated Newton (Lin, Weng & Keerthi, JMLR 2008): conjugate
gradients solve each Newton system ``H s = -g`` to a forcing-term residual
on Hessian-vector products of two matrix products each (``x @ V``, then
``x.T @ D``), so no ``d x d`` matrix is formed at any width; a backtracking
Armijo line search follows.  The fit stops at gradient norm
:data:`GRAD_TOL` or after :data:`MAX_NEWTON_STEPS` steps, so a warm start
changes the number of steps, not the optimum reached.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier
from repro.exceptions import ConfigurationError
from repro.obs.registry import get_registry

#: Stop once the gradient of the weight-normalised objective is this small.
GRAD_TOL = 1e-6
#: Newton steps per fit at most.
MAX_NEWTON_STEPS = 50
#: Sufficient-decrease constant and step halvings of the line search.
_ARMIJO = 1e-4
_MAX_HALVINGS = 30


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of logits ``z``."""
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class LogisticRegressionClassifier(Classifier):
    """Softmax regression, L2 on the weights (``l2``: DESIGN.md section 5)."""

    def __init__(self, n_features: int, n_classes: int, *,
                 l2: float = 0.05) -> None:
        super().__init__(n_classes)
        if n_features <= 0:
            raise ConfigurationError(f"n_features must be > 0, got {n_features}")
        # With l2 = 0 the optimum does not exist on separable data.
        if l2 <= 0:
            raise ConfigurationError(f"l2 must be > 0, got {l2}")
        self.n_features = n_features
        self.l2 = l2
        self.weight = np.zeros((n_features, n_classes))
        self.bias = np.zeros(n_classes)

    def fit_soft(self, x, soft_labels,
                 sample_weights: Optional[np.ndarray] = None
                 ) -> "LogisticRegressionClassifier":
        """Fit the weights to soft labels by Newton-CG (module docstring).

        Starts from the current weights: zeros on a new instance, the last
        optimum on a refit, a few steps away on joint EM's moving labels.
        """
        x, soft = self._check_xy(x, soft_labels)
        n = x.shape[0]
        w = np.ones(n) if sample_weights is None \
            else np.asarray(sample_weights, dtype=float)
        if w.shape != (n,):
            raise ConfigurationError(
                f"sample_weights must have shape ({n},), got {w.shape}")
        w = (w / w.sum())[:, None]
        w_soft, l2 = w * soft, self.l2

        # theta stacks the weight rows over the bias row.
        def logits(t):
            return x @ t[:-1] + t[-1]

        def adjoint(r, t):  # [x, 1].T @ r plus the L2 term of t
            out = np.empty_like(t)
            out[:-1] = x.T @ r + l2 * t[:-1]
            out[-1] = r.sum(axis=0)
            return out

        def objective(t):
            log_proba = _log_softmax(logits(t))
            loss = -np.vdot(w_soft, log_proba) + 0.5 * l2 * np.vdot(t[:-1], t[:-1])
            return float(loss), np.exp(log_proba)

        theta = np.vstack([self.weight, self.bias])
        loss, proba = objective(theta)
        steps = products = 0
        while True:
            w_proba = w * proba
            grad = adjoint(w_proba - w_soft, theta)
            grad_norm = float(np.sqrt(np.vdot(grad, grad)))
            if grad_norm <= GRAD_TOL or steps == MAX_NEWTON_STEPS:
                break
            steps += 1
            # Conjugate gradients on H s = -grad, to a forcing-term residual.
            step, resid, direction = np.zeros_like(theta), -grad, -grad
            rr, target = grad_norm ** 2, (min(0.5, np.sqrt(grad_norm)) * grad_norm) ** 2
            for _ in range(theta.size):
                zd = logits(direction)
                hd = adjoint(w_proba * (zd - (proba * zd).sum(axis=1, keepdims=True)),
                             direction)
                products += 1
                curvature = float(np.vdot(direction, hd))
                if curvature <= 0.0:
                    break
                step += (rr / curvature) * direction
                resid -= (rr / curvature) * hd
                rr_next = float(np.vdot(resid, resid))
                if rr_next <= target:
                    break
                direction = resid + (rr_next / rr) * direction
                rr = rr_next
            # Backtracking Armijo line search along the CG step.
            slope, size = float(np.vdot(grad, step)), 1.0
            for _ in range(_MAX_HALVINGS):
                trial = theta + size * step
                trial_loss, trial_proba = objective(trial)
                if trial_loss < loss + _ARMIJO * size * slope:
                    break
                size *= 0.5
            else:
                break  # no decrease left within rounding: at the optimum
            theta, loss, proba = trial, trial_loss, trial_proba
        self.weight, self.bias = theta[:-1], theta[-1]
        get_registry().inc("classifier.newton_steps", steps)
        get_registry().inc("classifier.hv_products", products)
        self._fitted = True
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for each row of ``x``."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ConfigurationError(f"x must be 2-D, got shape {x.shape}")
        return np.exp(_log_softmax(x @ self.weight + self.bias))
