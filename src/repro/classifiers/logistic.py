"""Multinomial logistic regression fitted to its optimum by Newton-CG.

Every framework's ``phi``: cheap and convex where the paper used a small
fully connected network, which lost to it on paired seeds in accuracy
and run time (DESIGN.md section 5).  Supports soft labels and per-sample
weights, as the joint inference model needs.

:meth:`LogisticRegressionClassifier.fit_soft` minimises the weighted
soft-label cross-entropy plus ``l2/2 * ||weight||^2`` (the bias is not
penalised) by truncated Newton (Lin, Weng & Keerthi, JMLR 2008): conjugate
gradients solve each Newton system ``H s = -g`` to a forcing-term residual,
and a backtracking Armijo line search follows.  The fit stops at gradient
norm :data:`GRAD_TOL` or after :data:`MAX_NEWTON_STEPS` steps, so a warm
start changes the number of steps, not the optimum reached.

Softmax logits matter only up to a constant per row, and from the zero
start every gradient row sums to 0, so the ``k`` weight columns stay in
the zero-sum subspace.  The solver therefore works in an orthonormal
basis ``Q`` (``k x (k-1)``) of that subspace: ``theta = [weight; bias] @
Q`` has ``k - 1`` columns, the logits are ``[x, 1] @ theta @ Q.T``, and
since ``Q`` is an isometry the norms, inner products and stopping tests
are those of the ``k``-column problem.  A Hessian-vector product is ``[x,
1] @ V``, one ``(k-1) x (k-1)`` curvature block per row (formed once per
Newton step), then ``[x, 1].T @``; no ``d x d`` matrix is formed at any
width.
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


def _contrast_basis(n_classes: int) -> np.ndarray:
    """Orthonormal Helmert basis, ``k x (k-1)``, of the zero-sum vectors."""
    basis = np.zeros((n_classes, n_classes - 1))
    for j in range(1, n_classes):
        scale = np.sqrt(j * (j + 1.0))
        basis[:j, j - 1] = 1.0 / scale
        basis[j, j - 1] = -j / scale
    return basis


class LogisticRegressionClassifier(Classifier):
    """Softmax regression, L2 on the weights (``l2``: DESIGN.md section 5).

    ``weight`` (``d x k``) and ``bias`` (``k``) are the centred view of the
    solver's contrast-basis parameters, so a refit resumes from exactly
    the iterate the last fit ended at.
    """

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
        self._basis = _contrast_basis(n_classes)
        # [weight; bias] @ basis: the weight rows over the bias row.
        self._theta = np.zeros((n_features + 1, n_classes - 1))

    @property
    def weight(self) -> np.ndarray:
        return self._theta[:-1] @ self._basis.T

    @property
    def bias(self) -> np.ndarray:
        return self._theta[-1] @ self._basis.T

    def _check_width(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ConfigurationError(
                f"x must have shape (n, {self.n_features}), got {x.shape}")

    def fit_soft(self, x, soft_labels,
                 sample_weights: Optional[np.ndarray] = None
                 ) -> "LogisticRegressionClassifier":
        """Fit the weights to soft labels by Newton-CG (module docstring).

        Starts from the current weights: zeros on a new instance, the last
        optimum on a refit, a few steps away on joint EM's moving labels.
        """
        x, soft = self._check_xy(x, soft_labels)
        self._check_width(x)
        n = x.shape[0]
        if sample_weights is None:
            w = np.ones(n)
        else:
            w = np.asarray(sample_weights, dtype=float)
            if w.shape != (n,):
                raise ConfigurationError(
                    f"sample_weights must have shape ({n},), got {w.shape}")
            if not (np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0):
                raise ConfigurationError(
                    "sample_weights must be finite and non-negative with a "
                    "positive sum")
        w = (w / w.sum())[:, None]
        w_soft, l2, basis = w * soft, self.l2, self._basis
        x1 = np.hstack([x, np.ones((n, 1))])

        def objective(t):
            log_proba = _log_softmax(x1 @ t @ basis.T)
            loss = -np.vdot(w_soft, log_proba) + 0.5 * l2 * np.vdot(t[:-1], t[:-1])
            return float(loss), np.exp(log_proba)

        theta = self._theta
        loss, proba = objective(theta)
        steps = products = 0
        while True:
            w_proba = w * proba
            grad = x1.T @ ((w_proba - w_soft) @ basis)
            grad[:-1] += l2 * theta[:-1]
            grad_norm = float(np.sqrt(np.vdot(grad, grad)))
            if grad_norm <= GRAD_TOL or steps == MAX_NEWTON_STEPS:
                break
            steps += 1
            # Each row's curvature Q.T (diag p - p p.T) Q, weighted, as the
            # p-weighted scatter of the basis rows about their p-mean.
            centred = basis - (proba @ basis)[:, None, :]
            curv = (w_proba[:, :, None] * centred).transpose(0, 2, 1) @ centred
            # Conjugate gradients on H s = -grad, to a forcing-term residual.
            step, resid, direction = np.zeros_like(theta), -grad, -grad
            rr, target = grad_norm ** 2, (min(0.5, np.sqrt(grad_norm)) * grad_norm) ** 2
            for _ in range(theta.size):
                hd = x1.T @ (curv @ (x1 @ direction)[:, :, None])[:, :, 0]
                hd[:-1] += l2 * direction[:-1]
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
        self._theta = theta
        get_registry().inc("classifier.newton_steps", steps)
        get_registry().inc("classifier.hv_products", products)
        self._fitted = True
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for each row of ``x``."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        self._check_width(x)
        theta = self._theta
        return np.exp(_log_softmax((x @ theta[:-1] + theta[-1]) @ self._basis.T))
