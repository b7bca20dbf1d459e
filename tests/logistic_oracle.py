"""The k-column Newton-CG fit: the oracle for the contrast-basis solver.

:meth:`repro.classifiers.logistic.LogisticRegressionClassifier.fit_soft`
runs truncated Newton-CG in an orthonormal basis of the zero-sum logit
vectors, on ``k - 1`` columns.  This is the same solver on all ``k``
weight columns plus a bias row, kept here verbatim: its iterates never
leave the zero-sum subspace, so both fits take the same Newton steps to
the same optimum up to rounding, which ``test_classifiers.py`` pins on
arbitrary problems.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers import logistic
from repro.classifiers.logistic import _log_softmax
from repro.obs.registry import get_registry


class KColumnLogistic:
    """Softmax regression fitted on ``d x k`` weights and ``k`` biases."""

    def __init__(self, n_features: int, n_classes: int, *,
                 l2: float = 0.05) -> None:
        self.l2 = l2
        self.weight = np.zeros((n_features, n_classes))
        self.bias = np.zeros(n_classes)

    def fit_soft(self, x, soft, sample_weights: Optional[np.ndarray] = None
                 ) -> "KColumnLogistic":
        x = np.asarray(x, dtype=float)
        soft = np.asarray(soft, dtype=float)
        n = x.shape[0]
        w = np.ones(n) if sample_weights is None \
            else np.asarray(sample_weights, dtype=float)
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
            if grad_norm <= logistic.GRAD_TOL or steps == logistic.MAX_NEWTON_STEPS:
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
            for _ in range(logistic._MAX_HALVINGS):
                trial = theta + size * step
                trial_loss, trial_proba = objective(trial)
                if trial_loss < loss + logistic._ARMIJO * size * slope:
                    break
                size *= 0.5
            else:
                break  # no decrease left within rounding: at the optimum
            theta, loss, proba = trial, trial_loss, trial_proba
        self.weight, self.bias = theta[:-1], theta[-1]
        get_registry().inc("classifier.newton_steps", steps)
        get_registry().inc("classifier.hv_products", products)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.exp(_log_softmax(np.asarray(x, dtype=float) @ self.weight
                                   + self.bias))


def theta_fit(x, soft, sample_weights, l2, theta, basis):
    """The contrast-basis Newton-CG as it ran for every shape before the
    Gram form, verbatim: fits with ``n >= d`` must still match it bit for
    bit.  Returns the last iterate from the start ``theta``."""
    n = x.shape[0]
    w = np.ones(n) if sample_weights is None else sample_weights
    w = (w / w.sum())[:, None]
    w_soft = w * soft
    x1 = np.hstack([x, np.ones((n, 1))])

    def objective(t):
        log_proba = _log_softmax(x1 @ t @ basis.T)
        loss = -np.vdot(w_soft, log_proba) + 0.5 * l2 * np.vdot(t[:-1], t[:-1])
        return float(loss), np.exp(log_proba)

    loss, proba = objective(theta)
    steps = 0
    while True:
        w_proba = w * proba
        grad = x1.T @ ((w_proba - w_soft) @ basis)
        grad[:-1] += l2 * theta[:-1]
        grad_norm = float(np.sqrt(np.vdot(grad, grad)))
        if grad_norm <= logistic.GRAD_TOL or steps == logistic.MAX_NEWTON_STEPS:
            break
        steps += 1
        centred = basis - (proba @ basis)[:, None, :]
        curv = (w_proba[:, :, None] * centred).transpose(0, 2, 1) @ centred
        step, resid, direction = np.zeros_like(theta), -grad, -grad
        rr, target = grad_norm ** 2, (min(0.5, np.sqrt(grad_norm)) * grad_norm) ** 2
        for _ in range(theta.size):
            hd = x1.T @ (curv @ (x1 @ direction)[:, :, None])[:, :, 0]
            hd[:-1] += l2 * direction[:-1]
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
        slope, size = float(np.vdot(grad, step)), 1.0
        for _ in range(logistic._MAX_HALVINGS):
            trial = theta + size * step
            trial_loss, trial_proba = objective(trial)
            if trial_loss < loss + logistic._ARMIJO * size * slope:
                break
            size *= 0.5
        else:
            break
        theta, loss, proba = trial, trial_loss, trial_proba
    return theta
