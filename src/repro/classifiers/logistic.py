"""Multinomial logistic regression fitted to its optimum by Newton's method.

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

How each Newton system is solved follows the fit's ``n`` rows and ``d``
features (DESIGN.md section 5):

* ``n >= d``: conjugate gradients on ``theta``, as above.
* ``n < d``, the Gram form.  From the zero start every gradient, CG
  direction and iterate of the penalised weights lies in the row space
  of ``x``, so ``weight = x.T @ a`` for coefficients ``a`` (``n x
  (k-1)``) and the bias stays an explicit row.  The fit runs on ``[a;
  bias]`` with ``K = x x.T``: the logits are ``K a + bias``, the penalty
  ``a.T K a``, and inner products are taken in ``K``'s metric, so CG's
  iterates are the ``theta`` fit's to rounding while a product costs
  ``n^2`` instead of ``n d``.
* ``n < d`` with at most :data:`DIRECT_SOLVE_SIZE` unknowns: the same
  Newton system on ``[a; bias]``, formed from ``K`` in ``O(n^2)``, is
  solved by one LU solve per Newton step instead of CG.

``K`` is formed per fit from the fit's own rows, so it costs ``n^2 d``
and never grows with the dataset.  Joint EM refits one classifier on one
row set several times per call; the classifier keeps a copy of the rows
with their ``K`` and coefficients, and a refit on equal rows reuses both.
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
#: Largest Gram-form Newton system, in unknowns ``(n + 1)(k - 1)``, that is
#: solved directly rather than by CG: the measured crossover (DESIGN.md
#: section 5).
DIRECT_SOLVE_SIZE = 144
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


def _curvature(basis: np.ndarray, proba: np.ndarray,
               w_proba: np.ndarray) -> np.ndarray:
    """Each row's curvature ``Q.T (diag p - p p.T) Q``, weighted.

    Formed as the p-weighted scatter of the basis rows about their p-mean:
    ``n`` blocks of ``(k-1) x (k-1)``.
    """
    centred = basis - (proba @ basis)[:, None, :]
    return (w_proba[:, :, None] * centred).transpose(0, 2, 1) @ centred


def _newton_system(gram: np.ndarray, curv: np.ndarray,
                   l2: float) -> np.ndarray:
    """The Hessian on ``[a; bias]``, ``(n+1)(k-1)`` square, from ``K``.

    Row block ``i`` maps a step ``[s; t]`` to ``C_i (K s + t)_i + l2
    s_i``, and the bias block to ``sum_i C_i (K s + t)_i``: the weight
    and bias parts of the ``theta`` Hessian-vector product in coefficient
    form (``C_i`` the row's curvature block).
    """
    n, m = curv.shape[:2]
    nm = n * m
    # C_i[a, b] * K[i, j] at row (i, a), column (j, b).
    rows = (curv[:, :, None, :] * gram[:, None, :, None]).reshape(nm, nm)
    system = np.empty((nm + m, nm + m))
    system[nm:, :nm] = rows.reshape(n, m, nm).sum(axis=0)
    system[nm:, nm:] = curv.sum(axis=0)
    system[:nm, nm:] = curv.reshape(nm, m)
    rows.flat[::nm + 1] += l2
    system[:nm, :nm] = rows
    return system


def _newton(params, objective, gradient, newton_step):
    """Newton's method with a backtracking Armijo search, from ``params``.

    ``objective(p)`` returns the loss and class probabilities at ``p``;
    ``gradient(p, proba)`` the gradient, its norm and what
    ``newton_step(grad, norm, aux)`` needs to return a step and its slope
    along the gradient, or ``None`` when the system has no descent
    solution.  Returns the last iterate and the number of steps taken.
    """
    loss, proba = objective(params)
    steps = 0
    while True:
        grad, grad_norm, aux = gradient(params, proba)
        if grad_norm <= GRAD_TOL or steps == MAX_NEWTON_STEPS:
            break
        steps += 1
        solved = newton_step(grad, grad_norm, aux)
        if solved is None:
            break
        step, slope = solved
        size = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = params + size * step
            trial_loss, trial_proba = objective(trial)
            if trial_loss < loss + _ARMIJO * size * slope:
                break
            size *= 0.5
        else:
            break  # no decrease left within rounding: at the optimum
        params, loss, proba = trial, trial_loss, trial_proba
    return params, steps


class LogisticRegressionClassifier(Classifier):
    """Softmax regression, L2 on the weights (``l2``: DESIGN.md section 5).

    ``weight`` (``d x k``) and ``bias`` (``k``) are the centred view of the
    solver's contrast-basis parameters, so a refit resumes from exactly
    the iterate the last fit ended at.  After a Gram-form fit the
    classifier also keeps a copy of its rows, their ``K`` and its
    coefficients, so a refit on equal rows resumes from the same
    coefficients without forming ``K`` again.
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
        # The last Gram-form fit: a copy of its rows, K of their distinct
        # rows and its coefficients [a; bias].
        self._dual: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

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
        """Fit the weights to soft labels by Newton's method (module docstring).

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
        w_soft = w * soft
        if n >= self.n_features or not self._fit_gram(x, w, w_soft):
            self._theta = self._fit_theta(x, w, w_soft)
            self._dual = None
        self._fitted = True
        return self

    def _fit_gram(self, x: np.ndarray, w: np.ndarray,
                  w_soft: np.ndarray) -> bool:
        """The fit in the Gram form, for ``n < d``; ``False`` if it cannot start.

        It starts from the last Gram-form fit's coefficients, reusing its
        ``K``, when ``x`` equals that fit's rows, or from zero weights.
        Other warm weights need not lie in the row space of ``x``, so they
        take the ``theta`` form.  Exact duplicate rows (a bootstrap
        resample) are merged first, their weights and weighted soft labels
        added: the objective is the same, and ``K`` has no null directions,
        which CG's recurrence would amplify until they swamp the gradient.
        """
        distinct = _distinct_rows(x)
        rows = x if distinct is None else x[distinct[0]]
        if self._dual is not None and np.array_equal(self._dual[0], x):
            _, gram, coef = self._dual
        elif self._theta[:-1].any():
            return False
        else:
            gram = rows @ rows.T
            coef = np.zeros((rows.shape[0] + 1, self._theta.shape[1]))
            coef[-1] = self._theta[-1]
        if distinct is not None:
            merged = np.zeros((rows.shape[0], 1 + w_soft.shape[1]))
            np.add.at(merged, distinct[1], np.hstack([w, w_soft]))
            w, w_soft = merged[:, :1], merged[:, 1:]
        coef = self._newton_gram(gram, w, w_soft, coef)
        self._theta = np.concatenate([rows.T @ coef[:-1], coef[-1:]])
        self._dual = (x.copy(), gram, coef)
        return True

    def _fit_theta(self, x: np.ndarray, w: np.ndarray,
                   w_soft: np.ndarray) -> np.ndarray:
        """Newton-CG on ``theta = [weight; bias] @ Q``; returns the last iterate."""
        l2, basis = self.l2, self._basis
        x1 = np.hstack([x, np.ones((x.shape[0], 1))])
        products = 0

        def objective(t):
            log_proba = _log_softmax(x1 @ t @ basis.T)
            loss = -np.vdot(w_soft, log_proba) + 0.5 * l2 * np.vdot(t[:-1], t[:-1])
            return float(loss), np.exp(log_proba)

        def gradient(t, proba):
            w_proba = w * proba
            grad = x1.T @ ((w_proba - w_soft) @ basis)
            grad[:-1] += l2 * t[:-1]
            return grad, float(np.sqrt(np.vdot(grad, grad))), (proba, w_proba)

        def newton_step(grad, grad_norm, aux):
            nonlocal products
            curv = _curvature(basis, *aux)
            # Conjugate gradients on H s = -grad, to a forcing-term residual.
            step, resid, direction = np.zeros_like(grad), -grad, -grad
            rr, target = grad_norm ** 2, (min(0.5, np.sqrt(grad_norm)) * grad_norm) ** 2
            for _ in range(grad.size):
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
            return step, float(np.vdot(grad, step))

        theta, steps = _newton(self._theta, objective, gradient, newton_step)
        _count_work(steps, products, 0)
        return theta

    def _newton_gram(self, gram: np.ndarray, w: np.ndarray,
                     w_soft: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Newton on ``[a; bias]`` in ``K``'s metric; returns the last iterate.

        Each system is solved by one LU solve when it has at most
        :data:`DIRECT_SOLVE_SIZE` unknowns, otherwise by CG with the same
        iterates as :meth:`_fit_theta`'s.  Every inner product of a
        coefficient ``a`` needs ``K a``: the gradient's is one product per
        Newton step, and a CG iteration makes one, for its residual; the
        direction's (which also gives its logits) follows by the CG
        recurrence ``K d' = K r' + beta K d``.  CG runs for at most as many
        iterations as the ``theta`` form's, not ``(n+1)(k-1)``: on
        ill-conditioned systems it needs more than its dimension.
        """
        l2, basis = self.l2, self._basis
        products = solves = 0

        def objective(c):
            k_coef = gram @ c[:-1]
            log_proba = _log_softmax((k_coef + c[-1]) @ basis.T)
            loss = -np.vdot(w_soft, log_proba) + 0.5 * l2 * np.vdot(c[:-1], k_coef)
            return float(loss), np.exp(log_proba)

        def gradient(c, proba):
            w_proba = w * proba
            g = (w_proba - w_soft) @ basis
            grad = np.concatenate([g + l2 * c[:-1], g.sum(axis=0, keepdims=True)])
            k_grad = gram @ grad[:-1]
            norm2 = np.vdot(grad[:-1], k_grad) + np.vdot(grad[-1], grad[-1])
            return grad, float(np.sqrt(max(norm2, 0.0))), (proba, w_proba, k_grad)

        def slope(grad, k_grad, step):
            return float(np.vdot(k_grad, step[:-1]) + np.vdot(grad[-1], step[-1]))

        def direct_step(grad, grad_norm, aux):
            nonlocal solves
            proba, w_proba, k_grad = aux
            system = _newton_system(gram, _curvature(basis, proba, w_proba), l2)
            solves += 1
            try:
                step = np.linalg.solve(system, -grad.ravel()).reshape(grad.shape)
            except np.linalg.LinAlgError:
                return None  # singular: as CG's first curvature <= 0
            along = slope(grad, k_grad, step)
            # Not a descent step: the system was not positive definite.
            return (step, along) if along < 0.0 else None

        def cg_step(grad, grad_norm, aux):
            nonlocal products
            proba, w_proba, k_grad = aux
            curv = _curvature(basis, proba, w_proba)
            step, resid, direction = np.zeros_like(grad), -grad, -grad
            k_dir = -k_grad
            rr, target = grad_norm ** 2, (min(0.5, np.sqrt(grad_norm)) * grad_norm) ** 2
            for _ in range(self._theta.size):
                z = k_dir + direction[-1]   # the direction's logits
                u = (curv @ z[:, :, None])[:, :, 0]
                hd = np.concatenate([u + l2 * direction[:-1],
                                     u.sum(axis=0, keepdims=True)])
                products += 1
                curvature = float(np.vdot(z, u) + l2 * np.vdot(direction[:-1], k_dir))
                if curvature <= 0.0:
                    break
                step += (rr / curvature) * direction
                resid -= (rr / curvature) * hd
                k_resid = gram @ resid[:-1]
                rr_next = float(np.vdot(resid[:-1], k_resid)
                                + np.vdot(resid[-1], resid[-1]))
                if rr_next <= target:
                    break
                direction = resid + (rr_next / rr) * direction
                k_dir = k_resid + (rr_next / rr) * k_dir
                rr = rr_next
            return step, slope(grad, k_grad, step)

        direct = coef.size <= DIRECT_SOLVE_SIZE
        coef, steps = _newton(coef, objective, gradient,
                              direct_step if direct else cg_step)
        _count_work(steps, products, solves)
        return coef

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for each row of ``x``."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        self._check_width(x)
        theta = self._theta
        return np.exp(_log_softmax((x @ theta[:-1] + theta[-1]) @ self._basis.T))


def _distinct_rows(x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """First index of each distinct row of ``x`` and each row's group.

    ``None`` when every row differs, which distinct first entries prove
    without reading the rest of ``x``.
    """
    n = x.shape[0]
    if np.unique(x[:, 0]).size == n:
        return None
    rows = np.ascontiguousarray(x).view(
        np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    return None if first.size == n else (first, group.ravel())


def _count_work(steps: int, products: int, solves: int) -> None:
    """Add one fit's Newton steps, Hessian-vector products and direct solves."""
    registry = get_registry()
    registry.inc("classifier.newton_steps", steps)
    registry.inc("classifier.hv_products", products)
    registry.inc("classifier.direct_solves", solves)
