"""The Agent: DQN policy over unified task selection + assignment.

Section IV: the agent scores every candidate ``(object, annotator)`` pair
with the Q-network, masks invalid pairs with ``-inf``, and selects a batch
of objects by largest top-``k`` Q-sum via the min-heap procedure, assigning
each selected object its top-``k`` annotators.

Eq. 6's UCB1 bonus is not applied.  The action mask removes every answered
pair, so a selectable pair has (short of a dropped answer) never been
chosen, and all such pairs would carry the same capped bonus: a constant
shift that cannot move the argmax (DESIGN.md section 5).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.analysis.contracts import shaped
from repro.core.action import Assignment
from repro.core.config import CrowdRLConfig
from repro.core.state import N_PAIR_FEATURES, LabellingState
from repro.exceptions import ConfigurationError
from repro.obs import phase_timer
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.utils.rng import SeedLike, as_rng, spawn_rngs
from repro.utils.topk import select_objects_by_topk_q, top_k_indices

#: Replay memory size of the agent's DQN (not :class:`DQNConfig`'s 10 000).
REPLAY_CAPACITY = 5000
#: Standard deviation of the Gaussian jitter that breaks score ties.
TIE_JITTER_SCALE = 1e-3
#: Successor candidates kept per transition for the bootstrap max.
NEXT_STATE_SAMPLE = 64


class TrainSummary(NamedTuple):
    """What one :meth:`Agent.train` call did (the ``iteration`` event's DQN fields)."""

    #: Mean TD loss of the steps run, ``None`` when none ran.
    td_loss: Optional[float]
    #: Target-network forwards computed (bootstrap memo misses).
    target_forwards: int
    #: Bootstrap values looked up (memo hits plus misses).
    bootstrap_lookups: int


class Agent:
    """CrowdRL's decision maker: featurize → Q → top-k heap select."""

    def __init__(self, n_objects: int, n_annotators: int,
                 config: CrowdRLConfig, rng: SeedLike = None) -> None:
        if n_objects <= 0 or n_annotators <= 0:
            raise ConfigurationError(
                f"need positive sizes, got objects={n_objects}, "
                f"annotators={n_annotators}"
            )
        rng = as_rng(rng)
        self.config = config
        self.n_objects = n_objects
        self.n_annotators = n_annotators
        self.dqn = DQNAgent(
            DQNConfig(
                n_features=N_PAIR_FEATURES,
                gamma=config.reward.gamma,
                buffer_capacity=REPLAY_CAPACITY,
            ),
            rng=rng,
        )
        # The agent's own draws (tie-break jitter, demonstration noise,
        # random-ablation choices, next-state subsampling) come from a
        # child stream, so they never interleave with the DQN's replay
        # sampling on the parent generator — adding or removing a jitter
        # draw cannot perturb what the replay buffer serves.
        (self._rng,) = spawn_rngs(rng, 1)

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    @shaped(result="(n_objects, n_annotators)")
    def q_matrix(self, state: LabellingState) -> np.ndarray:
        """Masked Q-values for every pair, shape ``(|O|, |W|)``.

        Invalid pairs are ``-inf`` (Section IV-B's duplicate-labelling guard
        plus affordability).
        """
        tensor = state.feature_tensor()
        flat = tensor.reshape(-1, N_PAIR_FEATURES)
        with phase_timer("q_forward"):
            q = self.dqn.q_values(flat).reshape(
                self.n_objects, self.n_annotators
            )
        mask = state.action_mask()
        q = np.where(mask, q, -np.inf)
        return q

    def act(self, state: LabellingState) -> list[Assignment]:
        """Select this iteration's assignments from the current state.

        The default joint mode scores every pair and runs the top-k heap
        selection; ``ts_mode="random"`` / ``ta_mode="random"`` degrade the
        corresponding half to uniform choice (ablations M1 / M2).
        """
        q = self.q_matrix(state)
        # Tiny random jitter breaks score ties (ubiquitous early on, before
        # the Q-network separates pairs); without it the argmax
        # systematically favours low annotator ids and the agent never
        # explores the expert columns.
        jitter = self._rng.normal(scale=TIE_JITTER_SCALE, size=q.shape)
        score = np.where(np.isfinite(q), q + jitter, q)

        if (self.config.demo_probability > 0
                and self._rng.random() < self.config.demo_probability):
            score = self._demonstration_scores(state)

        group_mask, max_group = self._expert_cap(state)
        with phase_timer("select"):
            if self.config.ts_mode == "random":
                selected = self._random_ts(state, score)
            else:
                selected = select_objects_by_topk_q(
                    score, self.config.k_per_object, self.config.batch_size,
                    group_mask=group_mask, max_group=max_group,
                )

        assignments = []
        for object_id, annotator_ids in selected:
            if self.config.ta_mode == "random":
                annotator_ids = self._random_ta(state, object_id)
                if not annotator_ids:
                    continue
            assignments.append(Assignment(object_id, tuple(annotator_ids)))
        return assignments

    def _expert_cap(self, state: LabellingState):
        """The (group_mask, max_group) pair enforcing max_experts_per_object."""
        if self.config.max_experts_per_object is None:
            return None, None
        return state.pool.expert_mask, self.config.max_experts_per_object

    def _demonstration_scores(self, state: LabellingState) -> np.ndarray:
        """Heuristic action scores used for demonstration trajectories.

        Objects score by classifier uncertainty (normalised entropy),
        annotators by estimated quality — the entropy-TS +
        expertise-TA policy that strong decoupled pipelines use.  Acting
        from it occasionally during *offline* episodes fills the replay
        buffer with good trajectories for the Q-network to learn from.
        """
        obj_entropy = state.object_features()[:, 5]
        quality = state.annotator_features()[:, 1]
        score = obj_entropy[:, None] + 0.4 * quality[None, :]
        score = score + self._rng.normal(
            scale=TIE_JITTER_SCALE, size=score.shape
        )
        return np.where(state.action_mask(), score, -np.inf)

    def _random_ts(self, state: LabellingState,
                   score: np.ndarray) -> list[tuple[int, list[int]]]:
        """Ablation M1: pick objects uniformly; annotators still by Q."""
        # Candidates are objects with at least one valid action, mirroring
        # the mask used by the joint top-k selection (enriched objects stay
        # selectable).
        candidates = np.flatnonzero(np.isfinite(score).any(axis=1))
        if candidates.size == 0:
            return []
        k_obj = min(self.config.batch_size, candidates.size)
        chosen = self._rng.choice(candidates, size=k_obj, replace=False)
        group_mask, max_group = self._expert_cap(state)
        selected = []
        for object_id in chosen:
            row = score[object_id]
            # Full deterministic (value, -index) ranking via the unified
            # top-k API, then the group-cap walk.
            order = top_k_indices(row, row.size)
            annotators: list[int] = []
            n_in_group = 0
            for j in order:
                if not np.isfinite(row[j]):
                    continue
                if group_mask is not None and group_mask[j]:
                    if n_in_group >= max_group:
                        continue
                    n_in_group += 1
                annotators.append(int(j))
                if len(annotators) == self.config.k_per_object:
                    break
            if annotators:
                selected.append((int(object_id), annotators))
        return selected

    def _random_ta(self, state: LabellingState, object_id: int) -> list[int]:
        """Ablation M2: assign uniformly among valid annotators."""
        mask = state.action_mask()[object_id]
        valid = np.flatnonzero(mask)
        if valid.size == 0:
            return []
        k = min(self.config.k_per_object, valid.size)
        return [int(j) for j in self._rng.choice(valid, size=k, replace=False)]

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def remember_iteration(
        self,
        taken_features: np.ndarray,
        rewards: np.ndarray,
        next_state: Optional[LabellingState],
        terminal: bool,
    ) -> None:
        """Store one transition per atomic action taken this iteration.

        ``taken_features`` has one row per (object, annotator) pair acted
        on; ``rewards`` gives each pair's (possibly shaped) reward.  The
        successor's candidate features are subsampled to
        :data:`NEXT_STATE_SAMPLE` rows for tractable bootstrap maxima, and
        that one read-only array is shared by every transition stored here,
        so the DQN computes its bootstrap max once per target version.
        """
        taken = np.atleast_2d(np.asarray(taken_features, dtype=float))
        if taken.ndim != 2 or taken.shape[1] != N_PAIR_FEATURES:
            raise ConfigurationError(
                f"taken_features must have {N_PAIR_FEATURES} columns, got "
                f"shape {np.asarray(taken_features).shape}"
            )
        rewards = np.broadcast_to(
            np.asarray(rewards, dtype=float).ravel(), (taken.shape[0],)
        )
        next_candidates: Optional[np.ndarray] = None
        if next_state is not None and not terminal:
            tensor = next_state.feature_tensor()
            mask = next_state.action_mask()
            valid = tensor[mask]
            if valid.shape[0] == 0:
                terminal = True
            else:
                if valid.shape[0] > NEXT_STATE_SAMPLE:
                    idx = self._rng.choice(
                        valid.shape[0], NEXT_STATE_SAMPLE, replace=False,
                    )
                    valid = valid[idx]
                valid.setflags(write=False)
                next_candidates = valid
        for row, reward in zip(taken, rewards):
            self.dqn.remember(row, float(reward), next_candidates, terminal)

    def train(self) -> TrainSummary:
        """Run the configured number of replayed DQN updates.

        The ``dqn_train`` phase opens only when a step will run, so its
        timings never include the no-op calls made while the replay buffer
        is still filling.
        """
        dqn = self.dqn
        if not dqn.ready:
            return TrainSummary(None, 0, 0)
        forwards, lookups = dqn.target_forwards, dqn.bootstrap_lookups
        with phase_timer("dqn_train"):
            losses = dqn.train(self.config.train_steps_per_iteration)
        return TrainSummary(
            sum(losses) / len(losses) if losses else None,
            dqn.target_forwards - forwards,
            dqn.bootstrap_lookups - lookups,
        )

    # ------------------------------------------------------------------
    # Cross-training support (Section VI-A4)
    # ------------------------------------------------------------------
    def get_policy_weights(self):
        return self.dqn.get_weights()

    def set_policy_weights(self, weights) -> None:
        self.dqn.set_weights(weights)
