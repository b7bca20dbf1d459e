"""The end-to-end CrowdRL workflow (paper Algorithm 1).

:class:`LabellingFramework` is the interface every end-to-end labelling
framework in this repository implements (CrowdRL and all five baselines),
so the harness can run them interchangeably on identical platforms.

:class:`CrowdRL` realises Algorithm 1:

1. initialise the State; sample an ``alpha`` fraction of objects and have
   annotators label them;
2. loop until everything is labelled or the budget is exhausted:
   train ``phi`` and enrich the labelled set, update the State, let the
   Agent pick the joint TS+TA action, collect answers, run joint truth
   inference, compute the reward, store transitions, train the DQN;
3. label whatever remains with the trained classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from repro.core.agent import Agent
from repro.core.config import CrowdRLConfig
from repro.core.environment import Environment
from repro.core.result import LabelSource, LabellingOutcome
from repro.core.reward import iteration_reward
from repro.core.state import LabellingState
from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.datasets.base import LabelledDataset
from repro.exceptions import ConfigurationError
from repro.obs import get_registry, phase_timer
from repro.utils.rng import SeedLike, as_rng
from repro.utils.topk import top_k_indices


@dataclass(frozen=True)
class CollectRequest:
    """One batch of answer collection an episode asks its driver to do.

    The stepwise episode protocol (see :meth:`LabellingFramework.episode`)
    yields these at every point where Algorithm 1 touches the platform.
    ``assignments`` is what ``platform.ask_batch`` accepts; ``phase`` names
    the obs phase the driver should attribute the collection to
    (``budget.<phase>`` counters and ``phase_timer`` blocks), so drivers
    reproduce the sync path's exact budget attribution.
    """

    assignments: tuple
    phase: str = "collect"

    def run(self, collect: Callable, budget: BudgetManager):
        """Call ``collect(assignments)`` and attribute its spend to the phase.

        Both episode drivers collect through this, so they share one
        ``phase_timer`` block and one ``budget.<phase>`` formula: the
        initial sample is charged by spent-delta (wrappers may charge
        waste for the sample too), iteration collections by
        ``budget.iteration_cost`` over the ledger slice.  Returns what
        ``collect`` returned.
        """
        spent_before = budget.spent
        ledger_start = budget.ledger_length
        with phase_timer(self.phase):
            result = collect(self.assignments)
        if self.phase == "initial_sample":
            cost = budget.spent - spent_before
        else:
            cost = budget.iteration_cost(ledger_start)
        get_registry().inc(f"budget.{self.phase}", cost)
        return result


def drive_episode(
    episode: Generator,
    platform: CrowdPlatform,
) -> LabellingOutcome:
    """Drive a stepwise episode generator against a synchronous platform.

    This is the reference driver: it answers every
    :class:`CollectRequest` with a blocking ``platform.ask_batch`` call
    through :meth:`CollectRequest.run`, so ``framework.run(...)`` built on
    this driver is bit-identical to the historical implementation.  The
    async event-loop collector (:mod:`repro.serve.collector`) is the
    other driver of the same protocol; this one is its oracle.
    """
    try:
        request = next(episode)
    except StopIteration as stop:
        return stop.value
    while True:
        records = request.run(platform.ask_batch, platform.budget)
        try:
            request = episode.send(records)
        except StopIteration as stop:
            return stop.value


class LabellingFramework:
    """Interface shared by CrowdRL and every baseline."""

    #: Display name used in reports; subclasses override.
    name: str = "framework"

    def run(self, dataset: LabelledDataset,
            platform: CrowdPlatform) -> LabellingOutcome:
        """Label ``dataset`` through ``platform`` within its budget."""
        raise NotImplementedError

    def episode(
        self, dataset: LabelledDataset, platform: CrowdPlatform
    ) -> Generator:
        """The framework's run as a stepwise generator (online-servable).

        Yields a :class:`CollectRequest` wherever the framework would
        call ``platform.ask_batch`` and receives the collected
        ``AnswerRecord`` list via ``send``; returns the
        :class:`LabellingOutcome` as the generator's value.  Frameworks
        implementing this run unchanged under both the synchronous
        reference driver (:func:`drive_episode`) and the async serving
        layer.  Baselines that only implement the monolithic :meth:`run`
        raise ``NotImplementedError`` here and cannot be served online.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the stepwise episode "
            f"protocol and cannot be driven by the online serving layer; "
            f"use .run() with a synchronous platform instead"
        )

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _finalize_labels(
        n_objects: int,
        n_classes: int,
        truths: dict[int, int],
        enriched: dict[int, int],
        fallback_proba: Optional[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble final labels for all of O and their provenance.

        Precedence: human-inferred truths > enrichment > final-classifier
        prediction > majority class of the truths (when no classifier could
        be trained).
        """
        labels = np.zeros(n_objects, dtype=int)
        sources = np.full(n_objects, LabelSource.PREDICTED, dtype=int)

        if truths:
            counts = np.bincount(
                np.fromiter(truths.values(), dtype=int), minlength=n_classes
            )
            default = int(np.argmax(counts))
        else:
            default = 0
        if fallback_proba is not None:
            labels[:] = fallback_proba.argmax(axis=1)
        else:
            labels[:] = default
        for object_id, label in enriched.items():
            labels[object_id] = label
            sources[object_id] = LabelSource.ENRICHED
        for object_id, label in truths.items():
            labels[object_id] = label
            sources[object_id] = LabelSource.HUMAN
        return labels, sources


class CrowdRL(LabellingFramework):
    """The paper's framework (Algorithm 1)."""

    name = "CrowdRL"

    def __init__(self, config: Optional[CrowdRLConfig] = None,
                 rng: SeedLike = None, *, trace=None) -> None:
        self.config = config or CrowdRLConfig()
        self._rng = as_rng(rng)
        #: Policy weights carried across runs (offline cross-training).
        self._pretrained_weights = None
        #: Optional :class:`repro.harness.tracking.RunTrace` receiving a
        #: snapshot after every labelling iteration.
        self.trace = trace

    # ------------------------------------------------------------------
    def pretrain(self, dataset: LabelledDataset,
                 platform: CrowdPlatform,
                 demo_probability: float = 0.5) -> LabellingOutcome:
        """Offline cross-training (Section VI-A4).

        Runs a full labelling episode on a *training* dataset and keeps the
        learned policy weights, which subsequent :meth:`run` calls start
        from — the paper's "when evaluating one dataset online, we used the
        other datasets to train the RL model offline in advance".  During
        the offline episode the agent acts from the demonstration heuristic
        with probability ``demo_probability``, seeding the replay buffer
        with good trajectories (evaluation runs keep the configured value,
        zero by default).
        """
        import dataclasses

        original = self.config
        self.config = dataclasses.replace(
            original, demo_probability=demo_probability
        )
        try:
            outcome = self.run(dataset, platform)
        finally:
            self.config = original
        return outcome

    # ------------------------------------------------------------------
    def run(self, dataset: LabelledDataset,
            platform: CrowdPlatform) -> LabellingOutcome:
        """Run Algorithm 1: iterate select/ask/infer/enrich within budget."""
        return drive_episode(self.episode(dataset, platform), platform)

    def episode(
        self, dataset: LabelledDataset, platform: CrowdPlatform
    ) -> Generator:
        """Algorithm 1 as a stepwise generator (see the base docstring).

        Yields a :class:`CollectRequest` for the initial alpha-sample and
        for every iteration's collection step, receiving the answer
        records back via ``send``.  All RNG draws, featurization, and
        learning happen between yields, so any driver that executes the
        requests in order — blocking or overlapped — produces identical
        results as long as its platform charges and records answers in
        request order.
        """
        config = self.config
        n_objects = platform.n_objects
        if dataset.n_objects != n_objects:
            raise ConfigurationError(
                f"dataset has {dataset.n_objects} objects, platform expects "
                f"{n_objects}"
            )

        env = Environment(platform, dataset.features, config, rng=self._rng)
        agent = Agent(n_objects, len(platform.pool), config, rng=self._rng)
        if self._pretrained_weights is not None:
            agent.set_policy_weights(self._pretrained_weights)
        state = LabellingState(platform.history, platform.pool, platform.budget,
                               answer_norm=config.k_per_object,
                               mask_enriched=config.sticky_enrichment,
                               unavailable=getattr(
                                   platform, "quarantined_annotators", None))

        # ---- Algorithm 1 line 2: initial alpha-sample ----
        yield self._initial_sample_request(platform)
        env.infer_truths()
        state.set_labelled(env.truths.keys(), env.enriched.keys())

        worst_case_cost = (
            config.batch_size * config.k_per_object * float(platform.pool.costs.max())
        )
        rewards: list[float] = []
        iterations = 0

        while iterations < config.max_iterations:
            iterations += 1
            # The r_phi denominator: objects not yet labelled by humans
            # (non-sticky enrichment recomputes classifier labels each
            # iteration, so counting them as "labelled" here would let the
            # denominator collapse and blow up the reward scale).
            if config.sticky_enrichment:
                n_unlabelled_before = n_objects - len(env.current_labels())
            else:
                n_unlabelled_before = n_objects - len(env.truths)

            # ---- Labelled-set enrichment (lines 4-14) ----
            newly_enriched = env.train_and_enrich()
            state.set_classifier_proba(env.classifier_proba())
            state.set_labelled(env.truths.keys(), env.enriched.keys())

            # Stop once the budget cannot buy a single further answer, or —
            # in sticky mode — once every object carries a label.  With
            # non-sticky enrichment the agent keeps spending budget on human
            # answers for the objects it judges most valuable.
            done = not platform.budget.can_afford(platform.cheapest_cost())
            if config.sticky_enrichment:
                done = done or state.all_labelled()
            if done:
                break

            # ---- Joint TS + TA action (line 16) ----
            assignments = agent.act(state)
            if not assignments:
                break  # every pair masked (e.g. all annotators exhausted)

            # Featurize the chosen pairs *before* the environment mutates.
            obj_feats = state.object_features()
            ann_feats = state.annotator_features()
            glob = state.global_features()
            # Pre-answer uncertainty (normalised entropy) per object, for the
            # information-gain shaping term.
            entropy_before = obj_feats[:, 5]
            ledger_start = platform.budget.ledger_length
            records = yield CollectRequest(
                assignments=tuple(
                    (a.object_id, list(a.annotator_ids)) for a in assignments
                ),
                phase="collect",
            )
            if not records:
                break  # could not afford a single answer
            taken_features = np.stack([
                np.concatenate([
                    obj_feats[r.object_id], ann_feats[r.annotator_id], glob
                ])
                for r in records
            ])

            # ---- Truth inference (line 18) ----
            env.infer_truths()
            state.set_classifier_proba(env.classifier_proba())
            state.set_labelled(env.truths.keys(), env.enriched.keys())

            # ---- Reward, replay, DQN update ----
            cost = platform.budget.iteration_cost(ledger_start)
            reward = iteration_reward(
                config.reward,
                n_enriched=len(newly_enriched),
                n_unlabelled_before=max(n_unlabelled_before, 1),
                iteration_cost=cost,
                worst_case_cost=worst_case_cost,
            )
            rewards.append(reward)
            pair_rewards = self._shaped_pair_rewards(
                records, reward, env, entropy_before,
                float(platform.pool.costs.max()),
            )
            terminal = not platform.budget.can_afford(platform.cheapest_cost())
            if config.sticky_enrichment:
                terminal = terminal or state.all_labelled()
            agent.remember_iteration(taken_features, pair_rewards, state, terminal)
            agent.train()
            if self.trace is not None:
                from repro.harness.tracking import IterationRecord

                self.trace.record(IterationRecord(
                    iteration=iterations,
                    spent=platform.budget.spent,
                    n_truths=len(env.truths),
                    n_enriched=len(env.enriched),
                    reward=reward,
                    iteration_cost=cost,
                    n_assignments=len(records),
                ))
            if terminal:
                break

        # Keep the learned policy for cross-training reuse.
        self._pretrained_weights = agent.get_policy_weights()

        labels, sources = self._finalize_labels(
            n_objects,
            platform.n_classes,
            env.truths,
            env.enriched,
            env.classifier_proba(),
        )
        return LabellingOutcome(
            framework=self.name,
            final_labels=labels,
            label_sources=sources,
            spent=platform.budget.spent,
            budget=platform.budget.total,
            iterations=iterations,
            reward_history=rewards,
            extras={
                "n_truths": len(env.truths),
                "n_enriched": len(env.enriched),
                "dqn_train_steps": agent.dqn.train_steps,
            },
        )

    # ------------------------------------------------------------------
    def _shaped_pair_rewards(
        self,
        records,
        base_reward: float,
        env: Environment,
        entropy_before: np.ndarray,
        max_cost: float,
    ) -> np.ndarray:
        """Per-action shaped rewards (see CrowdRLConfig reward-shaping docs).

        Each answered pair receives the shared iteration reward plus
        ``info_gain_weight`` times the object's normalised entropy drop
        (pre-answer classifier entropy minus post-inference posterior
        entropy), ``agreement_weight`` if the answer matches the inferred
        truth, minus ``pair_cost_weight`` times the annotator's normalised
        cost.  With all shaping weights zero this degenerates to the
        paper's bare iteration reward.
        """
        config = self.config
        n_classes = env.platform.n_classes
        log_c = np.log(n_classes)
        out = np.empty(len(records))
        for i, record in enumerate(records):
            shaped = base_reward
            posterior = env.posteriors.get(record.object_id)
            if posterior is not None and config.info_gain_weight > 0:
                h_after = float(
                    -(posterior * np.log(posterior + 1e-12)).sum() / log_c
                )
                gain = float(entropy_before[record.object_id]) - h_after
                shaped += config.info_gain_weight * gain
            truth = env.truths.get(record.object_id)
            if truth is not None and record.answer == truth:
                shaped += config.agreement_weight
            shaped -= config.pair_cost_weight * record.cost / max_cost
            out[i] = shaped
        return out

    # ------------------------------------------------------------------
    def _initial_sample_request(
        self, platform: CrowdPlatform
    ) -> CollectRequest:
        """The alpha-fraction cold-start batch (Algorithm 1 line 2).

        Objects are drawn uniformly; each is sent to ``k`` annotators chosen
        by estimated quality per unit cost, the natural cold-start heuristic
        when the State carries no history yet.  The driver executes the
        request under the ``initial_sample`` phase (timer + spent-delta
        budget counter).
        """
        config = self.config
        n_objects = platform.n_objects
        n_initial = max(1, int(round(config.alpha * n_objects)))
        chosen = self._rng.choice(n_objects, size=min(n_initial, n_objects),
                                  replace=False)
        qualities = platform.pool.estimated_qualities()
        costs = platform.pool.costs
        value = qualities / costs
        k = min(config.k_per_object, len(platform.pool))
        preferred = top_k_indices(value, k)
        return CollectRequest(
            assignments=tuple((int(i), list(preferred)) for i in chosen),
            phase="initial_sample",
        )
