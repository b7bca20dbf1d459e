"""Bit-identity of the vectorized hot path against git-seed references.

The PR that vectorized the episode hot path (StateFeaturizer dirty-set
caching, fused agent scoring, argpartition top-k) promised **bit-identical
seeds**: every committed experiment output must reproduce exactly, not
approximately.  The reference values below were captured by running the
pre-vectorization implementation (the repository state before that PR)
over a fig4/fig8-style matrix — datasets x frameworks x seeds at tiny
scale, plus one pretrained run exercising the policy cache — and
recording accuracy, F1, budget spent, iteration count and a digest of
the final label vector.

If any of these comparisons drifts, the hot path changed numerics;
either a bug was introduced or a deliberate numerical change needs these
references (and every committed figure) regenerated together.

Deliberate re-pins so far: the eleven CrowdRL, M1 and M2 entries were
re-captured when ``LogisticRegressionClassifier.fit_soft`` began
continuing from the model's current weights, so the classifier refits
inside one joint-EM run warm-start (DESIGN.md section 5).  The DLTA, IDLE
and M3 entries never run joint EM and are the original captures.

Second re-pin: the CrowdRL, M1 and M2 entries, the three ``faults0.2``
entries and the pretrained run were re-captured when joint EM began
refitting its classifier on the power-of-two sweeps only (1, 2, 4, 8,
16) instead of on every sweep (DESIGN.md section 5).  Holding the
classifier between refits changes every joint-EM posterior, so every
run through joint EM moves; ``fig8:M2:seed0`` happens to land on the
same values.  The change was accepted on the paired-seed protocol
(``benchmarks/paired_seeds.py``, EXPERIMENTS.md), not on these single
runs.  The DLTA, IDLE, M3, OBA, DALC and Hybrid entries never run joint
EM and did not move.

Third re-pin: the eighteen entries that fit the logistic classifier
were re-captured when ``LogisticRegressionClassifier.fit_soft`` changed
from fixed-step gradient descent to a Newton-CG solver run to its
optimum, with an explicit ``l2 = 0.05`` (DESIGN.md section 5).  Every
framework builds its classifier from ``default_classifier_factory``, so
the entries that moved are: the CrowdRL, M1 and M2 entries, the
pretrained run and the three ``faults0.2`` entries (joint EM and
enrichment), and the DALC and Hybrid entries (DALC's end-of-run
classifier and task-selection entropies, Hybrid's bootstrap
MinExpError classifiers).  The DLTA, IDLE, OBA and M3 entries did not
move.  The change was accepted on the paired-seed protocol, not on these
single runs (EXPERIMENTS.md).

Fourth re-pin: the fourteen DLTA, IDLE and DALC entries were
re-captured when ``DawidSkene`` moved from plain EM capped at 100 sweeps
to SQUAREM run to convergence, with ``smoothing`` raised from 0.1 to 0.3
(DESIGN.md section 5).  Nine of them moved; ``fig4:S12CP:DALC:seed0``,
``fig4:S12CP:DLTA:seed0``, ``fig4:S12CP:DLTA:seed1``,
``fig4:S12CP:IDLE:seed0`` and ``fig4:S3CP:DLTA:seed1`` land on the same
values.  No other framework calls ``DawidSkene``, and no other entry
moved.  The change was accepted on the paired-seed protocol for DLTA,
IDLE and DALC (``paired_seeds.py run --frameworks DLTA,IDLE,DALC``,
EXPERIMENTS.md), not on these single runs.

The three ``faults0.2`` entries pin CrowdRL under injected annotator
faults with resilient collection (S12CP, scale 0.05, no pretraining).
A dropped answer leaves an already-assigned pair selectable, so this is
the one path where a per-pair selection count could differ between
valid actions; in their first capture seeds 25 and 35 reached such a
state and seed 0 did not.  They were captured before the Eq. 6 UCB
bonus was removed, and pinned that the removal changed no decision
there.

The six OBA, DALC and Hybrid entries pin the remaining baselines, so an
RNG or aliasing defect that only those code paths reach still moves a
digest.  They were captured from the same code as the entries above.
"""

import hashlib

import pytest

from repro.harness.experiment import (
    ExperimentSetting,
    ExperimentSpec,
    clear_pretrained_policies,
    run_experiment,
)

#: key -> (accuracy, f1, spent, iterations, sha256[:16] of final labels),
#: captured from the pre-vectorization implementation; the entries that
#: fit the logistic classifier re-captured with the Newton-CG solver (see
#: module docstring).
SEED_REFERENCES = {
    "fig4:S12CP:CrowdRL-pretrained:seed7": (0.8723404255319149, 0.8846153846153846, 200.0, 5, '8e0173810c9d4531'),
    "fig4:S12CP:CrowdRL:seed0": (0.8085106382978723, 0.8085106382978724, 200.0, 11, '117b7d18f1ca6b40'),
    "fig4:S12CP:CrowdRL:seed1": (0.7021276595744681, 0.7666666666666667, 200.0, 5, '0c26848204b589ea'),
    "fig4:S12CP:CrowdRL:seed2": (0.7021276595744681, 0.7307692307692307, 200.0, 5, 'ea160b3c211f5717'),
    "fig4:S12CP:DLTA:seed0": (0.8085106382978723, 0.8301886792452831, 191.0, 13, "ccc2f652d3d77291"),
    "fig4:S12CP:DLTA:seed1": (0.723404255319149, 0.7346938775510204, 191.0, 13, "f4cff0fe7a5e9e94"),
    "fig4:S12CP:DLTA:seed2": (0.7872340425531915, 0.8214285714285714, 191.0, 13, "5387f61a7b8130e8"),
    "fig4:S12CP:DALC:seed0": (0.5106382978723404, 0.30303030303030304, 200.0, 5, 'f20b901980bc4217'),
    "fig4:S12CP:DALC:seed1": (0.6595744680851063, 0.7714285714285715, 200.0, 7, "8229161a5e4d763b"),
    "fig4:S12CP:Hybrid:seed0": (0.7021276595744681, 0.6956521739130435, 200.0, 13, '6333d3f2c8e2fec0'),
    "fig4:S12CP:Hybrid:seed1": (0.7446808510638298, 0.7999999999999999, 200.0, 10, '405ffe43a3e456cf'),
    "fig4:S12CP:IDLE:seed0": (0.7659574468085106, 0.7555555555555555, 171.0, 13, "a0cfd7abad10aea2"),
    "fig4:S12CP:IDLE:seed1": (0.851063829787234, 0.8813559322033899, 200.0, 12, "cf6d062a23412aaf"),
    "fig4:S12CP:IDLE:seed2": (0.8297872340425532, 0.8333333333333334, 200.0, 12, "1f48de367e230c82"),
    "fig4:S12CP:OBA:seed0": (0.7021276595744681, 0.75, 32.0, 3, "8f9128e08df9b8e0"),
    "fig4:S12CP:OBA:seed1": (0.5319148936170213, 0.6666666666666667, 26.0, 3, "2eb0f9c6b5efbdc2"),
    "fig4:S3CP:CrowdRL:seed0": (0.8421052631578947, 0.823529411764706, 200.0, 7, 'a9ed3afd06c506dd'),
    "fig4:S3CP:CrowdRL:seed1": (0.8421052631578947, 0.8799999999999999, 200.0, 5, '6bbf062c30e1ce15'),
    "fig4:S3CP:CrowdRL:seed2": (0.8157894736842105, 0.8372093023255814, 200.0, 5, '8390a61daecbfde2'),
    "fig4:S3CP:DLTA:seed0": (0.7631578947368421, 0.7906976744186047, 114.0, 10, "718b769ce73fe1bd"),
    "fig4:S3CP:DLTA:seed1": (0.7105263157894737, 0.744186046511628, 114.0, 10, "440d8ac6f55b87a7"),
    "fig4:S3CP:DLTA:seed2": (0.7631578947368421, 0.7999999999999999, 114.0, 10, "41a201168e434595"),
    "fig4:S3CP:IDLE:seed0": (0.6842105263157895, 0.6250000000000001, 164.0, 11, "91ad96b262bc112d"),
    "fig4:S3CP:IDLE:seed1": (0.7368421052631579, 0.7916666666666666, 200.0, 11, "5f526405a9a2dedc"),
    "fig4:S3CP:IDLE:seed2": (0.8421052631578947, 0.8636363636363635, 174.0, 11, "9420c26cad855e08"),
    "fig8:M1:seed0": (0.7659574468085106, 0.7441860465116279, 200.0, 8, '65a3e354d0bc6992'),
    "fig8:M1:seed1": (0.723404255319149, 0.7868852459016394, 200.0, 5, '73aa64756a06b2ef'),
    "fig8:M2:seed0": (0.7021276595744681, 0.7307692307692308, 200.0, 4, '03a80e2733483a5f'),
    "fig8:M2:seed1": (0.7446808510638298, 0.7857142857142857, 200.0, 5, 'b2dcdee452014999'),
    "fig8:M3:seed0": (0.6808510638297872, 0.7540983606557378, 200.0, 5, "bebdd909f51e9f46"),
    "fig8:M3:seed1": (0.5531914893617021, 0.7042253521126761, 200.0, 5, "2226d4da6f5775e7"),
    "faults0.2:S12CP:CrowdRL:seed0": (0.7435897435897436, 0.7, 499.5, 11, '1a93aa0c18158b0f'),
    "faults0.2:S12CP:CrowdRL:seed25": (0.7606837606837606, 0.7971014492753622, 500.0, 11, '3e2db11b4b8ba380'),
    "faults0.2:S12CP:CrowdRL:seed35": (0.7264957264957265, 0.8, 496.0, 11, '904363bfb692f9a0'),
}


def _parse(key: str):
    """``fig4:<dataset>:<framework>:seed<n>`` / ``fig8:<framework>:seed<n>``
    at scale 0.02, or ``faults<rate>:<dataset>:<framework>:seed<n>`` at
    scale 0.05 under ``ExperimentSpec(faults=<rate>)``.

    Returns ``(dataset, framework, seed, pretrain, scale, spec)``.
    """
    parts = key.split(":")
    scale, spec = 0.02, None
    if parts[0] == "fig8":
        _, framework, seed = parts
        dataset = "S12CP"
    else:
        head, dataset, framework, seed = parts
        if head.startswith("faults"):
            scale = 0.05
            spec = ExperimentSpec(faults=float(head.removeprefix("faults")))
    pretrain = framework.endswith("-pretrained")
    framework = framework.replace("-pretrained", "")
    return dataset, framework, int(seed.removeprefix("seed")), pretrain, scale, spec


def _labels_digest(labels) -> str:
    joined = ",".join(str(int(x)) for x in labels)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(SEED_REFERENCES))
def test_seed_outputs_are_bit_identical(key):
    dataset, framework, seed, pretrain, scale, spec = _parse(key)
    clear_pretrained_policies()
    result = run_experiment(
        framework,
        ExperimentSetting(dataset, scale=scale, seed=seed),
        spec,
        pretrain=pretrain,
    )
    accuracy, f1, spent, iterations, digest = SEED_REFERENCES[key]
    # Exact equality on floats is the point: the vectorized path promises
    # the same IEEE operations as the git-seed reference, not tolerances.
    assert result.report.accuracy == accuracy, key
    assert result.report.f1 == f1, key
    assert result.outcome.spent == spent, key
    assert result.outcome.iterations == iterations, key
    assert _labels_digest(result.outcome.final_labels) == digest, key
