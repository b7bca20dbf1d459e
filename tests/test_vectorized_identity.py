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
"""

import hashlib

import pytest

from repro.harness.experiment import (
    ExperimentSetting,
    clear_pretrained_policies,
    run_experiment,
)

#: key -> (accuracy, f1, spent, iterations, sha256[:16] of final labels),
#: captured from the pre-vectorization implementation, CrowdRL/M1/M2
#: re-captured with warm-started refits (see module docstring).
SEED_REFERENCES = {
    "fig4:S12CP:CrowdRL-pretrained:seed7": (0.9361702127659575, 0.9454545454545454, 200.0, 5, "443069eae658f9b0"),
    "fig4:S12CP:CrowdRL:seed0": (0.6595744680851063, 0.68, 200.0, 8, "44bb865b89c57ed9"),
    "fig4:S12CP:CrowdRL:seed1": (0.574468085106383, 0.6551724137931034, 200.0, 5, "d3bec09c07f82c62"),
    "fig4:S12CP:CrowdRL:seed2": (0.6170212765957447, 0.6896551724137931, 200.0, 5, "fd299937f5dcc00c"),
    "fig4:S12CP:DLTA:seed0": (0.8085106382978723, 0.8301886792452831, 191.0, 13, "ccc2f652d3d77291"),
    "fig4:S12CP:DLTA:seed1": (0.723404255319149, 0.7346938775510204, 191.0, 13, "f4cff0fe7a5e9e94"),
    "fig4:S12CP:DLTA:seed2": (0.7659574468085106, 0.7924528301886793, 200.0, 9, "ba6757cadd890e3f"),
    "fig4:S12CP:IDLE:seed0": (0.7659574468085106, 0.7555555555555555, 171.0, 13, "a0cfd7abad10aea2"),
    "fig4:S12CP:IDLE:seed1": (0.8723404255319149, 0.896551724137931, 191.0, 13, "72795b6c5678b32c"),
    "fig4:S12CP:IDLE:seed2": (0.8297872340425532, 0.8181818181818182, 191.0, 14, "43a6e864d73351d2"),
    "fig4:S3CP:CrowdRL:seed0": (0.8421052631578947, 0.8421052631578948, 200.0, 9, "8fc1dc6b94d4eb92"),
    "fig4:S3CP:CrowdRL:seed1": (0.8157894736842105, 0.8571428571428572, 200.0, 5, "66b6e89a54880964"),
    "fig4:S3CP:CrowdRL:seed2": (0.7105263157894737, 0.7755102040816326, 200.0, 5, "2d1691e252e9e4f0"),
    "fig4:S3CP:DLTA:seed0": (0.631578947368421, 0.6666666666666666, 186.0, 10, "f99bf6821ae69e23"),
    "fig4:S3CP:DLTA:seed1": (0.7105263157894737, 0.744186046511628, 114.0, 10, "440d8ac6f55b87a7"),
    "fig4:S3CP:DLTA:seed2": (0.7368421052631579, 0.761904761904762, 200.0, 9, "ff15d2f99ce723f2"),
    "fig4:S3CP:IDLE:seed0": (0.6578947368421053, 0.5806451612903226, 164.0, 11, "844910671b064ad7"),
    "fig4:S3CP:IDLE:seed1": (0.8157894736842105, 0.8444444444444444, 164.0, 11, "0ee399576fa2fc50"),
    "fig4:S3CP:IDLE:seed2": (0.8157894736842105, 0.8444444444444444, 164.0, 11, "5baa6b38fb18693f"),
    "fig8:M1:seed0": (0.8085106382978723, 0.8085106382978724, 200.0, 8, "b1cd50d26fe60380"),
    "fig8:M1:seed1": (0.723404255319149, 0.7936507936507937, 200.0, 5, "54fe125bb4f08e4b"),
    "fig8:M2:seed0": (0.7872340425531915, 0.782608695652174, 200.0, 4, "7a68d50fde862e86"),
    "fig8:M2:seed1": (0.7659574468085106, 0.8196721311475409, 200.0, 5, "1e832c64a5ae32ac"),
    "fig8:M3:seed0": (0.6808510638297872, 0.7540983606557378, 200.0, 5, "bebdd909f51e9f46"),
    "fig8:M3:seed1": (0.5531914893617021, 0.7042253521126761, 200.0, 5, "2226d4da6f5775e7"),
}


def _parse(key: str):
    """``fig4:<dataset>:<framework>:seed<n>`` / ``fig8:<framework>:seed<n>``."""
    parts = key.split(":")
    if parts[0] == "fig4":
        _, dataset, framework, seed = parts
    else:
        _, framework, seed = parts
        dataset = "S12CP"
    pretrain = framework.endswith("-pretrained")
    framework = framework.replace("-pretrained", "")
    return dataset, framework, int(seed.removeprefix("seed")), pretrain


def _labels_digest(labels) -> str:
    joined = ",".join(str(int(x)) for x in labels)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(SEED_REFERENCES))
def test_seed_outputs_are_bit_identical(key):
    dataset, framework, seed, pretrain = _parse(key)
    clear_pretrained_policies()
    result = run_experiment(
        framework,
        ExperimentSetting(dataset, scale=0.02, seed=seed),
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
