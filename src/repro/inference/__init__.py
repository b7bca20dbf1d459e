"""Truth inference: aggregating noisy answers into true labels.

Holds exactly the four aggregation algorithms the paper uses:

* :class:`MajorityVote` — the naive baseline (Section V-A1).
* :class:`DawidSkene` — classic confusion-matrix EM, used by DLTA, IDLE
  and DALC.
* :class:`PMInference` — the PM algorithm of Zheng et al. [48], used by the
  Hybrid baseline and the M3 ablation.
* :class:`JointInference` — the paper's contribution (Section V): EM over
  classifier parameters, annotator confusion matrices and latent truths
  simultaneously, with expert-quality bounding.
"""

from repro.inference.base import AnswerMap, InferenceResult, TruthInference
from repro.inference.dawid_skene import DawidSkene
from repro.inference.joint import JointInference
from repro.inference.majority import MajorityVote
from repro.inference.pm import PMInference

__all__ = [
    "AnswerMap",
    "InferenceResult",
    "TruthInference",
    "MajorityVote",
    "DawidSkene",
    "PMInference",
    "JointInference",
]
