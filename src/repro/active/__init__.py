"""Active-learning toolkit: the bootstrap MinExpError scores.

Used by the Hybrid baseline's task selection (Mozafari et al.).  DLTA,
DALC and the CrowdRL ablation M1 compute their entropy and random picks
inline.
"""

from repro.active.bootstrap import min_exp_error_scores

__all__ = ["min_exp_error_scores"]
