"""REPRO008 fixture: global numpy RNG state entering dataflow.

Two hits: the ``np.random`` module object passed as an argument and
bound to a variable.  Passing a real generator stays silent.
(``np.random.seed`` and friends are REPRO001 calls; see bad_rng_seed.py.)
"""

import numpy as np


def consume(rng):
    """Any callee that draws from whatever it is handed."""
    return rng.random(3)


def hit_passed_as_argument():
    """The module object is not a stream (flagged)."""
    return consume(rng=np.random)


def hit_bound_as_value():
    """Aliasing the module smuggles global state (flagged)."""
    rng = np.random
    return consume(rng=rng)


def clean_generator(seed):
    """A seeded generator is the sanctioned currency (silent)."""
    return consume(rng=np.random.default_rng(seed))
