"""Runtime contracts for the CrowdRL reproduction.

:mod:`repro.analysis.contracts` holds toggleable runtime decorators
(``@shaped``, ``@row_stochastic``, ``@prob_simplex``) asserting the
paper's array invariants (Eqs. 7-8 row-stochasticity, the ``|O| x |W|``
answer-matrix orientation) on the joint-inference and DQN hot paths.
Set ``REPRO_CONTRACTS=0`` to compile them all to no-ops.
``python -m repro.analysis contracts-report`` lists every decoration.

The static REPRO rules over the source tree are tier-1 tests
(``tests/test_source_rules.py``), not library code.
"""

from repro.analysis.contracts import (
    ContractViolation,
    contract_registry,
    contracts_active,
    prob_simplex,
    row_stochastic,
    shaped,
)

__all__ = [
    "ContractViolation",
    "contract_registry",
    "contracts_active",
    "prob_simplex",
    "row_stochastic",
    "shaped",
]
