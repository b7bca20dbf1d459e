"""Static analysis and runtime contracts for the CrowdRL reproduction.

Two halves, both reachable through ``python -m repro.analysis``:

* :mod:`repro.analysis.flow` — the static analyzer: one pass of
  stdlib-``ast`` rules over a parsed project, guarding what the tier-1
  tests cannot see: validated public inputs, swallowed exceptions,
  public docstrings, unsorted enumeration, wall-clock reads,
  order-dependent reductions and blocking calls on the serving event
  loop (REPRO003, 004, 006, 011, 012, 017, 020).
* :mod:`repro.analysis.contracts` — toggleable runtime decorators
  (``@shaped``, ``@row_stochastic``, ``@prob_simplex``) asserting the
  paper's array invariants (Eqs. 7-8 row-stochasticity, the ``|O| x |W|``
  answer-matrix orientation) on the joint-inference and DQN hot paths.
  Set ``REPRO_CONTRACTS=0`` to compile them all to no-ops.

Only the contracts API is re-exported here, so the library modules that
import it do not load the analyzer.
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
