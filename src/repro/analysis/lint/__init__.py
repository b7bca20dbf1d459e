"""Per-module REPRO rules (REPRO001-006) and the analyzer's shared pieces.

:mod:`~repro.analysis.lint.engine` holds the finding record, suppression
comments and rule selection; :mod:`~repro.analysis.lint.rules` the six
per-module rules.  Both run inside the one analyzer pass,
:func:`repro.analysis.flow.analyze_project`.
"""
