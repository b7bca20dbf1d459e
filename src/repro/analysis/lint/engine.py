"""Rule-agnostic pieces of the REPRO analyzer.

The :class:`Finding` record every rule yields, ``*.py`` discovery, the
``--select`` id/range parser, and per-line suppression comments of the
form::

    risky_call()  # repro: noqa REPRO012
    another()     # repro: noqa            (suppresses every rule)

The rules themselves run in one pass over a parsed project, see
:func:`repro.analysis.flow.analyze_project`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.exceptions import ConfigurationError

#: Severity levels, in increasing order of gravity.
SEVERITIES = ("warning", "error")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<codes>(?:[ \t,]+REPRO\d+)*)", re.IGNORECASE
)


@dataclass(frozen=True, order=True)
class Finding:
    """One structured analyzer finding, sortable into report order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def format(self) -> str:
        """Render as the conventional ``path:line:col: ID message`` line."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable representation (the ``--format json`` payload)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "severity": self.severity,
        }


#: Inclusive rule-id range, e.g. ``REPRO011-REPRO017`` or ``REPRO011-017``.
_SELECT_RANGE_RE = re.compile(r"^(REPRO)(\d+)-(?:REPRO)?(\d+)$", re.IGNORECASE)


def expand_rule_ranges(select: Iterable[str],
                       known: Iterable[str]) -> List[str]:
    """Expand ``--select`` tokens (ids and inclusive ranges) against ``known``.

    A token is either a single id (``REPRO004``), which must exist in
    ``known``, or an inclusive range (``REPRO001-REPRO006``, short form
    ``REPRO001-006``), which expands to the known ids within its bounds
    and must contain at least one.  Ids are not renumbered when a rule
    retires, so a range may span retired ids; a retired id named on its
    own is unknown.
    """
    known = sorted(set(known))
    chosen: List[str] = []
    for token in select:
        token = token.strip().upper()
        match = _SELECT_RANGE_RE.match(token)
        if match is None:
            expanded = [token] if token in known else []
        else:
            lo, hi = int(match.group(2)), int(match.group(3))
            if hi < lo:
                raise ConfigurationError(f"empty flow rule range {token!r}")
            expanded = [rule_id for rule_id in known
                        if lo <= int(rule_id[len("REPRO"):]) <= hi]
        if not expanded:
            raise ConfigurationError(
                f"unknown flow rule {token!r}; known: {', '.join(known)}"
            )
        chosen.extend(expanded)
    return chosen


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def suppressed_rules(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to suppressed rule ids.

    A value of ``None`` suppresses every rule on that line; a set
    suppresses only the listed ids.
    """
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        codes = {
            code.upper()
            for code in re.findall(r"REPRO\d+", match.group("codes") or "",
                                   re.IGNORECASE)
        }
        suppressions[lineno] = codes or None
    return suppressions


def _is_suppressed(finding: Finding,
                   suppressions: Dict[int, Optional[Set[str]]]) -> bool:
    codes = suppressions.get(finding.line, False)
    if codes is False:
        return False
    return codes is None or finding.rule_id in codes


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` paths."""
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigurationError(f"no such file or directory: {raw}")
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        else:
            yield path
