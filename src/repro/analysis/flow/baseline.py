"""Finding baselines: ratchet semantics for the flow analyzer.

A baseline is a committed JSON file recording the findings a team has
consciously deferred.  The CLI compares a fresh run against it and only
*new* findings fail the build (``--fail-on-new``), so the analyzer can
land with known debt without blocking CI, while the debt itself stays
visible (and :mod:`ROADMAP.md` tracks burning it down).

Keys are line-number-free — ``rule | relative path | message`` — so
unrelated edits that shift code down a file leave the baseline
matching, while moving/fixing the flagged code does not.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.engine import Finding
from repro.exceptions import ConfigurationError

#: Filename auto-discovered by walking up from the analyzed paths.
BASELINE_FILENAME = ".repro-flow-baseline.json"

_FORMAT_VERSION = 1


def finding_key(finding: Finding, root: Path) -> str:
    """Stable identity of a finding, independent of its line number."""
    try:
        rel = Path(finding.path).resolve().relative_to(root.resolve())
    except ValueError:
        rel = Path(finding.path)
    return f"{finding.rule_id}|{rel.as_posix()}|{finding.message}"


def discover_baseline(paths: Sequence[str]) -> Optional[Path]:
    """Walk up from the first analyzed path looking for the baseline file.

    Returns the nearest :data:`BASELINE_FILENAME` on the way to the
    filesystem root, or ``None`` — which makes ``python -m repro.analysis
    flow src/repro`` honour the repository's committed baseline without
    any flag, exactly like ``.gitignore`` discovery.
    """
    if not paths:
        return None
    start = Path(paths[0]).resolve()
    if start.is_file():
        start = start.parent
    for directory in [start] + list(start.parents):
        candidate = directory / BASELINE_FILENAME
        if candidate.is_file():
            return candidate
    return None


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    """Serialise ``findings`` as the new baseline at ``path`` (atomic)."""
    root = path.resolve().parent
    keys = sorted({finding_key(f, root) for f in findings})
    payload = {
        "version": _FORMAT_VERSION,
        "comment": (
            "Accepted repro-flow findings; regenerate with "
            "`python -m repro.analysis flow <paths> --write-baseline`. "
            "New findings not listed here fail --fail-on-new."
        ),
        "findings": keys,
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def load_baseline(path: Path) -> Set[str]:
    """The set of accepted finding keys stored at ``path``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"cannot read baseline {path}: {err}") from err
    if not isinstance(payload, dict) or "findings" not in payload:
        raise ConfigurationError(
            f"baseline {path} is not a repro-flow baseline document"
        )
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"baseline {path} has unsupported version {version!r}"
        )
    keys = payload["findings"]
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise ConfigurationError(f"baseline {path}: 'findings' must be strings")
    return set(keys)


def split_by_baseline(
    findings: Sequence[Finding], baseline: Set[str], root: Path
) -> Tuple[List[Finding], List[Finding]]:
    """Partition findings into ``(new, baselined)`` against ``baseline``."""
    new: List[Finding] = []
    accepted: List[Finding] = []
    for finding in findings:
        if finding_key(finding, root) in baseline:
            accepted.append(finding)
        else:
            new.append(finding)
    return new, accepted
