"""Tests for the six per-module REPRO rules (REPRO001-006).

The rules run inside the one analyzer pass (``analyze_paths``).  Each
fixture file under ``tests/analysis_fixtures/`` carries one genuine
violation per rule, one clean counterpart and one ``# repro: noqa``
suppressed violation, so these tests pin down both directions: the rule
fires where it should and stays quiet where it must.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint.engine import suppressed_rules

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parents[1] / "src"


def rule_ids(findings):
    """The multiset of rule ids in ``findings`` as a sorted list."""
    return sorted(f.rule_id for f in findings)


# ----------------------------------------------------------------------
# Per-rule fixtures: hit fires, clean passes, noqa suppresses
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture, rule_id, n_hits",
    [
        ("bad_rng.py", "REPRO001", 1),
        ("bad_rng_seed.py", "REPRO001", 1),
        ("bad_defaults.py", "REPRO002", 1),
        ("inference/unvalidated.py", "REPRO003", 1),
        ("bad_excepts.py", "REPRO004", 1),
        ("bad_mutation.py", "REPRO005", 2),
        ("bad_docstrings.py", "REPRO006", 3),
    ],
)
def test_rule_fires_only_on_unsuppressed_hits(fixture, rule_id, n_hits):
    """Every rule reports its hit(s) and nothing from clean/suppressed code."""
    findings = analyze_paths([str(FIXTURES / fixture)])
    assert rule_ids(findings) == [rule_id] * n_hits
    source = (FIXTURES / fixture).read_text()
    flagged_lines = {f.line for f in findings}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "noqa" in line:
            assert lineno not in flagged_lines


def test_state_py_exempt_from_mutation_rule():
    """A ``core/state.py`` path may mutate its state argument (REPRO005)."""
    findings = analyze_paths([str(FIXTURES / "core" / "state.py")])
    assert findings == []


def test_finding_fields_and_format():
    """Findings carry path/line/col/rule/severity and render greppably."""
    findings = analyze_paths([str(FIXTURES / "bad_rng.py")])
    (finding,) = findings
    assert finding.rule_id == "REPRO001"
    assert finding.severity == "error"
    assert finding.line > 0 and finding.col > 0
    text = finding.format()
    assert "bad_rng.py" in text and "REPRO001" in text
    payload = finding.to_dict()
    assert payload["rule"] == "REPRO001"
    assert payload["line"] == finding.line


def test_syntax_error_becomes_repro000(tmp_path):
    """Unparsable source yields a REPRO000 finding, not an exception."""
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    findings = analyze_paths([str(broken)])
    assert rule_ids(findings) == ["REPRO000"]


def test_bare_noqa_suppresses_every_rule(tmp_path):
    """``# repro: noqa`` without codes waives all rules on that line."""
    source = '"""Doc."""\nimport numpy as np\n\n\ndef f():\n    """Doc."""\n    return np.random.rand()  # repro: noqa\n'
    module = tmp_path / "f.py"
    module.write_text(source)
    assert analyze_paths([str(module)]) == []


def test_coded_noqa_only_suppresses_named_rules(tmp_path):
    """``# repro: noqa REPRO002`` must not waive an unrelated rule."""
    source = '"""Doc."""\nimport numpy as np\n\n\ndef f():\n    """Doc."""\n    return np.random.rand()  # repro: noqa REPRO002\n'
    module = tmp_path / "f.py"
    module.write_text(source)
    assert rule_ids(analyze_paths([str(module)])) == ["REPRO001"]


def test_suppressed_rules_parses_codes():
    """The suppression map distinguishes bare waivers from coded ones."""
    lines = [
        "x = 1  # repro: noqa",
        "y = 2  # repro: noqa REPRO001, REPRO004",
        "z = 3",
    ]
    mapping = suppressed_rules(lines)
    assert mapping[1] is None  # bare: everything
    assert mapping[2] == {"REPRO001", "REPRO004"}
    assert 3 not in mapping


def test_all_rules_select_filters():
    """``select=...`` restricts the rule table to named ids."""
    findings = analyze_paths([str(FIXTURES)], select=["REPRO001"])
    assert set(rule_ids(findings)) == {"REPRO001"}
    assert {f"REPRO{i:03d}" for i in range(1, 7)} <= set(FLOW_RULES)


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
def test_cli_nonzero_exit_on_findings(capsys):
    """``flow`` exits 1 when the fixtures trip rules."""
    code = analysis_main(["flow", str(FIXTURES)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO001" in out


def test_cli_json_output_is_valid(capsys):
    """``--format json`` emits a machine-readable findings payload."""
    code = analysis_main(["flow", str(FIXTURES), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) > 0
    assert {f["rule"] for f in payload["findings"]} >= {"REPRO001", "REPRO006"}


def test_cli_select_limits_rules(capsys):
    """``--select`` analyzes with only the requested rules."""
    code = analysis_main(["flow", str(FIXTURES), "--select", "REPRO005",
                          "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"REPRO005"}


def test_cli_missing_path_exits_2(capsys):
    """A nonexistent path is a usage error (exit 2), not a crash."""
    assert analysis_main(["flow", str(FIXTURES / "nope.py")]) == 2


def test_shipped_tree_lints_clean(capsys):
    """The shipped ``src/`` tree must produce zero findings (exit 0)."""
    assert analysis_main(["flow", str(SRC)]) == 0

