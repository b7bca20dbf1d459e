"""Tests for the repro static-analysis lint engine and its six rules.

Each fixture file under ``tests/analysis_fixtures/`` carries one genuine
violation per rule, one clean counterpart and one ``# repro: noqa``
suppressed violation, so these tests pin down both directions: the rule
fires where it should and stays quiet where it must.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.lint import all_rules, lint_paths, lint_source
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
        ("bad_defaults.py", "REPRO002", 1),
        ("inference/unvalidated.py", "REPRO003", 1),
        ("bad_excepts.py", "REPRO004", 1),
        ("bad_mutation.py", "REPRO005", 2),
        ("bad_docstrings.py", "REPRO006", 3),
    ],
)
def test_rule_fires_only_on_unsuppressed_hits(fixture, rule_id, n_hits):
    """Every rule reports its hit(s) and nothing from clean/suppressed code."""
    findings = lint_paths([str(FIXTURES / fixture)])
    assert rule_ids(findings) == [rule_id] * n_hits
    source = (FIXTURES / fixture).read_text()
    flagged_lines = {f.line for f in findings}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "noqa" in line:
            assert lineno not in flagged_lines


def test_state_py_exempt_from_mutation_rule():
    """A ``core/state.py`` path may mutate its state argument (REPRO005)."""
    findings = lint_paths([str(FIXTURES / "core" / "state.py")])
    assert findings == []


def test_finding_fields_and_format():
    """Findings carry path/line/col/rule/severity and render greppably."""
    findings = lint_paths([str(FIXTURES / "bad_rng.py")])
    (finding,) = findings
    assert finding.rule_id == "REPRO001"
    assert finding.severity == "error"
    assert finding.line > 0 and finding.col > 0
    text = finding.format()
    assert "bad_rng.py" in text and "REPRO001" in text
    payload = finding.to_dict()
    assert payload["rule"] == "REPRO001"
    assert payload["line"] == finding.line


def test_syntax_error_becomes_repro000():
    """Unparsable source yields a REPRO000 finding, not an exception."""
    findings = lint_source("def broken(:\n", "broken.py", all_rules())
    assert rule_ids(findings) == ["REPRO000"]


def test_bare_noqa_suppresses_every_rule():
    """``# repro: noqa`` without codes waives all rules on that line."""
    source = '"""Doc."""\nimport numpy as np\n\n\ndef f():\n    """Doc."""\n    return np.random.rand()  # repro: noqa\n'
    assert lint_source(source, "f.py", all_rules()) == []


def test_coded_noqa_only_suppresses_named_rules():
    """``# repro: noqa REPRO002`` must not waive an unrelated rule."""
    source = '"""Doc."""\nimport numpy as np\n\n\ndef f():\n    """Doc."""\n    return np.random.rand()  # repro: noqa REPRO002\n'
    assert rule_ids(lint_source(source, "f.py", all_rules())) == ["REPRO001"]


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
    """``all_rules(select=...)`` restricts the registry to named ids."""
    rules = all_rules(select=["REPRO001"])
    assert [r.rule_id for r in rules] == ["REPRO001"]
    assert len(all_rules()) >= 6


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
def test_cli_nonzero_exit_on_findings(capsys):
    """``lint`` exits 1 when the fixtures trip rules."""
    code = analysis_main(["lint", str(FIXTURES)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO001" in out


def test_cli_json_output_is_valid(capsys):
    """``--format json`` emits a machine-readable findings payload."""
    code = analysis_main(["lint", str(FIXTURES), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) > 0
    assert {f["rule"] for f in payload["findings"]} >= {"REPRO001", "REPRO006"}


def test_cli_select_limits_rules(capsys):
    """``--select`` lints with only the requested rules."""
    code = analysis_main(["lint", str(FIXTURES), "--select", "REPRO005",
                          "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"REPRO005"}


def test_cli_missing_path_exits_2(capsys):
    """A nonexistent path is a usage error (exit 2), not a crash."""
    assert analysis_main(["lint", str(FIXTURES / "nope.py")]) == 2


def test_shipped_tree_lints_clean(capsys):
    """The shipped ``src/`` tree must produce zero findings (exit 0)."""
    assert analysis_main(["lint", str(SRC)]) == 0


def test_harness_cli_lint_passthrough(capsys):
    """``repro.harness.cli lint`` forwards to the analysis linter."""
    from repro.harness.cli import main as harness_main

    assert harness_main(["lint", str(SRC)]) == 0
    assert harness_main(["lint", str(FIXTURES / "bad_rng.py")]) == 1
