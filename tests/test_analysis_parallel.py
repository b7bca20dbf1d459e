"""Tests for the order-dependent reduction rule (REPRO017) and ``--select``.

Covers REPRO017's clean/dirty fixture, the non-deterministic sort keys
REPRO011 rejects, range ``select`` syntax over retired ids, ``noqa``,
and the baseline ratchet over a REPRO017 finding.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint.engine import expand_rule_ranges
from repro.exceptions import ConfigurationError

from conftest import new_findings_in

FIXTURES = Path(__file__).parent / "analysis_fixtures" / "flow"

#: The rules the analyzer keeps; every other id up to REPRO024 is retired.
SURVIVING_RULES = {"REPRO003", "REPRO004", "REPRO006", "REPRO011",
                   "REPRO012", "REPRO017", "REPRO020"}


def rule_ids(findings):
    """The multiset of rule ids in ``findings`` as a sorted list."""
    return sorted(f.rule_id for f in findings)


# ----------------------------------------------------------------------
# Per-rule fixtures: hits fire, clean forms stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture, rule_id, n_hits",
    [
        ("par_reduction.py", "REPRO017", 2),
        ("det_sortkey.py", "REPRO011", 2),
    ],
)
def test_rule_fires_only_on_hits(fixture, rule_id, n_hits):
    """Every rule reports its hits and nothing from clean code."""
    findings = analyze_paths([str(FIXTURES / fixture)])
    assert rule_ids(findings) == [rule_id] * n_hits
    source = (FIXTURES / fixture).read_text()
    hit_lines = {f.line for f in findings}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "(silent)" in line:
            assert not hit_lines & {lineno, lineno + 1, lineno + 2}


def test_nondeterministic_sort_keys_are_rejected():
    """sorted(key=id) and random keys do not count as ordering."""
    findings = analyze_paths([str(FIXTURES / "det_sortkey.py")],
                             select=["REPRO011"])
    labels = sorted(f.message.split("'")[1] for f in findings)
    assert labels == ["glob.glob", "os.listdir"]


# ----------------------------------------------------------------------
# The shipped tree and range select
# ----------------------------------------------------------------------
def test_shipped_tree_is_parallel_clean(shipped_tree_flow):
    """Zero unbaselined REPRO017 findings in the shipped tree."""
    _, payload = shipped_tree_flow
    assert new_findings_in(payload, 13, 18) == []


def test_select_range_expands_inclusively():
    """A range selects exactly the surviving rules within its bounds."""
    findings = analyze_paths([str(FIXTURES)],
                             select=["REPRO011-REPRO017"])
    assert set(rule_ids(findings)) == {"REPRO011", "REPRO012", "REPRO017"}
    # A mixed list of single ids and ranges also parses.
    mixed = analyze_paths([str(FIXTURES / "par_reduction.py")],
                          select=["REPRO017", "REPRO011-REPRO012"])
    assert set(rule_ids(mixed)) == {"REPRO017"}
    # Retired ids inside a range are skipped, never renumbered...
    assert expand_rule_ranges(["REPRO013-REPRO024"], FLOW_RULES) == [
        "REPRO017", "REPRO020"]
    # ...and a retired id named on its own is unknown.
    with pytest.raises(ConfigurationError, match="unknown flow rule"):
        expand_rule_ranges(["REPRO013"], FLOW_RULES)


def test_select_range_usage_errors_exit_2(capsys):
    """Backwards, ruleless and retired selects are usage errors."""
    target = str(FIXTURES / "par_reduction.py")
    assert analysis_main(["flow", target, "--no-baseline",
                          "--select", "REPRO018-REPRO013"]) == 2
    assert "empty flow rule range" in capsys.readouterr().err
    assert analysis_main(["flow", target, "--no-baseline",
                          "--select", "REPRO021-REPRO099"]) == 2
    assert "unknown flow rule" in capsys.readouterr().err
    assert analysis_main(["flow", target, "--no-baseline",
                          "--select", "REPRO013"]) == 2
    assert "unknown flow rule" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Suppression and the baseline ratchet
# ----------------------------------------------------------------------
_SET_TOTAL = (
    '"""Doc."""\n\n\n'
    "def total(values):\n"
    '    """Doc."""\n'
    "    pending = set(values)\n"
    "    acc = 0.0\n"
    "    for value in pending:\n"
    "        acc += value{annotation}\n"
    "    return acc\n"
)


def test_noqa_suppresses_repro017(tmp_path):
    module = tmp_path / "reduce.py"
    module.write_text(_SET_TOTAL.format(annotation=""))
    assert rule_ids(analyze_paths([str(module)])) == ["REPRO017"]
    module.write_text(_SET_TOTAL.format(
        annotation="  # repro: noqa REPRO017"))
    assert analyze_paths([str(module)]) == []


def test_parallel_baseline_round_trip_survives_line_shifts(tmp_path, capsys):
    """Accepted REPRO017 findings stay waived as the file moves around."""
    module = tmp_path / "reduce.py"
    module.write_text(_SET_TOTAL.format(annotation=""))
    baseline = tmp_path / ".repro-flow-baseline.json"
    assert analysis_main(["flow", str(module), "--write-baseline",
                          str(baseline)]) == 0
    capsys.readouterr()

    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    assert "1 baselined" in capsys.readouterr().out

    # Shift the definition down: the line-free key still matches.
    module.write_text(
        '"""Doc."""\n\n\n'
        "def helper():\n"
        '    """Doc."""\n'
        "    return 1\n\n\n"
        + _SET_TOTAL.format(annotation="").split("\n", 3)[3]
    )
    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    capsys.readouterr()

    # A genuinely new reduction hazard still fails the ratchet.
    module.write_text(
        module.read_text()
        + "\n\ndef merged_total(shards):\n"
        '    """Doc."""\n'
        "    merged = {}\n"
        "    for shard in shards:\n"
        "        merged.update(shard)\n"
        "    return sum(merged.values())\n"
    )
    assert analysis_main(["flow", str(module), "--fail-on-new",
                          "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert "merge-built dict 'merged'" in payload["findings"][0]["message"]
    assert payload["baselined_count"] == 1


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_flow_rules_table_lists_parallel_rules():
    """The rule registry is exactly the surviving rules."""
    assert set(FLOW_RULES) == SURVIVING_RULES


def test_cli_json_reports_parallel_findings(capsys):
    code = analysis_main(["flow", str(FIXTURES / "par_reduction.py"),
                          "--no-baseline", "--format", "json",
                          "--select", "REPRO013-REPRO018"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert {f["rule"] for f in payload["findings"]} == {"REPRO017"}
