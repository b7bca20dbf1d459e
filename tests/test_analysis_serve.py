"""Tests for the serving event-loop rule (REPRO020) and ``--stats``.

Covers the rule's hit/silent fixture pair, the clean-tree acceptance run
over ``src/repro``, baseline round-tripping with line shifts, ``noqa``
and keyed ``blocking[...]`` exemption suppression, the ``--select``
range parser, and the ``--stats`` summary mode.
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
SRC = Path(__file__).parents[1] / "src"


def rule_ids(findings):
    """The multiset of rule ids in ``findings`` as a sorted list."""
    return sorted(f.rule_id for f in findings)


# ----------------------------------------------------------------------
# Per-rule fixtures: hits fire, clean forms stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture, rule_id, n_hits",
    [
        ("serve_blocking.py", "REPRO020", 2),
    ],
)
def test_rule_fires_only_on_hits(fixture, rule_id, n_hits):
    """The serve rule reports its hits and nothing from clean code.

    The analysis runs with *all* flow rules enabled, so this also pins
    that the serve fixture trips no unrelated rule.
    """
    findings = analyze_paths([str(FIXTURES / fixture)])
    assert rule_ids(findings) == [rule_id] * n_hits
    source = (FIXTURES / fixture).read_text()
    hit_lines = {f.line for f in findings}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "(silent)" in line:
            assert not hit_lines & {lineno, lineno + 1, lineno + 2}


# ----------------------------------------------------------------------
# The shipped tree: the ISSUE acceptance command
# ----------------------------------------------------------------------
def test_shipped_tree_is_serve_clean(shipped_tree_flow):
    """Zero unbaselined REPRO020 findings against the empty baseline."""
    _, payload = shipped_tree_flow
    assert payload["baseline"] is not None
    assert new_findings_in(payload, 19, 24) == []


def test_shipped_baseline_is_empty():
    """Genuine serve findings were fixed, not baselined."""
    baseline = Path(__file__).parents[1] / ".repro-flow-baseline.json"
    assert json.loads(baseline.read_text())["findings"] == []


# ----------------------------------------------------------------------
# Suppression: noqa and the keyed blocking exemption
# ----------------------------------------------------------------------
_SLEEPY_LOOP = (
    '"""Doc."""\n\n'
    "import time\n\n\n"
    "def pause(delay):\n"
    '    """Doc."""\n'
    "{annotation}"
    "    time.sleep(delay){suffix}\n"
)


def sleepy_loop(annotation="", suffix=""):
    """The one-function serve module, optionally annotated."""
    return _SLEEPY_LOOP.format(annotation=annotation, suffix=suffix)


def test_noqa_suppresses_repro020(tmp_path):
    module = tmp_path / "serve_pause.py"
    module.write_text(sleepy_loop(suffix="  # repro: noqa REPRO020"))
    assert analyze_paths([str(module)], select=["REPRO020"]) == []


def test_unannotated_sleep_fires(tmp_path):
    module = tmp_path / "serve_pause.py"
    module.write_text(sleepy_loop())
    findings = analyze_paths([str(module)], select=["REPRO020"])
    assert rule_ids(findings) == ["REPRO020"]
    assert "time.sleep" in findings[0].message


def test_keyed_blocking_annotation_waives_repro020(tmp_path):
    module = tmp_path / "serve_pause.py"
    module.write_text(sleepy_loop(
        annotation="    # repro: blocking[time.sleep] — demo pacing\n"))
    assert analyze_paths([str(module)], select=["REPRO020"]) == []


def test_mismatched_blocking_key_does_not_waive(tmp_path):
    """An annotation for a different call never excuses this one."""
    module = tmp_path / "serve_pause.py"
    module.write_text(sleepy_loop(
        annotation="    # repro: blocking[open] — wrong key\n"))
    findings = analyze_paths([str(module)], select=["REPRO020"])
    assert rule_ids(findings) == ["REPRO020"]


# ----------------------------------------------------------------------
# Baseline ratchet over the new rules
# ----------------------------------------------------------------------
def test_serve_baseline_round_trip_survives_line_shifts(tmp_path, capsys):
    """Accepted REPRO020 findings stay waived as the file moves around."""
    module = tmp_path / "serve_pause.py"
    module.write_text(sleepy_loop())
    baseline = tmp_path / ".repro-flow-baseline.json"
    assert analysis_main(["flow", str(module), "--write-baseline",
                          str(baseline)]) == 0
    capsys.readouterr()

    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    assert "1 baselined" in capsys.readouterr().out

    # Shift the function down: the line-free key still matches.
    module.write_text(
        '"""Doc."""\n\n'
        "import time\n\n\n"
        "def helper():\n"
        '    """Doc."""\n'
        "    return 1\n\n\n"
        + sleepy_loop().split("\n", 5)[5]
    )
    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    capsys.readouterr()

    # A genuinely new serve hazard still fails the ratchet.
    module.write_text(
        module.read_text()
        + "\n\ndef load(path):\n"
        '    """Doc."""\n'
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )
    assert analysis_main(["flow", str(module), "--fail-on-new",
                          "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert "blocking call 'open'" in payload["findings"][0]["message"]
    assert payload["baselined_count"] == 1


# ----------------------------------------------------------------------
# The --select range parser
# ----------------------------------------------------------------------
def test_expand_rule_ranges_short_form():
    known = [f"REPRO{i:03d}" for i in range(19, 25)]
    assert expand_rule_ranges(["REPRO019-024"], known) == known
    with pytest.raises(ConfigurationError):
        expand_rule_ranges(["REPRO024-REPRO019"], known)


def test_lint_select_accepts_ranges(shipped_tree_flow):
    """The per-module rules (REPRO003, 004, 006) are clean in the shipped
    tree (``--select`` range parsing is covered by the fixture-based
    tests)."""
    _, payload = shipped_tree_flow
    assert new_findings_in(payload, 1, 6) == []


def test_lint_select_range_usage_errors_exit_2(capsys):
    target = str(SRC / "repro" / "serve" / "clock.py")
    assert analysis_main(["flow", target,
                          "--select", "REPRO006-REPRO001"]) == 2
    assert "empty flow rule range" in capsys.readouterr().err
    assert analysis_main(["flow", target,
                          "--select", "REPRO001-REPRO002"]) == 2
    assert "unknown flow rule" in capsys.readouterr().err


def test_flow_serve_range_selects_exactly_the_new_rules():
    """The serve range now holds one surviving rule, REPRO020."""
    findings = analyze_paths([str(FIXTURES)], select=["REPRO019-REPRO024"])
    assert set(rule_ids(findings)) == {"REPRO020"}


# ----------------------------------------------------------------------
# --stats: the per-rule hit-count summary mode
# ----------------------------------------------------------------------
def test_stats_text_includes_zero_rows(capsys):
    code = analysis_main(["flow", str(FIXTURES / "serve_blocking.py"),
                          "--no-baseline", "--stats",
                          "--select", "REPRO011-REPRO024"])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO020: 2" in out
    assert "REPRO017: 0" in out  # zero rows show which rules ran
    assert "REPRO019" not in out  # retired ids have no row


def test_stats_json_payload(capsys):
    code = analysis_main(["flow", str(FIXTURES / "det_clock.py"),
                          "--no-baseline", "--stats", "--format", "json",
                          "--select", "REPRO011-REPRO024"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["REPRO012"] == 3
    assert payload["stats"]["REPRO020"] == 0
    assert sorted(payload["stats"]) == [
        "REPRO011", "REPRO012", "REPRO017", "REPRO020"]


def test_flow_rules_table_lists_serve_rules():
    """REPRO020 is the one serve rule left; the retired ids stay unused."""
    serve_ids = {f"REPRO{i:03d}" for i in range(19, 25)}
    assert serve_ids & set(FLOW_RULES) == {"REPRO020"}
