"""Tests for the serve-safety analyzer (REPRO019-024).

Covers the six rules' hit/silent fixture pairs, the clean-tree
acceptance run over ``src/repro``, baseline round-tripping with line
shifts, ``noqa`` and keyed ``blocking[...]`` exemption suppression, the
``--select`` range parser, and the ``--stats`` summary mode.
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
        ("serve_future_leak.py", "REPRO019", 2),
        ("serve_blocking.py", "REPRO020", 2),
        ("serve_tenant_state.py", "REPRO021", 1),
        ("serve_scheduling.py", "REPRO022", 3),
        ("serve_generator.py", "REPRO023", 3),
        ("serve_delivery_alias.py", "REPRO024", 2),
    ],
)
def test_rule_fires_only_on_hits(fixture, rule_id, n_hits):
    """Every serve rule reports its hits and nothing from clean code.

    The analysis runs with *all* flow rules enabled, so this also pins
    that no serve fixture trips an unrelated rule (and vice versa).
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
    """Zero unbaselined REPRO019-024 findings against the empty baseline."""
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
_LEAKY_OWNER = (
    '"""Doc."""\n\n\n'
    "def episode(dataset):\n"
    '    """Doc."""\n'
    "    records = yield dataset\n"
    "    return records\n\n\n"
    "class Owner:\n"
    '    """Doc."""\n\n'
    "    def start(self, dataset):\n"
    '        """Doc."""\n'
    "        self._episode = episode(dataset){annotation}\n"
)

_SLEEPY_LOOP = (
    '"""Doc."""\n\n'
    "import time\n\n\n"
    "def pause(delay):\n"
    '    """Doc."""\n'
    "{annotation}"
    "    time.sleep(delay)\n"
)


def test_unclosed_generator_fires(tmp_path):
    module = tmp_path / "serve_owner.py"
    module.write_text(_LEAKY_OWNER.format(annotation=""))
    findings = analyze_paths([str(module)], select=["REPRO023"])
    assert rule_ids(findings) == ["REPRO023"]
    assert findings[0].line == 15  # anchored at the parking assignment


def test_noqa_suppresses_repro023(tmp_path):
    module = tmp_path / "serve_owner.py"
    module.write_text(_LEAKY_OWNER.format(
        annotation="  # repro: noqa REPRO023"))
    assert analyze_paths([str(module)], select=["REPRO023"]) == []


def test_unannotated_sleep_fires(tmp_path):
    module = tmp_path / "serve_pause.py"
    module.write_text(_SLEEPY_LOOP.format(annotation=""))
    findings = analyze_paths([str(module)], select=["REPRO020"])
    assert rule_ids(findings) == ["REPRO020"]
    assert "time.sleep" in findings[0].message


def test_keyed_blocking_annotation_waives_repro020(tmp_path):
    module = tmp_path / "serve_pause.py"
    module.write_text(_SLEEPY_LOOP.format(
        annotation="    # repro: blocking[time.sleep] — demo pacing\n"))
    assert analyze_paths([str(module)], select=["REPRO020"]) == []


def test_mismatched_blocking_key_does_not_waive(tmp_path):
    """An annotation for a different call never excuses this one."""
    module = tmp_path / "serve_pause.py"
    module.write_text(_SLEEPY_LOOP.format(
        annotation="    # repro: blocking[open] — wrong key\n"))
    findings = analyze_paths([str(module)], select=["REPRO020"])
    assert rule_ids(findings) == ["REPRO020"]


# ----------------------------------------------------------------------
# Baseline ratchet over the new rules
# ----------------------------------------------------------------------
def test_serve_baseline_round_trip_survives_line_shifts(tmp_path, capsys):
    """Accepted REPRO023 findings stay waived as the file moves around."""
    module = tmp_path / "serve_owner.py"
    module.write_text(_LEAKY_OWNER.format(annotation=""))
    baseline = tmp_path / ".repro-flow-baseline.json"
    assert analysis_main(["flow", str(module), "--write-baseline",
                          str(baseline)]) == 0
    capsys.readouterr()

    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    assert "1 baselined" in capsys.readouterr().out

    # Shift the class down: the line-free key still matches.
    module.write_text(
        '"""Doc."""\n\n\n'
        "def helper():\n"
        '    """Doc."""\n'
        "    return 1\n\n\n"
        + _LEAKY_OWNER.format(annotation="").split("\n", 3)[3]
    )
    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    capsys.readouterr()

    # A genuinely new serve hazard still fails the ratchet.
    module.write_text(
        module.read_text()
        + "\n\ndef starve(dataset, handle):\n"
        '    """Doc."""\n'
        "    run = episode(dataset)\n"
        "    for request in run:\n"
        "        handle(request)\n"
    )
    assert analysis_main(["flow", str(module), "--fail-on-new",
                          "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert "advanced by iteration" in payload["findings"][0]["message"]
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
    """The per-module rules REPRO001-006 are clean in the shipped tree
    (``--select`` range parsing is covered by the fixture-based tests)."""
    _, payload = shipped_tree_flow
    assert new_findings_in(payload, 1, 6) == []


def test_lint_select_range_usage_errors_exit_2(capsys):
    target = str(SRC / "repro" / "serve" / "clock.py")
    assert analysis_main(["flow", target,
                          "--select", "REPRO006-REPRO001"]) == 2
    assert "empty flow rule range" in capsys.readouterr().err
    assert analysis_main(["flow", target,
                          "--select", "REPRO001-REPRO099"]) == 2
    assert "unknown flow rule" in capsys.readouterr().err


def test_flow_serve_range_selects_exactly_the_new_rules():
    findings = analyze_paths([str(FIXTURES)], select=["REPRO019-REPRO024"])
    assert set(rule_ids(findings)) == {
        f"REPRO{i:03d}" for i in range(19, 25)
    }


# ----------------------------------------------------------------------
# --stats: the per-rule hit-count summary mode
# ----------------------------------------------------------------------
def test_stats_text_includes_zero_rows(capsys):
    code = analysis_main(["flow", str(FIXTURES / "serve_blocking.py"),
                          "--no-baseline", "--stats",
                          "--select", "REPRO019-REPRO024"])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO020: 2" in out
    assert "REPRO019: 0" in out  # zero rows show which rules ran


def test_stats_json_payload(capsys):
    code = analysis_main(["flow", str(FIXTURES / "serve_scheduling.py"),
                          "--no-baseline", "--stats", "--format", "json",
                          "--select", "REPRO019-REPRO024"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["REPRO022"] == 3
    assert payload["stats"]["REPRO021"] == 0
    assert sorted(payload["stats"]) == [
        f"REPRO{i:03d}" for i in range(19, 25)
    ]


def test_flow_rules_table_lists_serve_rules():
    """The registry covers REPRO007 through REPRO024."""
    assert {f"REPRO{i:03d}" for i in range(19, 25)} <= set(FLOW_RULES)
