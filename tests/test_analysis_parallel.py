"""Tests for the parallel-safety analyzer (REPRO013-018).

Covers the six new rules' clean/dirty fixtures, the PR 6 blind-spot
fixes to REPRO007/009/010/011 (deep factory chains, closure-captured
streams, tuple-unpack/arithmetic shape propagation, non-deterministic
sort keys), the ``# repro: process-local`` annotation, range ``select``
syntax, and the baseline ratchet over the new rules.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.flow import FLOW_RULES, analyze_paths

from conftest import new_findings_in

FIXTURES = Path(__file__).parent / "analysis_fixtures" / "flow"


def rule_ids(findings):
    """The multiset of rule ids in ``findings`` as a sorted list."""
    return sorted(f.rule_id for f in findings)


# ----------------------------------------------------------------------
# Per-rule fixtures: hits fire, clean forms stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture, rule_id, n_hits",
    [
        ("par_global_state.py", "REPRO013", 3),
        ("par_rng_boundary.py", "REPRO014", 3),
        ("par_pickle.py", "REPRO015", 3),
        ("par_mutation.py", "REPRO016", 1),
        ("par_reduction.py", "REPRO017", 2),
        ("par_env.py", "REPRO018", 2),
        ("rng_shared_nested.py", "REPRO009", 2),
        ("shapes_unpack.py", "REPRO010", 2),
        ("det_sortkey.py", "REPRO011", 2),
        ("rng_unseeded_deep.py", "REPRO007", 2),
    ],
)
def test_rule_fires_only_on_hits(fixture, rule_id, n_hits):
    """Every parallel rule reports its hits and nothing from clean code."""
    findings = analyze_paths([str(FIXTURES / fixture)])
    assert rule_ids(findings) == [rule_id] * n_hits
    source = (FIXTURES / fixture).read_text()
    hit_lines = {f.line for f in findings}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "(silent)" in line:
            assert not hit_lines & {lineno, lineno + 1, lineno + 2}


# ----------------------------------------------------------------------
# The PR 5 blind spots, now caught
# ----------------------------------------------------------------------
def test_closure_captured_stream_handoffs_are_seen():
    """Nested defs and dispatch lambdas no longer hide stream sharing."""
    findings = analyze_paths([str(FIXTURES / "rng_shared_nested.py")],
                             select=["REPRO009"])
    wheres = sorted(f.message.split(":")[0] for f in findings)
    assert any("run_trial" in where for where in wheres)
    assert any("<lambda>" in where for where in wheres)


def test_unpacked_and_arithmetic_shapes_propagate():
    """Tuple unpacking and scalar arithmetic no longer launder transposes."""
    findings = analyze_paths([str(FIXTURES / "shapes_unpack.py")],
                             select=["REPRO010"])
    assert len(findings) == 2
    assert all("transposed" in f.message for f in findings)


def test_nondeterministic_sort_keys_are_rejected():
    """sorted(key=id) and random keys do not count as ordering."""
    findings = analyze_paths([str(FIXTURES / "det_sortkey.py")],
                             select=["REPRO011"])
    labels = sorted(f.message.split("'")[1] for f in findings)
    assert labels == ["glob.glob", "os.listdir"]


def test_deep_factory_chain_is_followed_and_cycles_terminate():
    """Six-hop factories are caught; mutual recursion stays silent."""
    findings = analyze_paths([str(FIXTURES / "rng_unseeded_deep.py")],
                             select=["REPRO007"])
    factory_hits = [f for f in findings if "default_factory" in f.message]
    assert len(factory_hits) == 1
    # The multiset pin above guarantees the _ping/_pong pair stayed quiet.


# ----------------------------------------------------------------------
# The shipped tree and range select
# ----------------------------------------------------------------------
def test_shipped_tree_is_parallel_clean(shipped_tree_flow):
    """Zero unbaselined REPRO013-018 findings in the shipped tree."""
    _, payload = shipped_tree_flow
    assert new_findings_in(payload, 13, 18) == []


def test_select_range_expands_inclusively():
    """``REPRO013-REPRO015`` selects exactly the three rules in the range."""
    findings = analyze_paths([str(FIXTURES)],
                             select=["REPRO013-REPRO015"])
    assert set(rule_ids(findings)) == {"REPRO013", "REPRO014", "REPRO015"}
    # A mixed list of single ids and ranges also parses.
    mixed = analyze_paths([str(FIXTURES / "par_env.py")],
                          select=["REPRO018", "REPRO013-REPRO014"])
    assert set(rule_ids(mixed)) == {"REPRO018"}


def test_select_range_usage_errors_exit_2(capsys):
    """Backwards and out-of-range selects are usage errors."""
    target = str(FIXTURES / "par_env.py")
    assert analysis_main(["flow", target, "--no-baseline",
                          "--select", "REPRO018-REPRO013"]) == 2
    assert "empty flow rule range" in capsys.readouterr().err
    assert analysis_main(["flow", target, "--no-baseline",
                          "--select", "REPRO013-REPRO099"]) == 2
    assert "unknown flow rule" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Suppression: noqa and the process-local annotation
# ----------------------------------------------------------------------
_MUTATED_GLOBAL = (
    '"""Doc."""\n\n'
    "_CACHE: dict = {{}}{annotation}\n\n\n"
    "def remember(key, value):\n"
    '    """Doc."""\n'
    "    _CACHE[key] = value\n"
)


def test_unannotated_global_fires(tmp_path):
    module = tmp_path / "state.py"
    module.write_text(_MUTATED_GLOBAL.format(annotation=""))
    findings = analyze_paths([str(module)])
    assert rule_ids(findings) == ["REPRO013"]
    assert findings[0].line == 3  # anchored at the definition


def test_process_local_annotation_waives_repro013(tmp_path):
    module = tmp_path / "state.py"
    module.write_text(_MUTATED_GLOBAL.format(
        annotation="  # repro: process-local — per-process cache"))
    assert analyze_paths([str(module)]) == []


def test_noqa_suppresses_repro013(tmp_path):
    module = tmp_path / "state.py"
    module.write_text(_MUTATED_GLOBAL.format(
        annotation="  # repro: noqa REPRO013"))
    assert analyze_paths([str(module)]) == []


# ----------------------------------------------------------------------
# Baseline ratchet over the new rules
# ----------------------------------------------------------------------
def test_parallel_baseline_round_trip_survives_line_shifts(tmp_path, capsys):
    """Accepted REPRO013 findings stay waived as the file moves around."""
    module = tmp_path / "state.py"
    module.write_text(_MUTATED_GLOBAL.format(annotation=""))
    baseline = tmp_path / ".repro-flow-baseline.json"
    assert analysis_main(["flow", str(module), "--write-baseline",
                          str(baseline)]) == 0
    capsys.readouterr()

    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    assert "1 baselined" in capsys.readouterr().out

    # Shift the definition down: the line-free key still matches.
    module.write_text(
        '"""Doc."""\n\n'
        "def helper():\n"
        '    """Doc."""\n'
        "    return 1\n\n\n"
        + _MUTATED_GLOBAL.format(annotation="").split("\n", 2)[2]
    )
    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0
    capsys.readouterr()

    # A genuinely new parallel hazard still fails the ratchet.  (It must
    # not touch _CACHE: a new writer would change the baselined finding's
    # message, and with it the ratchet key — correctly surfacing it anew.)
    module.write_text(
        module.read_text()
        + "\n\ndef count(key):\n"
        '    """Doc."""\n'
        "    _TOTALS.update({key: 0})\n\n\n"
        "_TOTALS: dict = {}\n"
    )
    assert analysis_main(["flow", str(module), "--fail-on-new",
                          "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert "_TOTALS" in payload["findings"][0]["message"]
    assert payload["baselined_count"] == 1


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_flow_rules_table_lists_parallel_rules():
    """The rule registry covers REPRO001 through REPRO024."""
    expected = {f"REPRO{i:03d}" for i in range(1, 25)}
    assert set(FLOW_RULES) == expected


def test_cli_json_reports_parallel_findings(capsys):
    code = analysis_main(["flow", str(FIXTURES / "par_reduction.py"),
                          "--no-baseline", "--format", "json",
                          "--select", "REPRO013-REPRO018"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert {f["rule"] for f in payload["findings"]} == {"REPRO017"}
