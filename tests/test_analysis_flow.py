"""Tests for the interprocedural flow analyzer (REPRO007-012).

Each fixture under ``tests/analysis_fixtures/flow/`` carries the
violations one rule is designed to catch plus clean counterparts the
rule must stay quiet on, so the parametrized test pins down both
directions.  The CLI tests cover the baseline ratchet: write, honour,
and fail on genuinely new findings.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.flow import FLOW_RULES, analyze_paths

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
        ("rng_unseeded.py", "REPRO007", 3),
        ("rng_unseeded_indirect.py", "REPRO007", 4),
        ("rng_global.py", "REPRO008", 3),
        ("rng_shared.py", "REPRO009", 1),
        ("shapes_transposed.py", "REPRO010", 2),
        ("shapes_container.py", "REPRO010", 3),
        ("shapes_container_literal.py", "REPRO010", 3),
        ("det_order.py", "REPRO011", 3),
        ("det_clock.py", "REPRO012", 3),
        ("det_clock_exempt.py", "REPRO012", 3),
    ],
)
def test_rule_fires_only_on_hits(fixture, rule_id, n_hits):
    """Every flow rule reports its hits and nothing from clean code."""
    findings = analyze_paths([str(FIXTURES / fixture)])
    assert rule_ids(findings) == [rule_id] * n_hits
    source = (FIXTURES / fixture).read_text()
    hit_lines = {f.line for f in findings}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "(silent)" in line:
            # The docstring of a clean function names the next def's body;
            # no finding may land within three lines of it.
            assert not hit_lines & {lineno, lineno + 1, lineno + 2}


def test_transposed_shaped_call_site_is_rejected():
    """The deliberately transposed ``@shaped`` call site is caught statically."""
    findings = analyze_paths([str(FIXTURES / "shapes_transposed.py")],
                             select=["REPRO010"])
    transposed = [f for f in findings if "transposed" in f.message]
    (finding,) = transposed
    assert "per_worker_totals" in finding.message
    assert "(n_workers, n_objects)" in finding.message


def test_container_round_trips_keep_dims_alive():
    """``list(...)`` and constant-key dict storage no longer launder dims."""
    findings = analyze_paths([str(FIXTURES / "shapes_container.py")],
                             select=["REPRO010"])
    assert len(findings) == 3
    assert all("transposed" in f.message for f in findings)
    source = (FIXTURES / "shapes_container.py").read_text().splitlines()
    for finding in findings:
        # Every hit sits inside one of the hit_* functions, none in clean_*.
        preceding = [line for line in source[:finding.line]
                     if line.startswith("def ")]
        assert preceding[-1].startswith("def hit_"), preceding[-1]


def test_container_literals_keep_dims_alive():
    """Dict/list/tuple *literal* storage is tracked like per-slot writes."""
    findings = analyze_paths(
        [str(FIXTURES / "shapes_container_literal.py")], select=["REPRO010"]
    )
    assert len(findings) == 3
    assert all("transposed" in f.message for f in findings)
    source = (
        FIXTURES / "shapes_container_literal.py"
    ).read_text().splitlines()
    for finding in findings:
        preceding = [line for line in source[:finding.line]
                     if line.startswith("def ")]
        assert preceding[-1].startswith("def hit_"), preceding[-1]


def test_keyed_wall_clock_exemption():
    """``# repro: wall-clock[<key>]`` exempts exactly the named clock."""
    findings = analyze_paths([str(FIXTURES / "det_clock_exempt.py")],
                             select=["REPRO012"])
    assert len(findings) == 3
    source = (FIXTURES / "det_clock_exempt.py").read_text().splitlines()
    for finding in findings:
        preceding = [line for line in source[:finding.line]
                     if line.startswith("def ")]
        assert preceding[-1].startswith("def hit_"), preceding[-1]
    # The finding's guidance names the keyed escape hatch.
    assert all("wall-clock[" in f.message for f in findings)


def test_wall_clock_exemption_key_must_match():
    """An annotation keyed for one clock never silences another (tmp)."""
    findings = analyze_paths([str(FIXTURES / "det_clock_exempt.py")],
                             select=["REPRO012"])
    flagged = {f.message.split("'")[1] for f in findings}
    # hit_wrong_key/hit_missing_why read time.time, hit_detached_comment
    # reads time.monotonic — both clocks fire despite nearby annotations.
    assert flagged == {"time.time", "time.monotonic"}


def test_shared_stream_dispatch_forms_are_exclusive():
    """If/else and early-return hand-offs must not count as sharing."""
    findings = analyze_paths([str(FIXTURES / "rng_shared.py")])
    assert len(findings) == 1
    assert "hit_shared_stream" in findings[0].message


def test_select_limits_flow_rules():
    """``select`` restricts the engines to the named rule ids."""
    findings = analyze_paths([str(FIXTURES)], select=["REPRO011"])
    assert set(rule_ids(findings)) == {"REPRO011"}


def test_noqa_suppresses_flow_findings(tmp_path):
    """``# repro: noqa REPRO007`` waives the flow rule on that line."""
    module = tmp_path / "suppressed.py"
    module.write_text(
        '"""Doc."""\n'
        "import numpy as np\n\n\n"
        "def fresh():\n"
        '    """Doc."""\n'
        "    return np.random.default_rng()  # repro: noqa REPRO007\n"
    )
    assert analyze_paths([str(module)]) == []


def test_shipped_tree_is_flow_clean():
    """``src/repro`` must carry zero unbaselined flow findings (exit 0)."""
    assert analysis_main(["flow", str(SRC / "repro")]) == 0


# ----------------------------------------------------------------------
# CLI behaviour and the baseline ratchet
# ----------------------------------------------------------------------
def test_cli_json_payload_shape(capsys):
    """``--format json`` lists rules, findings, and baseline status."""
    code = analysis_main(["flow", str(FIXTURES / "det_clock.py"),
                          "--no-baseline", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["rules"]) == set(FLOW_RULES)
    assert payload["count"] == len(payload["findings"]) == 3
    assert payload["baseline"] is None
    assert payload["baselined"] == []


def test_cli_exit_nonzero_per_fixture(capsys):
    """Every rule fixture fails the plain CLI run."""
    for fixture in FIXTURES.glob("*.py"):
        assert analysis_main(["flow", str(fixture), "--no-baseline"]) == 1


def test_fail_on_new_without_baseline_is_usage_error(tmp_path, capsys):
    """``--fail-on-new`` with no discoverable baseline exits 2."""
    module = tmp_path / "clean.py"
    module.write_text('"""Doc."""\n')
    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 2
    assert "requires a baseline" in capsys.readouterr().err


def test_baseline_round_trip_ratchets(tmp_path, capsys):
    """write-baseline accepts findings; only *new* ones fail afterwards."""
    module = tmp_path / "timed.py"
    module.write_text(
        '"""Doc."""\n'
        "import time\n\n\n"
        "def stamp():\n"
        '    """Doc."""\n'
        "    return time.time()\n"
    )
    baseline = tmp_path / ".repro-flow-baseline.json"

    code = analysis_main(["flow", str(module), "--write-baseline",
                          str(baseline)])
    assert code == 0
    assert baseline.exists()
    capsys.readouterr()

    # The baselined finding no longer fails the run (auto-discovery).
    code = analysis_main(["flow", str(module), "--fail-on-new"])
    assert code == 0
    assert "1 baselined" in capsys.readouterr().out

    # A genuinely new violation does fail, while the old one stays waived.
    module.write_text(
        module.read_text()
        + "\n\ndef when():\n"
        '    """Doc."""\n'
        "    import datetime\n"
        "    return datetime.datetime.now()\n"
    )
    code = analysis_main(["flow", str(module), "--fail-on-new",
                          "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert "datetime" in payload["findings"][0]["message"]
    assert payload["baselined_count"] == 1


def test_baseline_keys_survive_line_shifts(tmp_path, capsys):
    """Baseline matching is line-free: moving a finding keeps it waived."""
    module = tmp_path / "timed.py"
    original = (
        '"""Doc."""\n'
        "import time\n\n\n"
        "def stamp():\n"
        '    """Doc."""\n'
        "    return time.time()\n"
    )
    module.write_text(original)
    baseline = tmp_path / ".repro-flow-baseline.json"
    assert analysis_main(["flow", str(module), "--write-baseline",
                          str(baseline)]) == 0
    # Shift the violation down by prepending an innocuous helper.
    module.write_text(
        '"""Doc."""\n'
        "import time\n\n\n"
        "def helper():\n"
        '    """Doc."""\n'
        "    return 1\n\n\n"
        "def stamp():\n"
        '    """Doc."""\n'
        "    return time.time()\n"
    )
    capsys.readouterr()
    assert analysis_main(["flow", str(module), "--fail-on-new"]) == 0


def test_harness_cli_flow_passthrough(capsys):
    """``repro.harness.cli lint flow ...`` forwards to the flow analyzer."""
    from repro.harness.cli import main as harness_main

    assert harness_main(["lint", "flow", str(SRC / "repro")]) == 0
    assert harness_main(
        ["lint", "flow", str(FIXTURES / "det_clock.py"), "--no-baseline"]
    ) == 1
