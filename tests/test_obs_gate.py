"""The benchmark regression gate behind ``repro obs diff``.

A BENCH report names its gated rows in a top-level ``gate`` block; the
baseline's block decides which rows are compared and in which direction.
The verdict table below pins every boundary of the rule: a row fails
when it moved the wrong way by more than ``threshold * |before|`` and by
at least its ``slack``; a zero baseline and a key missing before pass; a
gated key missing after fails.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import diff_rows, load_snapshot, regressed

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
THRESHOLD = 0.20

# (case, better, slack, before, after, regressed?)
VERDICTS = [
    ("higher just under 20% drop", "higher", 0.0, 10.0, 8.1, False),
    ("higher just over 20% drop", "higher", 0.0, 10.0, 7.9, True),
    ("higher rise", "higher", 0.0, 3.81, 5.58, False),
    ("higher collapse", "higher", 0.0, 4.0, 1.0, True),
    ("lower just under 20% rise", "lower", 0.0, 10.0, 11.9, False),
    ("lower just over 20% rise", "lower", 0.0, 10.0, 12.1, True),
    ("lower fall", "lower", 0.0, 10.0, 1.0, False),
    # obs overhead_fraction: relative change alone never fails.
    ("obs fraction under slack", "lower", 0.005, 0.001, 0.0059, False),
    ("obs fraction over slack", "lower", 0.005, 0.001, 0.0061, True),
    # obs observe_ns_per_call: the slack boundary is inclusive.
    ("obs ns one under slack", "lower", 1500.0, 600.0, 2099.0, False),
    ("obs ns at slack", "lower", 1500.0, 600.0, 2100.0, True),
    ("obs ns over slack under 20%", "lower", 1500.0, 10000.0, 11600.0, False),
    # serve telemetry p99 in ms.
    ("serve p99 under slack", "lower", 100.0, 4.0, 103.5, False),
    ("serve p99 at slack", "lower", 100.0, 4.0, 104.0, True),
    ("serve p99 over slack under 20%", "lower", 100.0, 1000.0, 1150.0, False),
    ("zero baseline higher", "higher", 0.0, 0.0, -5.0, False),
    ("zero baseline lower", "lower", 0.0, 0.0, 5.0, False),
    ("gated key missing after", "higher", 0.0, 4.0, None, True),
    ("key missing before", "higher", 0.0, None, 4.0, False),
]


@pytest.mark.parametrize(
    ("better", "slack", "before", "after", "expected"),
    [case[1:] for case in VERDICTS],
    ids=[case[0] for case in VERDICTS],
)
def test_gate_verdict(better, slack, before, after, expected):
    gate = {"m": {"better": better, "slack": slack}}
    (row,) = diff_rows(
        {} if before is None else {"m": before},
        {} if after is None else {"m": after},
        gate,
    )
    assert regressed(row, THRESHOLD) is expected


def test_ungated_rows_keep_growth_is_worse():
    rows = diff_rows({"a": 10.0, "b": 10.0, "c": 1.0}, {"a": 12.1, "b": 1.0})
    assert [regressed(row, THRESHOLD) for row in rows] == [True, False, False]


def test_gate_compares_only_gated_keys():
    gate = {"aggregate.speedup": {"better": "higher", "slack": 0.0}}
    rows = diff_rows(
        {"aggregate.speedup": 4.0, "aggregate.csr_s": 1.0},
        {"aggregate.speedup": 4.0, "aggregate.csr_s": 9.0},
        gate,
    )
    assert [row["metric"] for row in rows] == ["aggregate.speedup"]


@pytest.mark.parametrize("path", sorted(BASELINES.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_baseline_carries_a_resolvable_gate(path):
    rows, gate = load_snapshot(path)
    assert gate, f"{path.name} has no gate block"
    for key, rule in gate.items():
        assert key in rows, f"{path.name}: gated key {key!r} is not a number in the report"
        assert rule["better"] in ("higher", "lower")
        assert isinstance(rule["slack"], float) and rule["slack"] >= 0.0


def write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


GATE = {"aggregate.speedup": {"better": "higher", "slack": 0.0}}


class TestGateCommand:
    def test_speedup_collapse_fails(self, tmp_path, capsys):
        before = write(tmp_path / "base.json", {"aggregate": {"speedup": 4.0}, "gate": GATE})
        after = write(tmp_path / "cur.json", {"aggregate": {"speedup": 1.0}, "gate": GATE})
        assert main(["obs", "diff", before, after, "--fail-above", "0.20"]) == 1
        assert "!" in capsys.readouterr().out

    def test_speedup_rise_passes_unflagged(self, tmp_path, capsys):
        before = write(tmp_path / "base.json", {"aggregate": {"speedup": 3.81}, "gate": GATE})
        after = write(tmp_path / "cur.json", {"aggregate": {"speedup": 5.58}, "gate": GATE})
        assert main(["obs", "diff", before, after, "--fail-above", "0.20"]) == 0
        assert "!" not in capsys.readouterr().out

    def test_gated_key_missing_after_fails(self, tmp_path):
        before = write(tmp_path / "base.json", {"aggregate": {"speedup": 4.0}, "gate": GATE})
        after = write(tmp_path / "cur.json", {"aggregate": {"other": 4.0}})
        assert main(["obs", "diff", before, after, "--fail-above", "0.20"]) == 1

    def test_missing_current_report_fails(self, tmp_path, capsys):
        before = write(tmp_path / "base.json", {"aggregate": {"speedup": 4.0}, "gate": GATE})
        assert main(["obs", "diff", before, str(tmp_path / "nope.json"), "--fail-above",
                     "0.20"]) == 1
        assert "error" in capsys.readouterr().err

    def test_baseline_against_itself_passes(self, capsys):
        for path in sorted(BASELINES.glob("BENCH_*.json")):
            assert main(["obs", "diff", str(path), str(path), "--fail-above", "0.20"]) == 0
        capsys.readouterr()

    def test_malformed_gate_rule_is_an_error(self, tmp_path, capsys):
        bad = {"aggregate.speedup": {"better": "up", "slack": 0.0}}
        before = write(tmp_path / "base.json", {"aggregate": {"speedup": 4.0}, "gate": bad})
        assert main(["obs", "diff", before, before]) == 1
        assert "better" in capsys.readouterr().err
