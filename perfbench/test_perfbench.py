"""Tests of the benchmark itself: the smoke mode and the tracer's accounting."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import collabmarket.cli
import tracer

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_run_checks_oracle_and_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 6  # one untraced and one traced iteration per workload


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    leaf = t.wrap("leaf", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        leaf()
        leaf()

    t.wrap("outer", outer)()
    own = t.self_times()
    # Spans are numbered in call order: outer first, its two leaves after it.
    assert [t.names[i] for i in t.name_of] == ["outer", "leaf", "leaf"]
    assert list(t.parent_of) == [-1, 0, 0]
    durations = [end - start for start, end in zip(t.starts, t.ends)]
    assert own[1:] == durations[1:]
    # The outer span keeps its own sleep; only the tracer's bookkeeping
    # around the two child calls comes off on top of the children.
    assert 0 <= durations[0] - durations[1] - durations[2] - own[0] < 0.001
    assert own[0] >= 0.009


def test_missing_function_marks_its_metrics_absent(monkeypatch):
    for name in ("collab.sort_ue_events", "collab.sort_sds_events"):
        monkeypatch.setitem(tracer.TARGETS, name, ("collab", "no_such_function"))
    original = collabmarket.cli.derive_ue_events
    missing, undo = tracer.install(tracer.Tracer())
    try:
        assert collabmarket.cli.derive_ue_events.__wrapped__ is original
    finally:
        for owner, key, value in undo:
            setattr(owner, key, value)
    assert collabmarket.cli.derive_ue_events is original
    assert missing == ["collab.sort_ue_events", "collab.sort_sds_events"]
    absent = tracer.absent_metrics(missing)
    assert absent == ["collab.sort_s", "collab.sort_calls"]
