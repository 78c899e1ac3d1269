"""Chaos tests: drive the fault-tolerant runner through injected failures.

Each scenario uses a seeded :class:`~repro.experiments.faults.FaultPlan`,
so the "chaos" replays deterministically: crash-then-retry,
permanent-failure-then-skip, timeout-then-skip, corrupt-checkpoint-then-
recompute, abort-on---no-keep-going, and a genuine SIGKILL mid-run
followed by ``--resume``.  Experiments are drawn from the fastest small
presets (T10/A8/T3 all finish in well under a second).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.run_all import main

FAST_IDS = "T10,A8,T3"


def journal_events(run_dir: Path, event: str, exp_id: str | None = None):
    records = []
    for line in (run_dir / "journal.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["event"] == event and (exp_id is None or record["id"] == exp_id):
            records.append(record)
    return records


def run_main(*argv):
    return main([*argv, "--preset", "small", "--backoff", "0.01"])


def test_crash_then_retry_succeeds(tmp_path, capsys):
    rc = run_main(
        "--only", "T10", "--out", str(tmp_path), "--retries", "3",
        "--inject-faults", "T10:raise@1",
    )
    assert rc == 0
    assert "in 2 attempts" in capsys.readouterr().out
    attempts = journal_events(tmp_path, "attempt_end", "T10")
    assert [a["status"] for a in attempts] == ["error", "ok"]
    assert not attempts[0]["permanent"]
    assert "InjectedFaultError" in attempts[0]["error"]
    (done,) = journal_events(tmp_path, "done", "T10")
    assert done["status"] == "ok" and done["attempts"] == 2


def test_permanent_failure_is_never_retried(tmp_path, capsys):
    rc = run_main(
        "--only", FAST_IDS, "--out", str(tmp_path), "--retries", "3",
        "--inject-faults", "A8:config@1",
    )
    assert rc == 2  # partial success: T10 and T3 completed
    out = capsys.readouterr().out
    assert "FAILURES" in out and "ConfigurationError" in out
    (done,) = journal_events(tmp_path, "done", "A8")
    assert done["status"] == "failed" and done["attempts"] == 1
    assert (tmp_path / "failures.txt").exists()
    assert (tmp_path / "T10.csv").exists() and (tmp_path / "T3.csv").exists()
    assert not (tmp_path / "A8.csv").exists()


def test_timeout_kills_hung_worker_and_skips(tmp_path, capsys):
    start = time.perf_counter()
    rc = run_main(
        "--only", "T10,A8", "--out", str(tmp_path), "--timeout", "1.5",
        "--inject-faults", "A8:hang@1",
    )
    assert rc == 2
    assert time.perf_counter() - start < 30  # killed, not waited on forever
    assert "timeout" in capsys.readouterr().out
    (done,) = journal_events(tmp_path, "done", "A8")
    assert done["status"] == "timeout" and done["attempts"] == 1  # no retry
    (attempt,) = journal_events(tmp_path, "attempt_end", "A8")
    assert attempt["status"] == "timeout"


def test_corrupt_checkpoint_recomputed_on_resume(tmp_path, capsys):
    run = tmp_path / "run"
    clean = tmp_path / "clean"
    assert run_main(
        "--only", "T10,A8", "--out", str(run), "--inject-faults", "A8:corrupt@1"
    ) == 0
    assert run_main("--only", "T10,A8", "--resume", str(run)) == 0
    assert journal_events(run, "recompute", "A8")
    assert journal_events(run, "restored", "T10")
    assert run_main("--only", "T10,A8", "--out", str(clean)) == 0
    capsys.readouterr()
    for name in ("T10.txt", "T10.csv", "A8.txt", "A8.csv"):
        assert (run / name).read_bytes() == (clean / name).read_bytes()


def test_no_keep_going_aborts_remaining(tmp_path, capsys):
    rc = run_main(
        "--only", FAST_IDS, "--out", str(tmp_path), "--no-keep-going",
        "--inject-faults", "T10:config@1",
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "aborted" in out
    assert journal_events(tmp_path, "aborted") != []
    assert not (tmp_path / "A8.csv").exists() and not (tmp_path / "T3.csv").exists()


def test_resume_refuses_mismatched_manifest(tmp_path, capsys):
    assert run_main("--only", "T10", "--out", str(tmp_path)) == 0
    # different subset
    assert run_main("--only", "T10,A8", "--resume", str(tmp_path)) == 1
    # different seed
    assert run_main("--only", "T10", "--seed", "99", "--resume", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "refusing to resume" in err
    assert "--preset/--only/--seed" in err


def test_resume_refuses_format_1_run_dir(tmp_path, capsys):
    """A run directory written before the one-stream engine change (manifest
    format 1) holds tables this build cannot reproduce: never resume it."""
    assert run_main("--only", "T10", "--out", str(tmp_path)) == 0
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = 1
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_main("--only", "T10", "--resume", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "refusing to resume" in err
    assert "format: run dir has 1, this invocation has 2" in err


def test_out_and_resume_are_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(["--out", str(tmp_path / "a"), "--resume", str(tmp_path / "b")])


def test_bad_fault_spec_rejected():
    with pytest.raises(SystemExit):
        main(["--inject-faults", "T10:explode@1"])


def test_sigkill_then_resume_converges(tmp_path):
    """A run SIGKILLed mid-flight resumes to byte-identical outputs."""
    run = tmp_path / "run"
    clean = tmp_path / "clean"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.run_all",
            "--preset", "small", "--only", FAST_IDS, "--out", str(run),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        deadline = time.monotonic() + 60
        first = run / "checkpoints" / "T10.json"
        while not first.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert first.exists(), "first checkpoint never appeared"
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(30)
    assert run_main("--only", FAST_IDS, "--resume", str(run)) == 0
    assert run_main("--only", FAST_IDS, "--out", str(clean)) == 0
    for exp_id in FAST_IDS.split(","):
        for ext in (".txt", ".csv"):
            assert (run / f"{exp_id}{ext}").read_bytes() == (
                clean / f"{exp_id}{ext}"
            ).read_bytes(), f"{exp_id}{ext} diverged after kill+resume"
