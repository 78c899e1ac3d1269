"""End-to-end benchmark of the reproduction: smoke tables, a scenario grid, a live service.

Run from the root of a checkout (the program is taken from ``src/``)::

    python3 perfbench/run.py --workload tables-smoke --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``tables-smoke``  ``python -m repro.experiments.run_all --preset smoke
  --jobs 1`` on the tables in :data:`TABLES`, into a fresh ``--out``.
* ``scenario-grid`` ``python -m repro scenario run inputs/grid.yaml`` into a
  fresh store, then one ``scenario replay`` of the stored run.
* ``service-mixed`` a live ``python -m repro serve --workers 2`` driven by
  ``client.py``: 2 closed-loop threads, 200 submissions.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced and one traced pass, reports the per-layer metrics from the
traced one (spans come from ``tracehook/``), and prints each workload's
per-layer self-time table with its unattributed remainder.  Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment fingerprint, a calibration loop timed in the same run, and every
metric by name with its unit and sample count.

Every input is generated from ``--seed``.  All files go to
``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACEHOOK = HERE / "tracehook"
INPUTS = HERE / "inputs"
PY = sys.executable

WORKLOADS = ("tables-smoke", "scenario-grid", "service-mixed")

#: The 16 fast tables plus T6 (the scalar engine and elect_leader) and A10
#: (the vectorized engine).  T8, A4, A6 and A9 (8-14 s each, on engines T6
#: and A10 already run) are left out so a pass stays near 40 s; see
#: README.md.
TABLES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T9", "T10", "F1", "F2",
          "A1", "A2", "A3", "A5", "A7", "A8", "A10")
ALL_TABLES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "F1",
              "F2", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10")

#: Columns that must read 1.000 in every row: the theorem predicts election
#: at the table's default budget.
SUCCESS_ONE = {
    "T1": ("success_rate",), "T2": ("success_rate",), "T3": ("success_rate",),
    "T5": ("success_rate",), "T7": ("lesk_success", "ars_success"),
    "A2": ("success_rate",), "A3": ("nocd_success", "lesk_success"),
    "A7": ("lesu_success",),
}

#: Lowest share of reps a scenario-grid cell must elect in: at the default
#: slot budget LESK, LESU and no-CD elect w.h.p. for eps >= 0.5, so one miss
#: in 256 reps is allowed and two fail the check.
GRID_EXPECTED = {"lesk": 0.995, "lesu": 0.995, "nocd": 0.995}
GRID_CELLS = 54

SERVICE_WORKERS = 2

SETUP_PROBES = 5
SERVE_PROBES = 3
SERVE_HEALTH_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150

ENTRY_MODULES = {
    "tables-smoke": ("repro.experiments.run_all",),
    "scenario-grid": ("repro.__main__", "repro.service.cli", "repro.service.store"),
    "service-mixed": ("repro.__main__", "repro.service.cli", "repro.service.api",
                      "repro.service.jobs", "repro.service.store"),
}

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "submit_to_done_p50_ms": "ms", "submit_to_done_p95_ms": "ms",
    "runs_per_s": "1/s", "read_p50_ms": "ms",
}

LAYER_COUNTS = ("election", "engine.scalar", "engine.fast", "engine.vectorized",
                "engine.batched", "engine.megakernel", "harness")
PER_LAYER = {  # name -> unit; every traced run reports all of them
    "startup.import_s": "s",
    **{f"table.{t}_s": "s" for t in ALL_TABLES},
    "runner.overhead_s": "s",
    **{k: v for layer in LAYER_COUNTS
       for k, v in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s"))},
    "engine.batched.reps": "count",
    "engine.megakernel.fallbacks": "count",
    "shard.blocks": "count", "shard.retries": "count",
    "shard.useful_ratio": "ratio", "shard.self_s": "s",
    "io.checkpoint.writes": "count", "io.checkpoint.bytes": "bytes",
    "io.checkpoint.s": "s",
    "scenario.compile_s": "s",
    "store.write.ops": "count", "store.write_s": "s",
    "store.read.ops": "count", "store.read_s": "s",
    "ledger.ops": "count", "ledger.s": "s",
    "service.queue_wait_p50_ms": "ms", "service.queue_wait_p95_ms": "ms",
    "service.exec_p50_ms": "ms", "fleet.respawns": "count",
    "api.submit_p50_ms": "ms", "api.status_p50_ms": "ms",
    "api.results_p50_ms": "ms", "api.list_p50_ms": "ms",
    "read_p99_ms": "ms",
    "trace.overhead_pct": "%", "trace.unattributed_s": "s",
}


class Outcome:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.add_counts(1, 0 if ok else 1, what)

    def add_counts(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 20:
            self.reasons.append(what)


# -- processes ---------------------------------------------------------------


def child_env(trace_dir: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_TRACE_DIR"}
    path = [str(SRC)]
    if trace_dir is not None:
        path.insert(0, str(TRACEHOOK))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def stop_group(proc: subprocess.Popen, grace: float = 30.0) -> None:
    """SIGTERM the process group, wait, then SIGKILL whatever is left."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=wait)
            break
        except subprocess.TimeoutExpired:
            continue
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # grandchildren that outlived it
    except ProcessLookupError:
        pass


def run_timed(cmd: list[str], env: dict, timeout: float = RUN_TIMEOUT_S,
              on_line=None) -> dict:
    """Run *cmd* to exit; return its wall and CPU time (with descendants).

    ``on_line(line, seconds_since_launch)`` sees each stdout line as it
    arrives, so per-unit progress can be timed from outside the program.
    """
    cpu0 = children_cpu()
    start = time.perf_counter()
    with tempfile.TemporaryFile("w+", dir=ROOT / ".perfbench_work") as err_fh:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err_fh, text=True, start_new_session=True)
        timer = threading.Timer(timeout, stop_group, (proc, 1.0))
        timer.start()
        lines = []
        try:
            for line in proc.stdout:
                lines.append(line)
                if on_line is not None:
                    on_line(line, time.perf_counter() - start)
            proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:  # interrupted: leave nothing running
                stop_group(proc, grace=1.0)
        wall = time.perf_counter() - start
        err_fh.seek(0)
        err = err_fh.read()
    return {"wall": wall, "cpu": children_cpu() - cpu0, "rc": proc.returncode,
            "out": "".join(lines), "err": err}


def import_probe(modules: tuple[str, ...]) -> dict:
    """A fresh interpreter importing the entry modules: process wall + import time."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    res = run_timed([PY, "-c", code], child_env(), timeout=60)
    if res["rc"] != 0:
        raise RuntimeError(f"import probe failed: {res['err'].strip()[-400:]}")
    return {"setup": res["wall"], "import": float(res["out"].split()[-1])}


# -- environment -------------------------------------------------------------


def fingerprint() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


def calibration_s(loops: int = 2_000_000, repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: machine speed in this run."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i & 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- tables-smoke ------------------------------------------------------------


def _ordered(values: list) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def table_checks(tables: dict) -> list[tuple[str, bool]]:
    """Law checks per table id: (table id, passed)."""
    results = []
    for tid, table in tables.items():
        ok = True
        for column in SUCCESS_ONE.get(tid, ()):
            ok &= all(float(v) == 1.0 for v in table.column_values(column))
        if tid == "T1":  # medians grow with n, per adversary
            by_adv: dict = {}
            for row in table.rows:
                by_adv.setdefault(row["adversary"], []).append(
                    (row["n"], float(row["median_slots"])))
            ok &= all(_ordered([m for _, m in sorted(v)]) for v in by_adv.values())
        if tid == "T2":  # medians do not grow with eps
            pairs = sorted((float(r["eps"]), float(r["median_slots"])) for r in table.rows)
            ok &= _ordered([-m for _, m in pairs])
        if tid == "F2":  # success rises with the budget, to 1.000
            pairs = sorted((float(r["budget"]), float(r["success_rate"])) for r in table.rows)
            ok &= _ordered([s for _, s in pairs]) and pairs[-1][1] == 1.0
        ok &= len(table.rows) > 0
        results.append((tid, bool(ok)))
    return results


def tables_pass(seed: int, work: Path, index: int, outcome: Outcome,
                trace_dir: Path | None = None) -> dict:
    from repro.errors import ReproError
    from repro.experiments.checkpoint import RunDir

    out = work / f"tables-{index}"
    rundir = RunDir(out)
    marks, tables, reads = [0.0], {}, []

    def on_line(line: str, at: float) -> None:  # "[T1 done in 0.2s]"
        if not (line.startswith("[") and " done in " in line):
            return
        marks.append(at)
        # Read the finished table back, checksum verified, as a user watching
        # the run would; these loads feed the law checks and are the reads.
        tid = line[1:].split()[0]
        start = time.perf_counter()
        try:
            tables[tid] = rundir.load_table(tid)
        except (ReproError, OSError, ValueError, KeyError) as exc:
            outcome.add(False, f"{tid}: {type(exc).__name__}: {exc}")
            return
        reads.append((time.perf_counter() - start) * 1000)

    res = run_timed(
        [PY, "-m", "repro.experiments.run_all", "--preset", "smoke", "--jobs", "1",
         "--seed", str(seed), "--only", ",".join(TABLES), "--out", str(out)],
        child_env(trace_dir), on_line=on_line)
    # A table's latency runs from the previous table's result (or the launch)
    # to its own result line: what a user watching the run waits per table.
    latencies = [(b - a) * 1000 for a, b in zip(marks, marks[1:])]
    outcome.add(res["rc"] == 0, f"run_all exit {res['rc']}: {res['err'][-300:]}")
    outcome.add(len(tables) == len(TABLES), f"{len(tables)} tables reported done and read")
    for tid, ok in table_checks(tables):
        outcome.add(ok, f"{tid}: law check")
    return {"wall": res["wall"], "cpu": res["cpu"], "latencies": latencies,
            "reads": reads, "units": len(tables)}


# -- scenario-grid -----------------------------------------------------------


def grid_document(seed: int, work: Path) -> Path:
    path = work / "grid.yaml"
    path.write_text((INPUTS / "grid.yaml").read_text().format(seed=seed))
    return path


def grid_pass(seed: int, work: Path, index: int, outcome: Outcome,
              trace_dir: Path | None = None) -> dict:
    from repro.errors import ReproError
    from repro.service.store import RunStore

    doc = grid_document(seed, work)
    store_dir = work / f"store-{index}"
    res = run_timed([PY, "-m", "repro", "scenario", "run", str(doc), "--store",
                     str(store_dir)], child_env(trace_dir))
    store = RunStore(store_dir)
    run_ids = store.run_ids()
    latencies = []
    empty = {"wall": res["wall"], "cpu": res["cpu"], "latencies": [], "reads": [],
             "units": 0}
    if res["rc"] != 0 or len(run_ids) != 1:
        outcome.add(False, f"scenario run rc={res['rc']}: {res['err'][-300:]}")
        return empty
    run_id = run_ids[0]
    prev = None
    for rec in store.journal(run_id):
        if rec.get("event") == "started":
            prev = rec["ts"]
        elif rec.get("event") == "cell" and prev is not None:
            latencies.append((rec["ts"] - prev) * 1000)
            prev = rec["ts"]
    # The check's verify-on-read load of the stored table is the workload's read.
    start = time.perf_counter()
    try:
        rows = store.serve_table(run_id).rows
    except (ReproError, OSError, ValueError) as exc:
        outcome.add(False, f"serve_table: {type(exc).__name__}: {exc}")
        return empty
    reads = [(time.perf_counter() - start) * 1000]
    outcome.add(len(rows) == GRID_CELLS, f"grid has {len(rows)} cells")
    for row in rows:
        outcome.add(float(row["success"]) >= GRID_EXPECTED[row["kind"]],
                    f"cell {row['kind']} n={row['n']} eps={row['eps']} "
                    f"{row['adversary']}: success {row['success']}")
    return {"wall": res["wall"], "cpu": res["cpu"], "latencies": latencies,
            "reads": reads, "units": len(latencies)}


# -- service-mixed -----------------------------------------------------------


def launch_serve(store: Path, trace_dir: Path | None = None):
    """Start ``repro serve``; return (process, url, seconds to first /healthz 200)."""
    log = store.with_suffix(".log")
    store.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    with open(log, "w") as log_fh:
        proc = subprocess.Popen(
            [PY, "-m", "repro", "serve", "--store", str(store), "--port", "0",
             "--workers", str(SERVICE_WORKERS)],
            env=child_env(trace_dir), cwd=ROOT, stdout=log_fh,
            stderr=subprocess.STDOUT, start_new_session=True)
    url = None
    while time.perf_counter() - start < SERVE_HEALTH_TIMEOUT_S:
        if proc.poll() is not None:
            break
        if url is None:
            match = re.search(r"http://[\d.]+:\d+", log.read_text())
            url = match.group(0) if match else None
        if url is not None:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
                    if resp.status == 200:
                        return proc, url, time.perf_counter() - start
            except OSError:
                pass
        time.sleep(0.005)
    stop_group(proc, grace=1.0)
    raise RuntimeError(f"serve did not become healthy: {log.read_text()[-400:]}")


def service_session(seed: int, work: Path, index: int, outcome: Outcome,
                    trace_dir: Path | None = None) -> dict:
    store = work / f"svc-{index}"
    ops_path = work / f"ops-{index}.json"
    cpu0 = children_cpu()
    start = time.perf_counter()
    proc, url, setup = launch_serve(store, trace_dir)
    session = {"setup": setup, "latencies": [], "reads": [], "units": 0, "rate": 0.0,
               "store": store, "serve_pid": proc.pid,
               "ops": {"requests": [], "iterations": [], "wall_s": 0.0}}
    try:
        client = run_timed([PY, str(HERE / "client.py"), "--url", url, "--seed",
                            str(seed), "--out", str(ops_path)], child_env())
    finally:
        stop_group(proc)
    session.update(wall=time.perf_counter() - start, cpu=children_cpu() - cpu0)
    if client["rc"] != 0 or not ops_path.exists():
        outcome.add(False, f"client rc={client['rc']}: {client['err'][-300:]}")
        return session
    ops = json.loads(ops_path.read_text())
    # A run whose requests all answered 2xx but whose result broke a check
    # (a failed run, or a table off its laws) is one more failed operation.
    broken = [it for it in ops["iterations"] if it.get("check")]
    attempted, failed = stats.count_failures([r[3] for r in ops["requests"]], len(broken))
    outcome.add_counts(attempted, failed, "; ".join(
        sorted({f"{r[0]} HTTP {r[3]}" for r in ops["requests"] if not 200 <= r[3] < 300}
               | {it["why"] for it in broken})))
    done = sum(1 for it in ops["iterations"] if it["ok"])
    session.update(
        latencies=[it["submit_to_done_s"] * 1000 for it in ops["iterations"]
                   if "submit_to_done_s" in it],
        reads=[(end - begin) * 1000 for route, begin, end, _ in ops["requests"]
               if route != "submit"],
        units=done, rate=done / ops["wall_s"] if ops["wall_s"] else 0.0, ops=ops)
    return session


def service_journals(store: Path) -> dict:
    """Queue wait, execution time and worker deaths from every run's journal."""
    waits, execs, respawns = [], [], 0
    for journal in sorted((store / "runs").glob("*/journal.jsonl")):
        events = [json.loads(line) for line in journal.read_text().splitlines() if line]
        ts = {}
        for rec in events:
            ts.setdefault(rec.get("event"), rec.get("ts"))
            if rec.get("event") in ("worker-died", "worker-timeout", "worker-stalled"):
                respawns += 1
        if None not in (ts.get("registered"), ts.get("started"), ts.get("done")):
            waits.append((ts["started"] - ts["registered"]) * 1000)
            execs.append((ts["done"] - ts["started"]) * 1000)
    return {"waits": waits, "execs": execs, "respawns": respawns}


# -- per-layer analysis ------------------------------------------------------


def load_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines() if line)
    return spans


def layer_of(name: str) -> str:
    if name.startswith("table."):
        return "table"
    if name == "engine.megakernel.fallback":
        return "engine.megakernel"
    return name


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and the per-layer self-time table from traced spans."""
    from repro.experiments.run_all import EXPERIMENT_MODULES

    module_to_id = {mod.rsplit(".", 1)[1]: tid for tid, mod in EXPERIMENT_MODULES.items()}
    own = stats.self_times(spans)
    layer_self: dict[str, float] = {}
    for name, secs in own.items():
        layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + secs
    calls: dict[str, int] = {}
    for sp in spans:
        calls[sp["name"]] = calls.get(sp["name"], 0) + 1
    m = {k: 0.0 for k in PER_LAYER}
    for sp in spans:
        if sp["name"].startswith("table."):
            tid = module_to_id.get(sp["name"][len("table."):])
            if tid is not None:
                m[f"table.{tid}_s"] += sp["end"] - sp["start"]
    for layer in LAYER_COUNTS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    total = lambda key: sum(sp.get(key, 0) for sp in spans)  # noqa: E731
    m["engine.batched.reps"] = total("reps")
    m["engine.megakernel.fallbacks"] = calls.get("engine.megakernel.fallback", 0)
    m["shard.blocks"] = total("blocks")
    m["shard.retries"] = total("retries")
    dispatched = total("dispatched")
    m["shard.useful_ratio"] = m["shard.blocks"] / dispatched if dispatched else 0.0
    m["shard.self_s"] = layer_self.get("shard", 0.0)
    m["io.checkpoint.writes"] = calls.get("io.checkpoint", 0)
    m["io.checkpoint.bytes"] = total("bytes")
    m["io.checkpoint.s"] = layer_self.get("io.checkpoint", 0.0)
    m["scenario.compile_s"] = layer_self.get("scenario.compile", 0.0)
    m["store.write.ops"] = calls.get("store.write", 0)
    m["store.write_s"] = layer_self.get("store.write", 0.0)
    m["store.read.ops"] = calls.get("store.read", 0)
    m["store.read_s"] = layer_self.get("store.read", 0.0)
    m["ledger.ops"] = calls.get("ledger", 0)
    m["ledger.s"] = layer_self.get("ledger", 0.0)
    return m, layer_self


def print_self_table(title: str, base_label: str, base: float, rows: dict,
                     beside: dict | None = None) -> float:
    """Print a self-time table whose rows plus 'unattributed' sum to *base*."""
    unattributed = base - sum(rows.values())
    print(f"\n== per-layer self time: {title} ==")
    print(f"{'layer':<28}{'self s':>10}{'share':>9}")
    for name, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"{name:<28}{secs:>10.3f}{100 * secs / base:>8.1f}%")
    print(f"{'unattributed':<28}{unattributed:>10.3f}{100 * unattributed / base:>8.1f}%")
    print(f"{base_label:<28}{base:>10.3f}{100.0:>8.1f}%")
    for name, secs in sorted((beside or {}).items(), key=lambda kv: -kv[1]):
        print(f"  beside the path: {name:<19}{secs:>8.3f} s")
    return unattributed


# -- workloads ---------------------------------------------------------------


def run_passes(seconds: float, one_pass) -> list[dict]:
    """Repeat *one_pass(i)* while the next pass is expected to end within *seconds*."""
    start = time.perf_counter()
    passes = [one_pass(0)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            return passes
        passes.append(one_pass(len(passes)))


def peak_rss_mb() -> float:
    """Peak resident memory of the largest child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(setups: list[float], passes: list[dict], rss_mb: float,
               rate: float | None = None) -> tuple[dict, dict]:
    """End-to-end values: each statistic is taken per pass, then the median over passes.

    Percentiles are per pass so that a run with one pass and a run with two
    report the same statistic (pooling 18 table latencies with 36 moves p95).
    A statistic no pass has samples for (every pass failed) reads 0.
    """
    def per_pass(key: str, q: float) -> float:
        values = [stats.percentile(p[key], q) for p in passes if p[key]]
        return statistics.median(values) if values else 0.0

    if rate is None:
        rate = statistics.median(p["units"] / p["wall"] for p in passes)
    print("pass walls (s): " + " ".join(f"{p['wall']:.3f}" for p in passes))
    for label, key in (("submit_to_done", "latencies"), ("read", "reads")):
        sample = [v for p in passes for v in p[key]]
        print(f"{label} latency (ms), all passes: " + " ".join(
            f"{k} {v:.4g}" if k != "n" else f"n {v}"
            for k, v in stats.summary(sample).items()))
    per = {key: "/".join(str(len(p[key])) for p in passes) for key in ("latencies", "reads")}
    samples = {"setup_s": len(setups), "wall_s": len(passes), "cpu_s": len(passes),
               "submit_to_done_p50_ms": per["latencies"],
               "submit_to_done_p95_ms": per["latencies"], "read_p50_ms": per["reads"]}
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": rss_mb,
        "submit_to_done_p50_ms": per_pass("latencies", 50),
        "submit_to_done_p95_ms": per_pass("latencies", 95),
        "runs_per_s": rate,
        "read_p50_ms": per_pass("reads", 50),
    }
    return values, samples


def workload_untraced(workload: str, seed: int, seconds: float, work: Path,
                      outcome: Outcome) -> tuple[dict, dict]:
    if workload == "service-mixed":
        setups = []
        for i in range(SERVE_PROBES - 1):
            proc, _, secs = launch_serve(work / f"probe-{i}")
            stop_group(proc)
            setups.append(secs)
        session = service_session(seed, work, 0, outcome)
        setups.append(session["setup"])
        return end_to_end(setups, [session], peak_rss_mb(), rate=session["rate"])
    setups = [import_probe(ENTRY_MODULES[workload])["setup"] for _ in range(SETUP_PROBES)]
    if workload == "tables-smoke":
        passes = run_passes(seconds, lambda i: tables_pass(seed, work, i, outcome))
        return end_to_end(setups, passes, peak_rss_mb())
    passes = run_passes(seconds, lambda i: grid_pass(seed, work, i, outcome))
    rss_mb = peak_rss_mb()  # before the replay check, which is not the workload
    replay_check(work, outcome)
    return end_to_end(setups, passes, rss_mb)


def replay_check(work: Path, outcome: Outcome) -> None:
    """``scenario replay`` the first pass's stored run: must be byte-identical."""
    from repro.service.store import RunStore

    store_dir = work / "store-0"
    run_ids = RunStore(store_dir).run_ids()
    if len(run_ids) != 1:
        outcome.add(False, "no stored grid run to replay")
        return
    rep = run_timed([PY, "-m", "repro", "scenario", "replay", run_ids[0], "--store",
                     str(store_dir), "--jobs", "2"], child_env())
    outcome.add(rep["rc"] == 0, f"scenario replay rc={rep['rc']}: {rep['err'][-200:]}")


def workload_traced(workload: str, seed: int, work: Path, outcome: Outcome) -> dict:
    trace_dir = work / "trace"
    trace_dir.mkdir()
    imports = [import_probe(ENTRY_MODULES[workload])["import"] for _ in range(3)]
    if workload == "tables-smoke":
        plain = tables_pass(seed, work, 0, outcome)
        traced = tables_pass(seed, work, 1, outcome, trace_dir)
    elif workload == "scenario-grid":
        plain = grid_pass(seed, work, 0, outcome)
        traced = grid_pass(seed, work, 1, outcome, trace_dir)
        replay_check(work, outcome)
    else:
        plain = service_session(seed, work, 0, outcome)
        traced = service_session(seed, work, 1, outcome, trace_dir)
    spans = load_spans(trace_dir)
    m, layer_self = layer_metrics(spans)
    m["startup.import_s"] = statistics.median(imports)
    m["read_p99_ms"] = stats.percentile(plain["reads"], 99) if plain["reads"] else 0.0
    m["trace.overhead_pct"] = 100.0 * (traced["wall"] - plain["wall"]) / plain["wall"]
    if workload == "tables-smoke":
        m["runner.overhead_s"] = traced["wall"] - sum(m[f"table.{t}_s"] for t in ALL_TABLES)
    if workload != "service-mixed":
        m["trace.unattributed_s"] = print_self_table(
            workload, "traced wall", traced["wall"], layer_self)
        return m
    # service-mixed: account for the submit-to-done path of every run.
    journals = service_journals(plain["store"])
    ops = plain["ops"]["requests"]
    for route in ("submit", "status", "results", "list"):
        times = [(end - begin) * 1000 for r, begin, end, _ in ops if r == route]
        m[f"api.{route}_p50_ms"] = stats.percentile(times, 50) if times else 0.0
    if journals["waits"]:
        m["service.queue_wait_p50_ms"] = stats.percentile(journals["waits"], 50)
        m["service.queue_wait_p95_ms"] = stats.percentile(journals["waits"], 95)
        m["service.exec_p50_ms"] = stats.percentile(journals["execs"], 50)
    traced_journals = service_journals(traced["store"])
    m["fleet.respawns"] = journals["respawns"] + traced_journals["respawns"]
    serve_pid = traced["serve_pid"]
    worker_self = stats.self_times([s for s in spans if s["pid"] != serve_pid])
    rows: dict[str, float] = {}
    for name, secs in worker_self.items():
        rows["worker:" + layer_of(name)] = rows.get("worker:" + layer_of(name), 0.0) + secs
    rows["service.queue_wait"] = sum(traced_journals["waits"]) / 1000
    rows["api.submit"] = sum((end - begin) for r, begin, end, _ in
                             traced["ops"]["requests"] if r == "submit")
    beside = {}
    for name, secs in stats.self_times([s for s in spans if s["pid"] == serve_pid]).items():
        beside["serve:" + layer_of(name)] = beside.get("serve:" + layer_of(name), 0.0) + secs
    base = sum(traced["latencies"]) / 1000
    m["trace.unattributed_s"] = print_self_table(
        "service-mixed (summed over runs)", "sum of submit-to-done", base, rows, beside)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds through the finally blocks that stop every child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    outcome = Outcome()
    units = PER_LAYER if args.trace else END_TO_END
    try:
        env = fingerprint()
        calib_before = calibration_s()
        print(f"env: {json.dumps(env, sort_keys=True)}")
        try:
            if args.trace:
                values = workload_traced(args.workload, args.seed, work, outcome)
                samples = {}
            else:
                values, samples = workload_untraced(args.workload, args.seed,
                                                    args.seconds, work, outcome)
        except Exception as exc:
            # A crashed workload, or a serve that never answers /healthz, is
            # a failed run: still reported, with every metric 0.
            outcome.add(False, f"{type(exc).__name__}: {exc}")
            values, samples = {name: 0.0 for name in units}, {}
        calib_after = calibration_s()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(f"calibration_s: before {calib_before:.4f} after {calib_after:.4f} "
          "(fixed pure-Python loop; not a metric)")
    print(f"workload {args.workload} seed {args.seed}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}, failed_frac "
          f"{stats.failed_frac(outcome.attempted, outcome.failed):.4f}")
    for reason in outcome.reasons:
        print(f"  FAILED: {reason}")
    for name, unit in units.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<32}{values[name]:>14.6g} {unit}{n}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
