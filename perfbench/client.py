"""Closed-loop HTTP client for the ``service-mixed`` workload.

Each of :data:`THREADS` threads repeats: submit a distinct scenario (from
``inputs/service.yaml``, seeded from ``--seed``), poll ``/v1/runs/<id>``
until it leaves the queued/running states, fetch ``/results`` and check the
table's laws.  Every 10th iteration it also reads one
``/v1/runs?limit=50&offset=...`` page.  Together the threads make exactly
:data:`SUBMITS` submissions.  Every request is written to ``--out`` as
``[route, start, end, status]`` and every iteration as a record with its
submit-to-done latency, whether it succeeded, and whether it failed a check
(a run that never reached ``done``, or a result table off its laws) rather
than a request that was refused or errored.

Uses only the standard library and never imports ``repro``: the service is
judged by its HTTP answers alone.

    python3 perfbench/client.py --url http://127.0.0.1:8765 --seed 1 --out ops.json
"""

from __future__ import annotations

import argparse
import json
import random
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

SUBMITS = 200
THREADS = 2
POLL_S = 0.02
RUN_TIMEOUT_S = 120.0
TEMPLATE = Path(__file__).resolve().parent / "inputs" / "service.yaml"
#: A cell of the service scenario must elect in at least this share of reps.
EXPECTED_SUCCESS = 1.0


def scenario_documents(seed: int, count: int) -> list[str]:
    """``count`` distinct scenario documents, the same ones for the same seed."""
    rng = random.Random(seed)
    template = TEMPLATE.read_text()
    return [
        template.format(index=i, seed=rng.getrandbits(62)) for i in range(count)
    ]


def _request(method: str, url: str, body: bytes | None = None):
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError):
        return 599, b""  # connection refused/reset: a failed operation


def table_ok(payload: bytes) -> bool:
    """Every cell elected in >= EXPECTED_SUCCESS of its reps, all cells present."""
    try:
        table = json.loads(payload)["table"]
        rows = table["rows"]
    except (ValueError, KeyError, TypeError):
        return False
    return len(rows) == 4 and all(
        float(row["success"]) >= EXPECTED_SUCCESS for row in rows
    )


class Client:
    def __init__(self, url: str, docs: list[str]):
        self.url = url
        self.docs = docs
        self.next_doc = 0
        self.lock = threading.Lock()
        self.requests: list[list] = []
        self.iterations: list[dict] = []

    def _call(self, route: str, method: str, path: str, body: bytes | None = None):
        start = time.perf_counter()
        status, payload = _request(method, self.url + path, body)
        end = time.perf_counter()
        with self.lock:
            self.requests.append([route, start, end, status])
        return status, payload

    def _take(self) -> str | None:
        with self.lock:
            if self.next_doc >= len(self.docs):
                return None
            self.next_doc += 1
            return self.docs[self.next_doc - 1]

    def loop(self) -> None:
        count = 0
        while (doc := self._take()) is not None:
            count += 1
            self.iterations.append(self._iteration(doc))
            if count % 10 == 0:
                offset = 50 * ((count // 10) % 4)
                self._call("list", "GET", f"/v1/runs?limit=50&offset={offset}")

    def _iteration(self, doc: str) -> dict:
        start = time.perf_counter()
        status, payload = self._call("submit", "POST", "/v1/scenarios", doc.encode())
        if not 200 <= status < 300:
            return {"ok": False, "why": f"submit {status}"}
        run_id = json.loads(payload)["run_id"]
        state = "queued"
        while state in ("queued", "running"):
            if time.perf_counter() - start > RUN_TIMEOUT_S:
                return {"ok": False, "why": "timeout", "check": True, "run_id": run_id}
            time.sleep(POLL_S)
            status, payload = self._call("status", "GET", f"/v1/runs/{run_id}")
            if status != 200:
                return {"ok": False, "why": f"status {status}", "run_id": run_id}
            state = json.loads(payload).get("state")
        done = time.perf_counter()
        if state != "done":
            return {"ok": False, "why": f"state {state}", "check": True, "run_id": run_id}
        status, payload = self._call(
            "results", "GET", f"/v1/runs/{run_id}/results?format=json"
        )
        # A non-2xx answer already counts as a failed request; a 200 whose
        # table breaks the laws is a failed check on top of it.
        check = status == 200 and not table_ok(payload)
        return {"ok": status == 200 and not check, "why": f"results {status}",
                "check": check, "run_id": run_id, "submit_to_done_s": done - start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    client = Client(args.url, scenario_documents(args.seed, SUBMITS))
    threads = [threading.Thread(target=client.loop) for _ in range(THREADS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    args.out.write_text(json.dumps({
        "wall_s": wall, "requests": client.requests, "iterations": client.iterations,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
