"""Traffic for the serve workloads: request bodies, schedules, load loops.

All load comes from this process: at most two threads, each holding one
keep-alive HTTP connection, so the client never competes with the
server for more than the cores a two-core host has. Request bodies and
the open-loop schedule are pure functions of the seed.

The traffic is the repository's load test, ``tools/loadtest.py``: its
request generators, and the query mix and day/night rate curve of its
diurnal replay.

* :func:`closed_loop` — each connection sends its next request when the
  previous answer arrives (callers that wait for a reply).
* :func:`open_loop` — requests go out on a precomputed schedule
  (independent users). Latency is timed from each request's due time,
  so a stall also charges the requests queued behind it, and sends made
  more than :data:`LATE_S` after their due time are counted as late.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from loadtest import diurnal_rate, make_grid_query, make_point_query  # noqa: E402

#: The diurnal replay's share of ``/v1/grid`` requests; the rest are
#: ``/v1/query``, half of them from a finite pool of revisited points.
GRID_SHARE = 0.1
#: ``loadtest.py --peak-rps`` default: the rate at the busiest moment.
PEAK_RPS = 150.0

#: A send this long after its due time counts as late.
LATE_S = 0.001

#: Keys every 200 response of an endpoint carries.
RESPONSE_KEYS: Dict[str, frozenset] = {
    "/v1/query": frozenset(
        {"ok", "card", "operating_point", "metrics", "wire", "warnings", "deadline"}
    ),
    "/v1/grid": frozenset({"card", "n", "points", "metrics", "warnings", "deadline"}),
}

Request = Tuple[float, str, Dict]  # (due time from start in s, path, body)


def open_loop_schedule(seed: int, peak_rps: float, duration_s: float) -> List[Request]:
    """The diurnal replay of ``tools/loadtest.py`` as independent users.

    The rate follows :func:`loadtest.diurnal_rate` (a day/night curve
    compressed into ``duration_s``, peaking at ``peak_rps``); arrivals are
    a Poisson process with that rate, drawn by thinning a ``peak_rps``
    Poisson stream.
    """
    rng = random.Random(f"serve_mixed/{seed}")
    schedule: List[Request] = []
    t = rng.expovariate(peak_rps)
    while t < duration_s:
        if rng.random() * peak_rps < diurnal_rate(t, duration_s, peak_rps):
            if rng.random() < GRID_SHARE:
                schedule.append((t, "/v1/grid", make_grid_query(rng)))
            else:
                body = make_point_query(rng, fresh=rng.random() < 0.5)
                schedule.append((t, "/v1/query", body))
        t += rng.expovariate(peak_rps)
    return schedule


# -- the client ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one load loop saw."""

    latencies_s: List[float] = field(default_factory=list)
    by_path: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    late: int = 0
    errors: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def record(self, path: str, latency_s: float, error: Optional[str]) -> None:
        self.attempted += 1
        if error is None:
            self.latencies_s.append(latency_s)
            self.by_path.setdefault(path, []).append(latency_s)
        else:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{path}: {error}")


def check_response(path: str, status: int, body: object) -> Optional[str]:
    """``None`` if a response is a well-formed 200 for ``path``."""
    if status != 200:
        return f"status {status}: {body}"
    if not isinstance(body, dict):
        return "body is not a JSON object"
    missing = RESPONSE_KEYS[path] - set(body)
    if missing:
        return f"missing keys {sorted(missing)}"
    if path == "/v1/query" and body["ok"] is not True:
        return f"not ok: {body}"
    return None


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: Optional[Dict] = None) -> Tuple[int, object]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            raise
        try:
            return response.status, json.loads(data)
        except ValueError:
            return response.status, data

    def post(self, path: str, body: Dict) -> Tuple[int, object]:
        return self.request("POST", path, body)

    def get(self, path: str) -> Tuple[int, object]:
        return self.request("GET", path)

    def close(self) -> None:
        self.conn.close()


def _send(client: Client, path: str, body: Dict) -> Optional[str]:
    try:
        status, payload = client.post(path, body)
    except (http.client.HTTPException, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return check_response(path, status, payload)


def closed_loop(port: int, seconds: float, tag: str, connections: int = 2) -> Outcome:
    """Each connection posts a fresh ``/v1/query`` as soon as the last
    returns; connection ``i`` draws its points from ``Random(f"{tag}/{i}")``."""
    outcome = Outcome()
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def worker(index: int) -> None:
        rng = random.Random(f"{tag}/{index}")
        client = Client(port)
        try:
            while time.perf_counter() < stop_at:
                body = make_point_query(rng, fresh=True)
                t0 = time.perf_counter()
                error = _send(client, "/v1/query", body)
                elapsed = time.perf_counter() - t0
                with lock:
                    outcome.record("/v1/query", elapsed, error)
        finally:
            client.close()

    _run_threads(worker, connections)
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


def open_loop(port: int, schedule: Sequence[Request], connections: int = 2) -> Outcome:
    """Send ``schedule`` on time over ``connections`` connections."""
    outcome = Outcome()
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    start = time.perf_counter()

    def worker(index: int) -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due_in, path, body = schedule[i]
                due = start + due_in
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late = time.perf_counter() - due > LATE_S
                error = _send(client, path, body)
                elapsed = time.perf_counter() - due
                with lock:
                    outcome.late += late
                    outcome.record(path, elapsed, error)
        finally:
            client.close()

    _run_threads(worker, connections)
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


def _run_threads(worker: Callable[[int], None], n: int) -> None:
    threads = [
        threading.Thread(target=worker, args=(i,), name=f"e2e-load-{i}")
        for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
