"""A real ``repro serve`` subprocess under closed-loop load.

:class:`Server` starts ``python -m repro serve --workers 2`` with a cache
directory the caller makes fresh, so no request can be answered from
state an earlier run left behind, and stops it together with its
workers.  :func:`closed_loop` drives it with :data:`CLIENTS` clients;
each stands for a synthesis user who submits one request over its
kept-alive connection and waits for the answer before submitting the
next.  :meth:`Server.snapshot` reads the ``/metrics`` and ``/healthz``
counters whose differences are the serve-tier layer metrics.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import http.client
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

#: Closed-loop clients (= workers = cores of the reference machine).
CLIENTS = 2
WORKERS = 2

#: Seconds to wait for the server to print its address.
START_TIMEOUT = 90.0
#: Per-request client timeout, seconds.
REQUEST_TIMEOUT = 120.0


class ServerError(RuntimeError):
    """The server did not start."""


class Server:
    """A ``repro serve`` subprocess with its own cache directory."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "cache")
        self.log_path = os.path.join(workdir, "serve.log")
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self) -> "Server":
        os.makedirs(self.workdir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        cmd = [sys.executable, "-m", "repro", "serve", "--workers", str(WORKERS),
               "--port", "0", "--cache-dir", self.cache_dir]
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        deadline = started + START_TIMEOUT
        while time.perf_counter() < deadline:
            with open(self.log_path) as fh:
                for line in fh:
                    if "listening on " in line:
                        self.url = line.split("listening on ", 1)[1].split()[0]
                        return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise ServerError(f"repro serve did not start; log:\n{self._log_tail()}")

    def _log_tail(self) -> str:
        try:
            with open(self.log_path) as fh:
                return "".join(fh.readlines()[-20:])
        except OSError:
            return ""

    def pids(self) -> List[int]:
        """The server and the processes it started (its workers)."""
        if self.proc is None:
            return []
        pids = [self.proc.pid]
        children = f"/proc/{self.proc.pid}/task/{self.proc.pid}/children"
        try:
            with open(children) as fh:
                pids += [int(p) for p in fh.read().split()]
        except OSError:
            pass
        return pids

    def stop(self) -> None:
        """SIGTERM (the server drains its workers), SIGKILL if it hangs;
        returns once the server and every worker it started are gone."""
        proc = self.proc
        if proc is None:
            return
        workers = {pid: _cmdline(pid) for pid in self.pids()[1:]}
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)
        for pid, cmdline in workers.items():
            _await_exit(pid, cmdline)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- HTTP ---------------------------------------------------------
    def get(self, path: str) -> Dict[str, Any]:
        with urllib.request.urlopen(self.url + path, timeout=REQUEST_TIMEOUT) as resp:
            return json.loads(resp.read())

    def snapshot(self) -> Dict[str, Any]:
        """The counters the per-layer metrics difference."""
        metrics = self.get("/metrics")
        health = self.get("/healthz")
        counters = metrics["gateway"].get("counters", {})
        snap = {
            "lru_hits": metrics["cache"]["hits"],
            "lru_misses": metrics["cache"]["misses"],
            "dispatched": counters.get("requests_dispatched", 0),
            "coalesced": counters.get("requests_coalesced", 0),
            "rejected": sum(counters.get(k, 0) for k in (
                "requests_rate_limited", "requests_overloaded", "requests_shed")),
            "appends": (metrics.get("journal") or {}).get("appends", 0),
            "fsyncs": (metrics.get("journal") or {}).get("fsyncs", 0),
            "disk_hits": 0, "disk_misses": 0, "service_hits": 0, "service_misses": 0,
        }
        for worker in health["workers"].values():
            disk = worker.get("disk_cache") or {}
            snap["disk_hits"] += disk.get("hits", 0)
            snap["disk_misses"] += disk.get("misses", 0)
            cache = (worker.get("engine") or {}).get("cache") or {}
            snap["service_hits"] += cache.get("hits", 0)
            snap["service_misses"] += cache.get("misses", 0)
        return snap


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _await_exit(pid: int, cmdline: bytes, timeout: float = 10.0) -> None:
    """Wait for a worker the server should have stopped; kill it if it
    outlives the server.  The command line guards against a reused pid."""
    deadline = time.monotonic() + timeout
    while _cmdline(pid) == cmdline and cmdline:
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


class Client:
    """One user's persistent (keep-alive) HTTP connection."""

    def __init__(self, url: str) -> None:
        parsed = urllib.parse.urlsplit(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def post(self, body: bytes) -> Tuple[int, bytes, float]:
        """(HTTP status, response body, latency in seconds); status 0 when
        the request could not be sent or answered."""
        start = time.perf_counter()
        # A kept-alive connection the server has since closed fails before
        # the request is read, so one retry on a fresh connection is safe.
        for attempt in range(2):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port,
                                                       timeout=REQUEST_TIMEOUT)
            start = time.perf_counter()
            try:
                self.conn.request("POST", "/v1/factor", body,
                                  {"Content-Type": "application/json"})
                resp = self.conn.getresponse()
                raw = resp.read()
            except (http.client.HTTPException, OSError):
                self.close()
                continue
            latency = time.perf_counter() - start
            if resp.will_close:
                self.close()
            return resp.status, raw, latency
        return 0, b"", time.perf_counter() - start


def closed_loop(url: str, bodies: List[bytes], rounds: int) -> Tuple[List[Dict[str, Any]], float]:
    """Run :data:`CLIENTS` closed-loop clients until every body has been
    sent *rounds* times.  Returns one record per request (body index,
    status, parsed response document or None, latency) and the phase's
    wall time.  Responses are parsed after the phase, so the clients
    spend the timed phase on requests only.
    """
    order: "queue.Queue[int]" = queue.Queue()
    for _ in range(rounds):
        for i in range(len(bodies)):
            order.put(i)
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()

    def client() -> None:
        conn = Client(url)
        try:
            while True:
                try:
                    i = order.get_nowait()
                except queue.Empty:
                    return
                status, raw, latency = conn.post(bodies[i])
                with lock:
                    records.append({"index": i, "status": status, "doc": raw,
                                    "latency_s": latency})
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=client, name=f"client-{k}") for k in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    for rec in records:
        try:
            rec["doc"] = json.loads(rec["doc"])
        except ValueError:
            rec["doc"] = None
    return records, wall


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    return {k: after[k] - before.get(k, 0) for k in after}
