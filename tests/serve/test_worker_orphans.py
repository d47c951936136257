"""A worker process must not outlive its gateway.

``repro serve`` forks its workers.  When the gateway dies without a
shutdown (SIGKILL), every worker must notice and exit on its own.
"""

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc") or not hasattr(signal, "SIGKILL"),
    reason="needs /proc and POSIX signals",
)


def _running(pid: int) -> bool:
    """Alive and not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_workers_exit_when_gateway_is_killed():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    gateway = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    lines: "queue.Queue[str]" = queue.Queue()

    def pump():
        with gateway.stdout:  # EOF once the gateway and its workers are gone
            for line in gateway.stdout:
                lines.put(line)

    threading.Thread(target=pump, daemon=True).start()
    pids = []
    try:
        url = None
        deadline = time.monotonic() + 60.0
        while url is None and time.monotonic() < deadline:
            try:
                line = lines.get(timeout=1.0)
            except queue.Empty:
                continue
            if "listening on" in line:
                url = line.split("listening on ", 1)[1].split()[0]
        assert url, "gateway did not start"
        with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
            workers = json.load(resp)["workers"]
        pids = [w["pid"] for w in workers.values()]
        assert len(pids) == 2 and all(_running(p) for p in pids)

        gateway.send_signal(signal.SIGKILL)
        gateway.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(_running(p) for p in pids):
            time.sleep(0.1)
        assert not [p for p in pids if _running(p)], "orphaned workers"
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait(timeout=10)
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
