"""``serve`` stopped by SIGTERM takes its spawned workers with it.

A plain ``kill`` must end ``python -m repro.service serve --workers N``
the way Ctrl-C does: the server stops the workers it spawned before it
exits.  The server runs in a session of its own, so its process group
holds it and its workers, and nothing else.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro

SRC_DIR = Path(repro.__file__).resolve().parents[1]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_serve_and_its_workers(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    log = tmp_path / "serve.log"
    command = [
        sys.executable, "-m", "repro.service", "serve",
        "--workers", "1", "--port", "0", "--store", str(tmp_path / "store"),
    ]
    with open(log, "w", encoding="utf-8") as out:
        process = subprocess.Popen(
            command, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True
        )
    pgid = process.pid
    try:
        deadline = time.monotonic() + 60.0
        while "serving on" not in log.read_text(encoding="utf-8"):
            assert process.poll() is None, log.read_text(encoding="utf-8")
            assert time.monotonic() < deadline, "serve never started"
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10.0
        process.wait(timeout=10)
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _group_alive(pgid), "a process of serve's group outlived its SIGTERM"
    finally:
        if _group_alive(pgid):
            os.killpg(pgid, signal.SIGKILL)
        process.wait(timeout=30)
