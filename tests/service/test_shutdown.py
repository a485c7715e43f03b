"""``repro-undervolt serve`` stops on SIGTERM without a word on stderr.

Shutdown cancels every connection handler still running.  A handler whose
client has just closed its keep-alive connection is then waiting for its
own stream to close; if the cancellation escaped from there, asyncio would
print a ``CancelledError`` traceback on the way out.  The test runs the
real command in a subprocess so it sees exactly what an operator sees.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

from repro.runtime.characterization import DieCharacterization, GovernorBundle

SRC = str(Path(__file__).resolve().parents[2] / "src")


def two_die_bundle() -> GovernorBundle:
    bundle = GovernorBundle(source="shutdown-fleet")
    for serial, vmin_v in (("STOP-A", 0.59), ("STOP-B", 0.60)):
        bundle.add(DieCharacterization(
            platform="ZC702", serial=serial, vnom_v=1.0, vmin_v=vmin_v,
            vcrash_v=0.54, itd_v_per_degc=0.0006, ripple_margin_v=0.003,
        ))
    return bundle


def test_sigterm_after_clients_close_exits_cleanly(tmp_path):
    bundle = two_die_bundle().save(tmp_path / "bundle.json")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--bundle", str(bundle),
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        ready = server.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+) ", ready)
        assert match, f"no ready line: {ready!r}"
        clients = [
            http.client.HTTPConnection("127.0.0.1", int(match.group(1)), timeout=10)
            for _ in range(4)
        ]
        for client in clients:  # four keep-alive connections, all open
            client.request("GET", "/healthz")
            assert client.getresponse().read()
        for client in clients:
            client.close()
        server.send_signal(signal.SIGTERM)
        _stdout, stderr = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0
    assert stderr == ""
