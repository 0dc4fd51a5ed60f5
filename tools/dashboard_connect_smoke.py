#!/usr/bin/env python3
"""Smoke test for campaign_dashboard's remote view.

Starts p2sim_monitord on an ephemeral port (one-day, eight-node campaigns
back to back until told to quit), runs ``campaign_dashboard --connect``
against it, expects exit 0 and both ``== /healthz ==`` and
``== /api/days ==`` sections, then shuts the daemon down through
``/quitquitquit``.

Usage:  python3 tools/dashboard_connect_smoke.py <p2sim_monitord> <campaign_dashboard>
Exit status 0 when every check holds, 1 with a message otherwise.
"""

from __future__ import annotations

import http.client
import pathlib
import subprocess
import sys
import tempfile
import time


def wait_for_port(port_file: pathlib.Path, daemon: subprocess.Popen) -> int:
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            raise RuntimeError(f"p2sim_monitord exited early ({daemon.returncode})")
        text = port_file.read_text() if port_file.exists() else ""
        if text.endswith("\n"):
            return int(text)
        time.sleep(0.05)
    raise RuntimeError("p2sim_monitord never wrote its port file")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    monitord, dashboard = argv[1], argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        port_file = pathlib.Path(tmp) / "port"
        daemon = subprocess.Popen(
            [monitord, "--campaigns", "0", "--port", "0",
             "--port-file", str(port_file), "--days", "1", "--nodes", "8",
             "--quiet"])
        errors = []
        try:
            port = wait_for_port(port_file, daemon)
            got = subprocess.run([dashboard, "--connect", f"127.0.0.1:{port}"],
                                 capture_output=True, text=True, timeout=30)
            if got.returncode != 0:
                errors.append(f"campaign_dashboard exited {got.returncode}: "
                              f"{got.stderr.strip()}")
            for header in ("== /healthz ==", "== /api/days =="):
                if header not in got.stdout:
                    errors.append(f"no '{header}' in the dashboard output")
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/quitquitquit")
            if conn.getresponse().status != 200:
                errors.append("/quitquitquit did not answer 200")
            conn.close()
            if daemon.wait(timeout=30) != 0:
                errors.append(f"p2sim_monitord exited {daemon.returncode}")
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
            errors.append(str(e))
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    for e in errors:
        print(f"dashboard_connect_smoke: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
