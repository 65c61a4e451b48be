"""CI smoke test for worker-pool serving: boot, load, kill, restart, stop.

Exercises the full ``repro serve --workers N`` lifecycle against a real
subprocess the way an operator would run it:

1. start ``repro serve --workers 2 --demo`` on an ephemeral port and
   parse the supervisor's published ports and worker pids from its
   output (the satellite contract: worker mode prints what it actually
   bound, so ``--port 0`` is scriptable);
2. drive solve requests over several connections (the kernel spreads
   them across both SO_REUSEPORT listeners);
3. SIGKILL one worker, wait for the supervisor to restart it, and prove
   service continued: fresh requests still answer and the aggregated
   ``/metrics`` endpoint reports ``serve.workers.restarts`` = 1;
4. send a ``shutdown`` op (it lands on whichever worker the kernel
   picks; a clean worker exit stops the whole pool) and wait for a
   clean supervisor exit;
5. check the merged solver-cache snapshot the rolling shutdown wrote.

Usage::

    python benchmarks/smoke_serve_workers.py [--workers 2] [--requests 60]

Exit status: 0 on pass, 1 on any failed step (with a diagnostic tail of
the daemon's output).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request

from repro.core.solver_cache import SNAPSHOT_SCHEMA

BOOT_TIMEOUT_S = 90.0
STEP_TIMEOUT_S = 30.0


def _fail(message: str, log_path: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    try:
        with open(log_path) as fh:
            tail = fh.read()[-4000:]
        print(f"--- daemon output tail ---\n{tail}", file=sys.stderr)
    except OSError:
        pass
    return 1


def _wait_for(log_path: str, pattern: str, deadline: float) -> re.Match[str] | None:
    """Poll the daemon's combined output for a regex until ``deadline``."""
    compiled = re.compile(pattern)
    while time.monotonic() < deadline:
        try:
            with open(log_path) as fh:
                match = compiled.search(fh.read())
        except OSError:
            match = None
        if match is not None:
            return match
        time.sleep(0.1)
    return None


def _request(port: int, payload: dict) -> dict:
    """One JSON-lines request over a fresh connection (each connection
    may land on a different worker)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode())
        line = sock.makefile().readline()
    return json.loads(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=60)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="smoke-serve-workers-")
    snapshot = os.path.join(workdir, "merged.snapshot.json")
    log_path = os.path.join(workdir, "daemon.log")
    log = open(log_path, "w")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--workers",
            str(args.workers),
            "--demo",
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--snapshot",
            snapshot,
            "--snapshot-interval",
            "1",
            "--merge-interval",
            "2",
        ],
        stdout=log,
        stderr=log,
    )
    try:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        listening = _wait_for(
            log_path, r"(\d+) workers listening on 127\.0\.0\.1:(\d+)", deadline
        )
        if listening is None:
            return _fail("pool never published its data port", log_path)
        port = int(listening.group(2))
        metrics = _wait_for(
            log_path, r"metrics on http://127\.0\.0\.1:(\d+)/metrics", deadline
        )
        if metrics is None:
            return _fail("pool never published its metrics port", log_path)
        metrics_port = int(metrics.group(1))
        with open(log_path) as fh:
            pids = [int(p) for p in re.findall(r"worker \d+ ready: pid (\d+)", fh.read())]
        if len(pids) != args.workers:
            return _fail(f"expected {args.workers} worker pids, saw {pids}", log_path)
        print(f"pool up: port {port}, metrics {metrics_port}, workers {pids}")

        # phase 2: load across many connections
        for i in range(args.requests):
            response = _request(
                port, {"op": "solve", "id": i, "pool": "campus-exp", "age": 50.0 * i}
            )
            if not response.get("ok"):
                return _fail(f"solve {i} failed: {response!r}", log_path)
        print(f"{args.requests} solves answered")

        # phase 3: kill one worker, require restart + continued service
        os.kill(pids[0], signal.SIGKILL)
        restarted = _wait_for(
            log_path,
            r"worker \d+ died \(exit -?\d+\); restarting",
            time.monotonic() + STEP_TIMEOUT_S,
        )
        if restarted is None:
            return _fail("supervisor never noticed the killed worker", log_path)
        step_deadline = time.monotonic() + STEP_TIMEOUT_S
        replaced = False
        while time.monotonic() < step_deadline:
            with open(log_path) as fh:
                ready = re.findall(r"worker \d+ ready: pid (\d+)", fh.read())
            if len(ready) >= args.workers + 1:
                replaced = True
                break
            time.sleep(0.1)
        if not replaced:
            return _fail("killed worker was never replaced", log_path)
        for i in range(args.requests):
            response = _request(
                port,
                {"op": "solve", "id": f"post-{i}", "pool": "campus-weibull", "age": 25.0 * i},
            )
            if not response.get("ok"):
                return _fail(f"post-restart solve {i} failed: {response!r}", log_path)
        scrape = urllib.request.urlopen(
            f"http://127.0.0.1:{metrics_port}/metrics", timeout=10.0
        ).read().decode()
        if "repro_serve_workers_restarts_total 1" not in scrape:
            return _fail(
                "aggregated /metrics does not report the restart "
                "(want repro_serve_workers_restarts_total 1)",
                log_path,
            )
        print("worker killed, restarted, service continued, restart counted")

        # phase 4: shutdown op -> clean pool-wide stop
        response = _request(port, {"op": "shutdown", "id": "smoke-end"})
        if not response.get("ok"):
            return _fail(f"shutdown op failed: {response!r}", log_path)
        try:
            code = daemon.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return _fail("supervisor did not exit after shutdown", log_path)
        if code != 0:
            return _fail(f"supervisor exited with code {code}", log_path)

        # phase 5: the rolling shutdown merged the per-worker snapshots
        if not os.path.exists(snapshot):
            return _fail("merged snapshot missing after shutdown", log_path)
        with open(snapshot) as fh:
            merged = json.load(fh)
        if merged.get("schema") != SNAPSHOT_SCHEMA:
            return _fail(f"merged snapshot has schema {merged.get('schema')!r}", log_path)
        if not merged.get("entries"):
            return _fail("merged snapshot holds no entries", log_path)
        print(
            f"clean shutdown; merged snapshot holds {len(merged['entries'])} entries"
        )
        print("smoke_serve_workers: PASS")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                daemon.kill()
        log.close()


if __name__ == "__main__":
    raise SystemExit(main())
