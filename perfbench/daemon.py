"""``repro serve`` with the layer wrappers installed, for traced runs.

    python perfbench/daemon.py OUT_DIR -- <repro serve arguments>

Runs the daemon exactly as ``python -m repro serve`` does, after
wrapping the layer entry points (see ``layers.py``).  On each
``SIGUSR1`` it writes the wrappers' totals so far to
``OUT_DIR/layers-<n>.json`` (``n`` counts from 0), so a client can take
deltas over a phase.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import repro.serve.batcher  # noqa: E402,F401  (binds the solve entry points)
from repro.serve.cli import serve_main  # noqa: E402

from layers import LayerTracer  # noqa: E402


def main() -> int:
    out_dir = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: daemon.py OUT_DIR -- <serve arguments>")
    tracer = LayerTracer()
    tracer.install()
    dumps = [0]

    def dump(_signum: int, _frame: object) -> None:
        path = os.path.join(out_dir, f"layers-{dumps[0]}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump({"self_s": tracer.self_s, "calls": tracer.calls}, fh)
        os.replace(path + ".tmp", path)
        dumps[0] += 1

    signal.signal(signal.SIGUSR1, dump)
    return serve_main(sys.argv[3:])


if __name__ == "__main__":
    raise SystemExit(main())
