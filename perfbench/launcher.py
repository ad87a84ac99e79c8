"""Run one qosc command line, as the `qosc` entry point would.

    python3 perfbench/launcher.py <qosc arguments>

The cli_io workload starts every CLI command through this file, traced
or not, so that both runs start the same way. With QOSC_BENCH_SPANS set
to a file name, the layer spans of tracer.py are recorded and written to
that file as JSON when the command ends.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from qosc.cli import main as qosc_main

    span_file = os.environ.get("QOSC_BENCH_SPANS")
    if not span_file:
        qosc_main(args=sys.argv[1:], prog_name="qosc")
        return
    from tracer import Recorder

    recorder = Recorder()
    recorder.install()
    try:
        qosc_main(args=sys.argv[1:], prog_name="qosc")
    finally:
        Path(span_file).write_text(json.dumps(recorder.spans), encoding="utf-8")


if __name__ == "__main__":
    main()
