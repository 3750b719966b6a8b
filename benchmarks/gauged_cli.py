"""Run the qselci CLI as ``python -m qselci.cli`` does, with the speed gauge
sampling inside the process, and save the gauge's samples at exit.

    python3 benchmarks/gauged_cli.py SAMPLES_JSON SUBCOMMAND [ARGS...]

``qselci`` must be importable (PYTHONPATH=src).  SAMPLES_JSON receives the
list of reference times, in seconds, taken while the CLI ran.
"""

import json
import os
import runpy
import sys

from reference import SpeedGauge


def main():
    samples_path = sys.argv[1]
    sys.argv = ["qselci.cli"] + sys.argv[2:]
    sys.path[0] = os.getcwd()  # the search path ``python -m`` gives
    gauge = SpeedGauge()
    try:
        with gauge:
            runpy.run_module("qselci.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(samples_path, "w", encoding="utf-8") as fh:
            json.dump(gauge.samples, fh)


if __name__ == "__main__":
    main()
