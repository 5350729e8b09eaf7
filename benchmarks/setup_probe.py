"""Set-up of one benchmark run, timed from outside by `run.py`.

A fresh interpreter imports `causaldp.cli`, builds its argument parser and
writes the workload's seeded input files:

    python3 benchmarks/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import causaldp.cli  # noqa: E402

import inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    causaldp.cli.build_parser()
    inputs.write_files(inputs.build(workload, seed, workdir), workdir)
