#!/usr/bin/env python3
"""Print the sha256 of the records of every shipped config.

    PYTHONPATH=src python scripts/records_digests.py

Each config in configs/ runs into its own temporary directory; one line
per config, `<config>  <sha256 of its records CSV>`. Run it on two commits
and diff the output to see whether a change altered any record byte.
A verification suite that reports violations still writes its records,
so its digest is printed with a note.
"""
import glob
import hashlib
import os
import pathlib
import sys
import tempfile

from etrlab.config import load_config
from etrlab.errors import SuiteFailure
from etrlab.harness import run_experiment


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(root.glob("*.cfg")):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = load_config(path)
            cfg.output_dir = tmp
            note = ""
            try:
                run_experiment(cfg)
            except SuiteFailure:
                note = "  (suite reported violations)"
            (records,) = glob.glob(os.path.join(tmp, "*_records.csv"))
            with open(records, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        print(f"{path.name}  {digest}{note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
