#!/usr/bin/env python3
"""Run every shipped config and print the sha256 of its records.

    python scripts/records_digests.py
    python scripts/records_digests.py --check scripts/records_digests.txt

The lab is imported from the checkout's own `src/`, which the script puts
first on `sys.path`, so no PYTHONPATH is needed. Each config in configs/
runs into its own temporary directory; one line per config,
`<config>  <sha256 of its records CSV>`. Run it on two commits and diff
the output to see whether a change altered any record byte.
A verification suite that reports violations still writes its records,
so its digest is printed with a note. With --check, the digests are
compared with a pinned table in the same format; the script exits 1 if
any config's digest differs from its pinned line or has none, or if the
table pins a name that configs/ does not hold (after a rename, say).
Before its summary line, --check prints a `host:` line: the numpy version,
the SIMD extensions numpy found on this CPU and OPENBLAS_CORETYPE when set,
since some record bits depend on them.
"""
import argparse
import glob
import hashlib
import os
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from etrlab.config import load_config  # noqa: E402
from etrlab.errors import SuiteFailure  # noqa: E402
from etrlab.harness import run_experiment  # noqa: E402


def host_line() -> str:
    """numpy's version and found SIMD extensions, and OPENBLAS_CORETYPE if set."""
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    line = f"host: numpy {np.__version__}, SIMD found {' '.join(found)}"
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    return line + (f", OPENBLAS_CORETYPE={coretype}" if coretype else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="TABLE",
                        help="pinned `<config>  <sha256>` lines to compare against")
    args = parser.parse_args(argv)
    pinned = {}
    if args.check:
        with open(args.check) as fh:
            pinned = dict(line.split() for line in fh if line.strip())
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    mismatches = 0
    for path in configs:
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
        if args.check and pinned.get(path.name) != digest:
            mismatches += 1
            note += f"  MISMATCH, pinned {pinned.get(path.name)}"
        print(f"{path.name}  {digest}{note}", flush=True)
    missing = sorted(pinned.keys() - {path.name for path in configs})
    for name in missing:
        print(f"{name}  MISMATCH, pinned {pinned[name]} but configs/ holds no {name}")
    mismatches += len(missing)
    if args.check:
        print(host_line())
        print(f"{mismatches} of {len(configs) + len(missing)} configs differ from {args.check}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
