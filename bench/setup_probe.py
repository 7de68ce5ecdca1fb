"""Set-up probe: a fresh interpreter imports the lab, builds one workload's
config and prints "ready"; the parent times it from spawn to that line.

    python3 bench/setup_probe.py <workload> <seed> <output_dir>
    python3 bench/setup_probe.py reference

The `reference` probe takes the same path but only imports numpy, the
lab's one dependency. The parent times both, in pairs, and reports the
lab's set-up relative to the reference's.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1] == "reference":
        import numpy  # noqa: F401
    else:
        import etrlab.harness  # noqa: F401  everything run_experiment needs
        from workloads import build_config

        workload, seed, output_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
        build_config(ROOT, workload, seed, output_dir)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
