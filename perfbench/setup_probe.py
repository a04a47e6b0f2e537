"""Time one cold workload set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

The clock starts before the package is imported, so the figure covers
imports, data load or synthesis, make_windows and the model build. The
benchmark's own data generation has already written its CSV into workdir and
is not counted.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.make_workload(name, seed, workdir).setup()
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
