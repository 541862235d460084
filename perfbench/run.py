"""End-to-end observatory benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload acquisition --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics and writes a Chrome trace and a self-time table to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and settings.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("acquisition", "archive", "catalog_serving")

#: Every REPRO_* knob is pinned: workers 1 (the archive workload passes
#: 2 to its worker pool itself), WAL fsync on sync/checkpoint/close only,
#: and everything else (kernels, obs, quantum, faults) at its default.
PINNED_ENV = {
    "REPRO_WORKERS": "1",
    "REPRO_WAL_SYNC": "batch",
}


def pin_environment() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)
    import harness

    module = importlib.import_module(args.workload)
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = harness.run(
            module.Workload, args.seed, args.seconds, bool(args.trace),
            workdir, T_START, os.path.join(HERE, "out"), args.workload,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
