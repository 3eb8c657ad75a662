"""One cold set-up, run by run.py in a fresh process:

    python3 bench/coldstart.py WORKLOAD SEED DIRECTORY

Times, from before the first import, importing chainlogic (and its CLI)
from this checkout's src/ and writing the workload's seeded inputs into
DIRECTORY. Prints one JSON line: the start (perf_counter, which is
system-wide on Linux), the seconds and the digest of the input files.
Exits 2 if chainlogic cannot be imported from src/.
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402  (already loaded by the interpreter)
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main() -> int:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path[:0] = [SRC, BENCH_DIR]
    try:
        import chainlogic
        import chainlogic.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import chainlogic from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(chainlogic.__file__).startswith(SRC + os.sep):
        print(f"chainlogic was imported from {chainlogic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import random

    import workloads

    workloads.write_inputs(workload, random.Random(seed), directory)
    seconds = perf_counter() - START
    import json

    print(json.dumps({"start": START, "seconds": seconds, "digest": workloads.digest_inputs(directory)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
