"""The measured process of one workload run.

Started fresh by ``run.py`` for every measurement, so that import time,
warm-up and peak memory belong to this workload alone::

    python perfbench/worker.py --workload NAME --workdir DIR --seed N \
        --seconds S --mode setup|measure|trace

Its set-up is ``import sympeq`` plus one warm-up pass, timed together; it
then runs a closed loop: one operation at a time, each timed on
its own, until the operations' summed wall time reaches ``--seconds``.
Results are checked between operations, with the clock stopped. The last
line of standard output is one JSON object for ``run.py``.
"""

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    # set-up, part 1: nothing heavier than the standard library is imported
    # before this point, so the import below pays for numpy and scipy too
    start = time.perf_counter()
    importlib.import_module("sympeq.cli" if args.workload == "cli-cold" else "sympeq")
    import_s = time.perf_counter() - start

    import pickle

    import sympeq

    import loop

    with open(args.workdir / "inputs.pkl", "rb") as fh:
        inputs = pickle.load(fh)
    os.chdir(args.workdir)
    runner = loop.Runner(sympeq, args.workload, inputs, args.seed)

    # set-up, part 2: one call of each operation kind and size class
    start = time.perf_counter()
    runner.warm_up()
    setup_s = import_s + time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.mode == "measure":
        result = runner.measure(args.seconds)
    else:
        result = runner.trace(args.seconds, HERE / ".work" / f"trace-{args.workload}.npz")
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
