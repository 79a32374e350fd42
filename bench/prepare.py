"""One benchmark set-up: import fdl, write the inputs, warm up.

    PYTHONPATH=src python3 bench/prepare.py --workload W --seed N --out DIR

``run.py`` starts this script several times per run and reports the
median wall time, from process start to exit, as ``setup_s``.  The
warm-up is one call of the round's first operation.
"""

import argparse
import io

import fdl.cli

import inputs


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    manifest = inputs.build(args.workload, args.seed, args.out)
    fdl.cli.main(manifest["ops"][0]["argv"], out=io.StringIO(), err=io.StringIO())


if __name__ == "__main__":
    main()
