"""One benchmark worker process: import the program, then run a workload.

Started by run.py in a fresh interpreter with the numeric thread pools
pinned.  It imports ``curveforge.cli`` and nothing else of its own before
printing ``READY`` (the parent times that as set-up), so set-up time is the
program's alone.  Then it loads the benchmark's modules, runs the workload
(session.py) and prints one ``RESULT <json>`` line.  With ``--probe`` it
exits after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true",
                        help="import the program, report readiness and exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)

    import curveforge.cli

    source = Path(curveforge.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"curveforge was imported from {source}, not from {ROOT / 'src'}")
    print("READY", flush=True)
    if args.probe:
        return 0

    import session

    result = session.run(curveforge.cli, args.workload, args.seed, args.seconds,
                         bool(args.trace), args.workdir)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
