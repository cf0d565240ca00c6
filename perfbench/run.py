#!/usr/bin/env python3
"""End-to-end benchmark of `xlpack all` over generated workloads.

One workload, one seed (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload wiki-desk --seed 7 --seconds 30 --trace 0

Every workload at its default seed, with a table of every metric:

    python3 perfbench/run.py --all [--trace 1] [--size smoke]

With --trace 0 the pipeline runs untraced, back to back, until --seconds is
used up, and the end-to-end metrics are medians over those runs. With
--trace 1 one traced run, one stage-by-stage run and a pack pool comparison
give the per-layer metrics. Every run's outputs are checked. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. The exit
code is 1 when any check fails, 2 when the program's sources are missing.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "xlpack" / "cli.py").is_file():
        print(f"xlpack sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(doc=__doc__)


if __name__ == "__main__":
    sys.exit(main())
