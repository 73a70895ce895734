"""compmap benchmark: three closed-loop workloads, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {trace,raster,cli} --seed N \
        --seconds S --trace {0,1}

The library is imported from the checkout's src/ and nothing is installed.
Each workload issues one call at a time (closed loop, workers=1): a
discarded warm-up pass, then whole passes over its inputs until S seconds
have gone by. Outputs are checked outside the timed region (oracles.py).
With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a separate traced run (spans.py).
Scratch files, CLI outputs and the span dump go to .bench_build/perfbench/.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """Import compmap from this checkout's src/, never from elsewhere."""
    if not (SRC / "compmap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no compmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import compmap
    if Path(compmap.__file__).resolve().parent != SRC / "compmap":
        raise SystemExit(f"perfbench: imported compmap from {compmap.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("trace", "raster", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_library()
    import harness
    harness.WORK.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import layers
        attempted, failed, problems, metrics = layers.run_traced(
            args.workload, args.seed)
    else:
        attempted, failed, problems, metrics = harness.run_plain(
            args.workload, args.seed, args.seconds)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"correct": not failed and not problems,
                      "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
