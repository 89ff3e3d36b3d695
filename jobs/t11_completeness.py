"""T11 (Fig. 11): summary completeness vs k for why and why-not."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import get_spark  # noqa: E402

from repro.core.unify import WHY, WHYNOT  # noqa: E402
from repro.experiments.common import format_rows  # noqa: E402
from repro.experiments.completeness import run_completeness  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--queries", default="r1,r2,r3,r5,r6")
    ap.add_argument("--size", type=int, default=5000)
    ap.add_argument("--ks", default="1,3,5,10")
    ap.add_argument("--n-s", type=int, default=500)
    args = ap.parse_args()
    spark = get_spark("t11_completeness")
    queries = args.queries.split(",")
    ks = [int(x) for x in args.ks.split(",")]
    for qtype in (WHY, WHYNOT):
        rows = run_completeness(
            spark, queries, qtype, args.size, ks, n_s=args.n_s
        )
        print(f"\n== T11 completeness ({qtype}) ==")
        print(format_rows(rows))
    spark.stop()


if __name__ == "__main__":
    main()
