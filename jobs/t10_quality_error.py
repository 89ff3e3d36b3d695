"""T10 (Fig. 10): relative quality-metric error caused by sampling."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import get_spark  # noqa: E402

from repro.core.unify import WHY, WHYNOT  # noqa: E402
from repro.experiments.common import format_rows  # noqa: E402
from repro.experiments.quality_error import run_quality_error  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=5000)
    ap.add_argument("--samples", default="50,100,500")
    ap.add_argument("--ks", default="1,3,5,10")
    ap.add_argument(
        "--unbound-why", action="store_true",
        help="only the all-placeholder r1 why question (results/t10_why_unbound.txt)",
    )
    args = ap.parse_args()
    spark = get_spark("t10_quality_error")
    samples = [int(x) for x in args.samples.split(",")]
    ks = [int(x) for x in args.ks.split(",")]
    if args.unbound_why:
        rows = run_quality_error(
            spark, "r1", WHY, args.size, samples, ks, unbound_why=True
        )
        print(f"\n== T10 r1 why unbound (ref=FULL, {args.size} rows) ==")
        print(format_rows(rows))
        spark.stop()
        return
    rows = run_quality_error(spark, "r1", WHY, args.size, samples, ks)
    print("\n== T10 r1 why (reference: FULL provenance) ==")
    print(format_rows(rows))
    rows = run_quality_error(spark, "r6", WHYNOT, args.size, samples, ks)
    print("\n== T10 r6 why-not (reference: largest sample) ==")
    print(format_rows(rows))
    spark.stop()


if __name__ == "__main__":
    main()
