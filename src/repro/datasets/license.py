"""Synthetic NYS driver-license dataset for queries r1 (InvalidD) and
r2 (Fsenior) of Fig. 4.

Schema: LICENSE(id, byear, gender, city, ltype, status) + VALID(id).
Cities whose index is divisible by 7 have only valid licenses, so those
cities are *missing* answers of InvalidD — the why-not questions of
Fig. 5 (e.g. 'swanton') map to ``city_7``-style cities here.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.ast import Program, parse_rule

R1_LICENSE = "InvalidD(C) :- LICENSE(I, B, G, C, T, S), not VALID(I)."
R2_LICENSE = "Fsenior(C) :- LICENSE(I, B, 'f', C, T, S), VALID(I), B < 1953."


def r1_program() -> Program:
    return Program((parse_rule(R1_LICENSE, rule_id="r1"),))


def r2_program() -> Program:
    return Program((parse_rule(R2_LICENSE, rule_id="r2"),))


def license_db(
    spark: SparkSession, n: int = 10_000, n_cities: int = 40, seed: int = 0
) -> dict[str, DataFrame]:
    """Generate LICENSE with ``n`` rows and VALID covering ~70% of ids
    (100% inside every 7th city, which therefore never has invalid
    licenses and is a missing InvalidD answer)."""
    g = np.random.default_rng(seed)
    cities = np.array([f"city_{i}" for i in range(n_cities)])
    city_idx = g.integers(0, n_cities, n)
    license_pdf = pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "byear": g.integers(1920, 2001, n),
            "gender": g.choice(["f", "m", "x"], n, p=[0.48, 0.48, 0.04]),
            "city": cities[city_idx],
            "ltype": g.choice(["class_a", "class_b", "class_c", "class_d"], n),
            "status": g.choice(["active", "expired", "suspended"], n),
        }
    )
    valid_mask = g.random(n) < 0.7
    valid_mask |= city_idx % 7 == 0  # all-valid cities → missing InvalidD answers
    valid_pdf = pd.DataFrame({"id": license_pdf.loc[valid_mask, "id"]})
    return {
        "LICENSE": spark.createDataFrame(license_pdf),
        "VALID": spark.createDataFrame(valid_pdf),
    }


def existing_city(db: dict[str, DataFrame]) -> str:
    """Some city present in the InvalidD answers (for why questions)."""
    row = (
        db["LICENSE"]
        .join(db["VALID"], on="id", how="left_anti")
        .select("city")
        .limit(1)
        .collect()
    )
    if not row:
        raise ValueError("no invalid licenses in this instance")
    return row[0]["city"]
