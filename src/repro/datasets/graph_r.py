"""The running-example graph R of Fig. 3 and its query r_ex."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.ast import Program, parse_rule
from repro.engine.catalog import Catalog

#: r_ex: Q_ex(X, Y) :- R(X, Z), R(Z, Y), X < Y — endpoints of 2-paths.
R_EX = "Qex(X, Y) :- R(X, Z), R(Z, Y), X < Y."


def rex_program() -> Program:
    return Program((parse_rule(R_EX, rule_id="rex"),))


def graph_r(spark: SparkSession) -> dict[str, DataFrame]:
    """The 6-edge instance of Fig. 3 (:func:`rex_catalog` adds its 𝔻).

    Evaluating r_ex yields Q_ex(1,3), Q_ex(1,4), Q_ex(5,6); the answers
    matching the p-tuple Q_ex(X, 4) are (1,4) existing and (2,4), (3,4)
    missing — the numbers used in Examples 4–9.
    """
    edges = pd.DataFrame(
        [(1, 2), (2, 3), (2, 4), (5, 3), (5, 5), (5, 6)],
        columns=["a", "b"],
    )
    return {"R": spark.createDataFrame(edges)}


def rex_catalog(spark: SparkSession) -> Catalog:
    """A catalog over :func:`graph_r` whose two attributes both carry the
    domain 𝔻 = {1,…,6} of Fig. 3 (the active domains are {1, 2, 5} and
    {2,…,6}). Why-not Q_ex(X, 4) then has the 12 derivations of Example 6.
    """
    catalog = Catalog(spark, graph_r(spark))
    domain = spark.createDataFrame(pd.DataFrame({"v": range(1, 7)}))
    for pos in (0, 1):
        catalog.set_domain("R", pos, domain)
    return catalog
