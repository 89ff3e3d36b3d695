"""The sampling operator SAMPLE_n of Sec. 5.2, drawn on the driver.

The paper extends relational algebra with ``SAMPLE_n`` (uniform with
replacement) and ``#_A`` (row ids, to zip per-variable samples into
bindings) because its sample lives in the DBMS. Ours is collected to
the driver anyway, and the inputs of ``SAMPLE_n`` are variable domains,
which are small distinct value sets. So each domain is collected and
sorted canonically once per catalog (``Catalog.domain_values``) and
sampled here with a seeded ``numpy.random.Generator``: pick i of every
variable is the i-th draw, so zipping the per-variable picks by
position is Q_bind, with no row-id operator and no dependence on how
Spark partitions the data.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def sample_with_replacement(
    values: Sequence, n: int, rng: np.random.Generator
) -> np.ndarray:
    """SAMPLE_n: ``n`` uniform-with-replacement picks from ``values``.

    Returns an object array whose i-th entry is the i-th pick. Raises on
    an empty domain (nothing to sample) and on ``n ≤ 0``.
    """
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    if len(values) == 0:
        raise ValueError("cannot sample from an empty domain")
    return np.asarray(values, dtype=object)[rng.integers(0, len(values), size=n)]
