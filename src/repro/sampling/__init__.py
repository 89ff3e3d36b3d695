"""Sampling why-not provenance without materializing it (Sec. 5)."""
from repro.sampling.ops import canonical_sort, sample_with_replacement  # noqa: F401
from repro.sampling.oversample import (  # noqa: F401
    binom_sf,
    comparison_selectivity,
    min_oversample_size,
    p_prov_estimate,
)
from repro.sampling.whynot import RuleSample, sample_whynot, sample_whynot_rule  # noqa: F401
