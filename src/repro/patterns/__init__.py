"""Derivation patterns: candidates (LCA), matching, driver-side objects."""
from repro.patterns.lca import lca_codes, lca_reference  # noqa: F401
from repro.patterns.matching import count_matches, match_reference  # noqa: F401
from repro.patterns.pattern import (  # noqa: F401
    Pattern,
    disjoint,
    generalizes,
    pattern_matches_derivation,
)
