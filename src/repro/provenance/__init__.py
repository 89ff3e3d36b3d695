"""Provenance capture: annotated derivations for why and why-not questions."""
from repro.provenance.annotate import annotate_select, goal_column_names  # noqa: F401
from repro.provenance.why import sample_why  # noqa: F401
from repro.provenance.whynot_full import (  # noqa: F401
    all_valuations,
    full_select,
    whynot_full,
    whynot_select,
)
