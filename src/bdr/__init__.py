"""Bipartite degree realization toolkit.

Decides whether a degree sequence has a simple bipartite realization in
the tractable parameter regions, constructs witnesses, and builds the
padding instances used by the conditional hardness reduction.
"""

from .core import (DegreeClass, DegreeSequence, ParamBounds, in_class,
                   is_graphic, parse_rational, parse_sequence)
from .decider import (Decision, RegionClass, classify_region, decide_bdr,
                      decide_exact, max_degree_gap, precheck,
                      threshold_at_or_below, threshold_c2)
from .gale_ryser import (BipartiteRealization, balancing_hinge_flip,
                         construct_realization, format_realization, hinge_flip,
                         is_bigraphic)
from .lbds import LbdsShape, lbds, lbds_pair_bigraphic, lbds_shape
from .oracle import (brute_force_bipartite_realizable, exhaustive_graph_search,
                     exhaustive_pair_search)
from .partition import (SplitWitness, balanced_split, enumerate_equal_sum_splits,
                        equal_sum_split_exists, find_equal_sum_split)
from .reduction import (ReductionInstance, RoundTripReport, build_hard_instance,
                        choose_padding_n, compute_rational_r, lift_realization,
                        project_realization, semiregular_bipartite,
                        verify_reduction_roundtrip)

__all__ = [name for name in dir() if not name.startswith("_")]
