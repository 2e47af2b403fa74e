"""Exact graph toughness with verifiable cut certificates.

Library surface: bitmask graphs and exact rationals (``graph``, ``ratio``),
constructors and operators (``operators``), structural invariants
(``invariants``), the toughness engines and certificates (``toughness``),
ready-made certified families (``families``), and graph6 plus enumeration
and stream filtering (``graph6``, ``search``).
"""

from .graph import (
    Graph,
    build_graph,
    degree_profile,
    delete_edge,
    is_connected,
)
from .graph6 import parse_graph6, write_graph6
from .invariants import (
    RotationSystem,
    edge_orbits,
    independence_number,
    is_claw_free,
    verify_embedding,
    vertex_connectivity,
)
from .operators import (
    SolidSpec,
    cartesian_product,
    circulant,
    complete,
    cycle,
    line_graph,
    path,
    solid_expand,
    square,
    subdivision,
)
from .ratio import INFINITE, Ratio
from .toughness import (
    CutCertificate,
    EngineConfig,
    LimitExceeded,
    MinimalityReport,
    ToughnessResult,
    degree_excess_filter,
    find_cut_below,
    is_minimally_tough,
    parse_certificate,
    solid_reduced_toughness,
    toughness_exact,
    toughness_upper_search,
    verify_certificate,
    write_certificate,
)
from .families import (
    LabeledFamily,
    gen_knp2_minus_matching,
    gen_knp3,
    gen_planar_chain,
    gen_square_lsk4,
)
from .search import SearchOptions, enumerate_connected, filter_counterexamples

__version__ = "0.1.0"
