"""Edge connectivity and minimum-cut structure of direct (tensor) products."""

__version__ = "0.1.0"  # defined before the imports: harness reports it

from .catalog import all_graphs, canonical_key, connected_graphs, is_isomorphic
from .dense import (
    Branch,
    CutClass,
    CutClassificationError,
    CutVerdict,
    ExcludedCaseError,
    FormulaResult,
    classify_min_cut,
    dense_precondition,
    exceptional_cut,
    exceptional_member,
    is_exceptional_member,
    is_super_edge_connected_kn,
    kappa_formula,
    kappa_formula_kn,
)
from .graph6 import Graph6Error, emit_graph6, load_graph6_file, parse_graph6, read_graph6
from .graphs import (
    Edge,
    Graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge,
    empty_graph,
    join,
    matching_graph,
    path_graph,
    remove_edges,
)
from .harness import (
    CHECK_NAMES,
    CampaignConfig,
    VerificationReport,
    load_config,
    parse_config,
    replay_certificate,
    run_campaign,
    run_check,
    write_csv,
    write_jsonl,
)
from .mincut import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CutEnumeration,
    MinCutResult,
    edge_connectivity,
    edge_connectivity_subset,
    enumerate_min_cuts,
    enumerate_min_cuts_subset,
    format_cut,
    is_vertex_star,
    min_st_cut,
)
from .product import (
    ProductVertex,
    direct_product,
    fiber,
    fibers_contained,
    format_product_cut,
    induced_cut,
    lifted_edges,
    parse_product_cut,
    product_connected,
    vertex_id,
    vertex_pair,
)
