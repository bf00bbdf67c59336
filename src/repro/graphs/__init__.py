"""Graph substrate: representation, construction, generation, IO, analytics.

The central type is :class:`~repro.graphs.static_graph.Graph`, an immutable
adjacency-array graph mirroring the paper's 2m + n memory layout.  Everything
else in the library consumes and produces this type.
"""

from .builder import GraphBuilder
from .generators import (
    barabasi_albert_graph,
    binary_tree_graph,
    caterpillar_graph,
    collaboration_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    planted_independent_set_graph,
    power_law_graph,
    power_law_sequence_graph,
    random_regular_graph,
    random_tree,
    star_graph,
    web_like_graph,
)
from .io import (
    dumps_edge_list,
    loads_edge_list,
    read_dimacs,
    read_edge_list,
    read_graph,
    read_metis,
    write_dimacs,
    write_edge_list,
    write_graph,
    write_metis,
)
from .named import (
    bdtwo_lower_bound_family,
    isolated_clique_gadget,
    mutual_dominance_gadget,
    paper_figure1,
    paper_figure1_modified,
    paper_figure2,
    paper_figure5,
    petersen_graph,
)
from .properties import (
    connected_components,
    count_triangles,
    degeneracy,
    degeneracy_ordering,
    degree_histogram,
    is_connected,
    largest_component,
    power_law_exponent_estimate,
    triangle_counts,
)
from .static_graph import Graph

__all__ = [
    "Graph",
    "GraphBuilder",
    # generators
    "barabasi_albert_graph",
    "binary_tree_graph",
    "caterpillar_graph",
    "collaboration_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "gnm_random_graph",
    "gnp_random_graph",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "planted_independent_set_graph",
    "power_law_graph",
    "power_law_sequence_graph",
    "random_regular_graph",
    "random_tree",
    "star_graph",
    "web_like_graph",
    # io
    "dumps_edge_list",
    "loads_edge_list",
    "read_dimacs",
    "read_edge_list",
    "read_graph",
    "read_metis",
    "write_dimacs",
    "write_edge_list",
    "write_graph",
    "write_metis",
    # named
    "bdtwo_lower_bound_family",
    "isolated_clique_gadget",
    "mutual_dominance_gadget",
    "paper_figure1",
    "paper_figure1_modified",
    "paper_figure2",
    "paper_figure5",
    "petersen_graph",
    # properties
    "connected_components",
    "count_triangles",
    "degeneracy",
    "degeneracy_ordering",
    "degree_histogram",
    "is_connected",
    "largest_component",
    "power_law_exponent_estimate",
    "triangle_counts",
]
