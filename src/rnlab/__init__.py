"""Sampling oracles, ball statistics, distances, partitions, and testers
for very large bounded-degree graphs with non-uniform vertex weights.

The names exported here are the public surface: each one is used by the
package itself, the demos, the benchmark or the acceptance tests, or is
one of the paper's own notions (its edit distances, membership, local
rules and truncated labels); ``tests/test_imports.py`` checks this.
Brute-force references that only tests compare against, such as
exhaustive MWIS and exact matching, live in ``tests/helpers.py``.
"""

from .balls import (
    CanonicalBallKey,
    CanonicalDecoratedBall,
    FixedPointLabel,
    LabeledBall,
    canonicalize,
    canonicalize_decorated,
    extract_ball,
    extract_ball_with_map,
    rooted_ball_view,
    truncate_label,
    unrooted_key,
)
from .distances import (
    PropertySpec,
    SizeMismatch,
    UnsupportedProperty,
    VertexSetMismatch,
    absolute_distance,
    absolute_distance_grid_check,
    distance_to_property,
    edge_mass,
    edit_distance_uniform,
    holds_on,
    is_member,
    n_epsilon_cycles,
    weighted_edit_distance,
)
from .generators import (
    InvalidSize,
    algebraic_connectivity,
    build_from_spec,
    gen_binary_tree,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_orbit_tree,
    gen_path,
    gen_perturbed_union,
    gen_random_regular,
    gen_theta_graph,
)
from .graphs import (
    AliasSampler,
    BudgetExceeded,
    DegreeExceeded,
    DuplicateEdge,
    GraphError,
    LayeredBinaryTree,
    NotAdjacent,
    RatioBoundViolated,
    SelfLoop,
    TooLarge,
    WeightedGraph,
    adjacency,
    bfs,
    build_graph,
    components,
    cycle_ratio_product,
    graph_from_json_dict,
    graph_to_json,
    load_graph,
    ratio,
    save_graph,
    two_coloring,
    walk_log_ratio,
    walk_order,
)
from .local import (
    LocalRule,
    RuleIncomplete,
    draw_vertex_bits,
    estimate_matching,
    independent_set_estimate,
    local_independent_set,
    rank_rule,
    run_local_rule,
    table_rule,
)
from .oracles import (
    BallIndex,
    ObservationTable,
    OracleConfig,
    RadonNikodymOracle,
    ball_index,
    cycle_key,
    enumerate_connected_classes,
    girth,
    induced_cycle_lengths,
    observe,
    odd_girth,
    uniform_query,
)
from .partitions import (
    PartitionCertificate,
    PartitionInfeasible,
    UniformCoverCertificate,
    UnsupportedFamily,
    build_uniform_cover,
    find_weighted_partition,
    removed_mass,
    verify_uniform_cover,
    verify_weighted_partition,
)
from .scenarios import (
    ExperimentConfig,
    interior_ball_mass,
    report_to_csv,
    run_scenario,
    scenario_report_lines,
)
from .simplex import LPInfeasible, LPUnbounded, solve_lp
from .solvers import (
    component_mwis,
    exact_weighted_mis,
    is_independent,
    matching_size,
    maximum_matching,
)
from .statistics import (
    BallStatistics,
    ParamMismatch,
    edge_entropy,
    empirical_profile,
    empirical_stats,
    exact_stats,
    load_profile,
    profile_to_json,
    statistical_distance,
    stats_profile,
    truncation_stability,
    tv,
    vertex_entropy,
)
from .testers import (
    TestVerdict,
    ball_violates,
    observable_test,
    observation_depth,
    test_property,
)

__version__ = "0.1.0"
