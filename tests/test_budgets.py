"""Every exponential search spends one graphs.Budget, capped by a module
constant: one crafted input per budget, and for each the exact work it
needs.  One unit short of that, the search raises BudgetExceeded with its
exact text; at it, the search gives the answer the default cap gives."""
import pytest

from rnlab import (
    BudgetExceeded,
    PartitionInfeasible,
    PropertySpec,
    ball_violates,
    build_graph,
    distance_to_property,
    enumerate_connected_classes,
    exact_weighted_mis,
    extract_ball,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    induced_cycle_lengths,
    observe,
)
from rnlab import balls, distances, oracles, partitions, solvers
from helpers import petersen_edges, reference_solve_components

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
HEXAGON = [(i, (i + 1) % 6) for i in range(6)]
TRIANGLE_FREE = PropertySpec.h_free(3, [(0, 1), (1, 2), (0, 2)])

# name: (owner of the cap, cap constant, work needed, search, text one short)
BUDGETS = {
    # the 6-cycle ball's reflection shows only at its second leaf
    "canonical_leaves": (
        balls._RefinementSearch, "MAX_LEAVES", 2,
        lambda: balls.canonicalize(extract_ball(gen_cycle(6), 0, 3, 2)),
        "canonical search exceeded its leaf budget of 1",
    ),
    # a 6-cycle holds no triangle: the search maps the first corner to each
    # vertex and the second to each neighbor
    "subgraph_nodes": (
        distances, "SEARCH_NODE_CAP", 19,
        lambda: ball_violates(TRIANGLE_FREE, 6, HEXAGON),
        "subgraph search exceeded its node cap of 18",
    ),
    # K4 is not 3-colorable: one node per vertex, and the fourth finds every
    # color taken
    "coloring_nodes": (
        distances, "SEARCH_NODE_CAP", 4,
        lambda: ball_violates(PropertySpec.k_colorable(3), 4, K4),
        "coloring search exceeded its node cap of 3",
    ),
    # two triangles, six edges: the cheapest odd-cycle cover is found after
    # 31 deletion sets are pushed
    "deletion_pushes": (
        distances, "DELETION_PUSH_CAP", 31,
        lambda: distance_to_property(gen_disjoint_triangles(2), PropertySpec.bipartite()),
        "deletion search pushed more than 30 sets",
    ),
    # the Petersen graph is cubic and not bipartite, so it reaches branch and bound
    "branch_nodes": (
        solvers, "BRANCH_NODE_CAP", 11,
        lambda: exact_weighted_mis(build_graph(petersen_edges(), [0.0] * 10, d=3, K=1.0)),
        "branch and bound node cap exceeded",
    ),
    # the 5-cycle's connected subsets of at most 3 vertices: 5 single
    # vertices, 5 edges and 5 paths
    "induced_subsets": (
        oracles, "SUBSET_CAP", 15,
        lambda: observe(gen_cycle(5), 3),
        "induced subgraph enumeration exceeded its cap",
    ),
    "cycle_steps": (
        oracles, "CYCLE_STEP_CAP", 24,
        lambda: induced_cycle_lengths(gen_cycle(6), 6),
        "induced cycle search exceeded its step cap",
    ),
    # one key per new shape grown, for the 10 classes of at most 4 vertices
    "class_keys": (
        oracles, "CLASS_KEY_CAP", 18,
        lambda: enumerate_connected_classes(4, 3),
        "more than 17 class keys at depth 4, degree 3",
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_budget_boundary(name, monkeypatch):
    owner, constant, need, search, text = BUDGETS[name]
    answer = search()
    monkeypatch.setattr(owner, constant, need - 1)
    with pytest.raises(BudgetExceeded) as caught:
        search()
    assert type(caught.value) is BudgetExceeded and str(caught.value) == text
    monkeypatch.setattr(owner, constant, need)
    assert search() == answer


@pytest.mark.parametrize("ladder", [partitions.solve_pieces, reference_solve_components])
def test_partition_ladder_drops_a_bound_whose_search_ran_out(ladder):
    # a BudgetExceeded is a TooLarge, so the ladder tries the next component
    # bound and, past the last, names the failure
    def solve(piece, removed):
        raise BudgetExceeded("branch and bound node cap exceeded")

    with pytest.raises(PartitionInfeasible, match="branch and bound node cap exceeded$"):
        ladder(gen_grid(6, 6), 0.25, solve)


def test_single_vertices_count_but_never_raise(monkeypatch):
    table = observe(gen_cycle(5), 1)
    monkeypatch.setattr(oracles, "SUBSET_CAP", 1)
    assert observe(gen_cycle(5), 1) == table
    with pytest.raises(BudgetExceeded):
        observe(gen_cycle(5), 2)
