"""One-point move arithmetic for the tests, built on the engine's block scorer.

`cac_fit` scores moves only through `cac_engine._score_block`. These
wrappers read one row of that block for one candidate cluster, with guard
checks that raise `IllegalMove`, so the tests can check the closed form
against from-scratch recomputation and replay the descent one point and one
cluster at a time.
"""

from cackit.cac_engine import ClusterState, _score_block, _separations, can_remove
from cackit.dataset import LabeledDataset
from cackit.errors import IllegalMove


def _one_point(state: ClusterState, ds: LabeledDataset, j: int, i: int) -> float:
    return float(_score_block(state, ds, slice(i, i + 1), _separations(state))[0, j])


def merge_cost_change(state: ClusterState, ds: LabeledDataset, j: int, i: int) -> float:
    """Change in cluster j's score if point i joined it.

    Merging into an empty cluster scores 0 (a singleton has zero SSE and
    no separation term).
    """
    if state.assignments[i] == j:
        raise IllegalMove(f"point {i} is already in cluster {j}")
    return _one_point(state, ds, j, i)


def removal_cost_change(state: ClusterState, ds: LabeledDataset, p: int, i: int) -> float:
    """Change in cluster p's score if point i left it.

    Refuses removals that would empty the cluster or leave it one-class.
    """
    if state.assignments[i] != p:
        raise IllegalMove(f"point {i} is not in cluster {p}")
    if state.sizes[p] <= 1:
        raise IllegalMove(f"cluster {p} has a single member")
    if not can_remove(state, ds, p, i):
        raise IllegalMove(f"removing point {i} would leave cluster {p} one-class")
    return _one_point(state, ds, p, i)


def move_cost_change(state: ClusterState, ds: LabeledDataset, i: int, p: int, q: int) -> float:
    """Total-score change of moving point i from cluster p to q; 0 when p == q."""
    if p == q:
        return 0.0
    return removal_cost_change(state, ds, p, i) + merge_cost_change(state, ds, q, i)
