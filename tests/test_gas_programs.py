"""Unit tests for the GAS program definitions themselves."""

import numpy as np
import pytest

from repro.engine.algorithms import (
    BFS,
    SSSP,
    SSWP,
    ConnectedComponents,
    HeatSimulation,
    PageRank,
)


@pytest.mark.parametrize("program", [BFS(), SSSP(), ConnectedComponents(),
                                     SSWP(), PageRank(), HeatSimulation()],
                         ids=lambda p: p.name)
def test_unreached_source_emits_the_reduction_identity(program):
    """The engine scatters every loaded edge unfiltered, so an edge out of
    a source still at its unreached value must leave ``vtemp`` as it is
    under the program's own ``scatter_reduce`` (GASProgram.edge_messages)."""
    values = program.init_state(4)
    program.seed(values, np.array([0]))
    unreached = 3
    values[1], values[unreached] = 2.0, program.initial_value()
    src = np.array([unreached, unreached, unreached])
    dst = np.array([0, 1, 2])
    program.begin_iteration(values, src, dst)
    vtemp = program.make_vtemp(values)
    want = vtemp.copy()
    messages = program.edge_messages(values[src], np.array([0.5, 1.0, 7.0]), src)
    program.scatter_reduce(vtemp, dst, messages)
    assert np.array_equal(vtemp, want)


class TestBFSProgram:
    def test_messages_increment_level(self):
        bfs = BFS()
        msgs = bfs.edge_messages(np.array([0.0, 2.0]), np.ones(2))
        assert msgs.tolist() == [1.0, 3.0]

    def test_seed_sets_roots_to_zero(self):
        bfs = BFS()
        values = bfs.init_state(5)
        active = bfs.seed(values, np.array([2]))
        assert values[2] == 0.0
        assert np.isinf(values[[0, 1, 3, 4]]).all()
        assert active.tolist() == [2]

    def test_inconsistent_vertices_are_sources(self):
        bfs = BFS()
        batch = np.array([[3, 4], [5, 6], [3, 7]])
        assert bfs.inconsistent_vertices(batch).tolist() == [3, 5]

    def test_apply_commits_improvements_only(self):
        bfs = BFS()
        values = np.array([0.0, 5.0, np.inf])
        vtemp = np.array([0.0, 3.0, np.inf])
        changed = bfs.apply(values, vtemp)
        assert changed.tolist() == [1]
        assert values.tolist() == [0.0, 3.0, np.inf]


class TestSSSPProgram:
    def test_messages_add_weight(self):
        sssp = SSSP()
        msgs = sssp.edge_messages(np.array([1.0, 2.0]), np.array([0.5, 3.0]))
        assert msgs.tolist() == [1.5, 5.0]

    def test_needs_weights(self):
        assert SSSP().needs_weights


class TestCCProgram:
    def test_identity_labels(self):
        cc = ConnectedComponents()
        assert cc.init_state(4).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_grow_state_gives_new_vertices_own_labels(self):
        cc = ConnectedComponents()
        values = np.array([0.0, 0.0])  # both in component 0
        grown = cc.grow_state(values, 4)
        assert grown.tolist() == [0.0, 0.0, 2.0, 3.0]

    def test_inconsistent_vertices_are_both_endpoints(self):
        cc = ConnectedComponents()
        batch = np.array([[3, 4], [5, 6]])
        assert cc.inconsistent_vertices(batch).tolist() == [3, 4, 5, 6]

    def test_seed_activates_everything(self):
        cc = ConnectedComponents()
        values = cc.init_state(3)
        assert cc.seed(values, np.empty(0, dtype=np.int64)).tolist() == [0, 1, 2]


class TestPageRankProgram:
    def test_not_monotone(self):
        assert not PageRank().monotone

    def test_init_state_uniform(self):
        pr = PageRank()
        state = pr.init_state(4)
        assert np.allclose(state, 0.25)

    def test_grow_state_preserves_total_mass(self):
        pr = PageRank()
        state = pr.init_state(4)
        grown = pr.grow_state(state, 8)
        assert grown.shape[0] == 8
        assert np.isclose(grown.sum(), 1.0)

    def test_bad_damping(self):
        with pytest.raises(ValueError):
            PageRank(damping=1.5)

    def test_messages_divide_by_outdeg(self):
        pr = PageRank()
        values = np.array([0.5, 0.5])
        src = np.array([0, 0, 1])
        pr.begin_iteration(values, src, src)
        msgs = pr.edge_messages(values[src], np.ones(3), src)
        assert np.allclose(msgs, [0.25, 0.25, 0.5])


class TestHeatProgram:
    def test_not_monotone(self):
        assert not HeatSimulation().monotone

    def test_sources_pinned(self):
        heat = HeatSimulation(n_steps=2)
        values = heat.init_state(3)
        heat.seed(values, np.array([0]))
        assert values[0] == 1.0

    def test_fixed_step_termination(self):
        heat = HeatSimulation(n_steps=3)
        values = heat.init_state(2)
        heat.seed(values, np.array([0]))
        src = np.array([0])
        for step in range(3):
            heat.begin_iteration(values, src, np.array([1]))
            vtemp = heat.make_vtemp(values)
            heat.scatter_reduce(vtemp, np.array([1]), values[src])
            active = heat.apply(values, vtemp)
        assert active.size == 0  # terminated after n_steps

    def test_bad_params(self):
        with pytest.raises(ValueError):
            HeatSimulation(alpha=0.0)
        with pytest.raises(ValueError):
            HeatSimulation(n_steps=0)

    def test_diffusion_moves_toward_source(self):
        heat = HeatSimulation(alpha=0.5, n_steps=5)
        values = heat.init_state(2)
        heat.seed(values, np.array([0]))
        src, dst = np.array([0]), np.array([1])
        for _ in range(5):
            heat.begin_iteration(values, src, dst)
            vtemp = heat.make_vtemp(values)
            heat.scatter_reduce(vtemp, dst, values[src])
            heat.apply(values, vtemp)
        assert 0.9 < values[1] <= 1.0
