"""Hypothesis stateful tests: GraphTinker vs the reference oracle.

A state machine drives random insert/delete/query sequences against both
GraphTinker (in several configurations) and the dict-of-dicts reference;
any divergence in return values or final content is a bug.  This is the
suite that originally caught the FIND-before-INSERT ordering defect (see
EdgeblockArray.insert's docstring).
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import GraphTinker, GTConfig
from tests.reference import (
    ReferenceGraph,
    assert_gather_matches_loop,
    assert_store_matches,
)

# Small id spaces maximise collision / duplicate / branch-out coverage.
SRC = st.integers(min_value=0, max_value=12)
DST = st.integers(min_value=0, max_value=40)
WEIGHT = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
# Past both ends of SRC: negative, never-inserted and repeated ids.
FRONTIER = st.lists(st.integers(min_value=-2, max_value=16), max_size=24)


class _GraphTinkerMachine(RuleBasedStateMachine):
    CONFIG: GTConfig

    def __init__(self):
        super().__init__()
        self.gt = GraphTinker(self.CONFIG)
        self.ref = ReferenceGraph()
        self.op_count = 0

    @rule(src=SRC, dst=DST, weight=WEIGHT)
    def insert(self, src, dst, weight):
        assert self.gt.insert_edge(src, dst, weight) == self.ref.insert_edge(src, dst, weight)
        self.op_count += 1

    @rule(src=SRC, dst=DST)
    def delete(self, src, dst):
        assert self.gt.delete_edge(src, dst) == self.ref.delete_edge(src, dst)
        self.op_count += 1

    @rule(src=SRC, dst=DST)
    def query(self, src, dst):
        assert self.gt.has_edge(src, dst) == self.ref.has_edge(src, dst)
        expected = self.ref.edge_weight(src, dst)
        got = self.gt.edge_weight(src, dst)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected)

    @rule(src=SRC)
    def degree(self, src):
        assert self.gt.degree(src) == self.ref.degree(src)

    @rule(active=FRONTIER)
    def gather(self, active):
        """The level-synchronous gather against the per-vertex loop, on
        this machine's own store: triples in order, stats deltas."""
        assert_gather_matches_loop(self.gt, active)

    @invariant()
    def edge_count_matches(self):
        assert self.gt.n_edges == self.ref.n_edges

    def teardown(self):
        self.gt.check_invariants()
        assert_store_matches(self.gt, self.ref)


class TestDefaultConfigMachine(_GraphTinkerMachine.TestCase):
    pass


_GraphTinkerMachine.CONFIG = GTConfig(
    pagewidth=16, subblock=4, workblock=2, cal_group_width=4, cal_block_size=4
)
TestDefaultConfigMachine.settings = settings(max_examples=40, stateful_step_count=60)


class _CompactMachine(_GraphTinkerMachine):
    CONFIG = GTConfig(
        pagewidth=16, subblock=4, workblock=2, compact_on_delete=True,
        cal_group_width=4, cal_block_size=4,
    )


class TestCompactConfigMachine(_CompactMachine.TestCase):
    pass


TestCompactConfigMachine.settings = settings(max_examples=40, stateful_step_count=60)


class _NoFeaturesMachine(_GraphTinkerMachine):
    CONFIG = GTConfig(
        pagewidth=8, subblock=4, workblock=2, enable_sgh=False, enable_cal=False
    )


class TestNoFeaturesMachine(_NoFeaturesMachine.TestCase):
    pass


TestNoFeaturesMachine.settings = settings(max_examples=25, stateful_step_count=50)


class _TinySubblockMachine(_GraphTinkerMachine):
    """Pagewidth == subblock: a single subblock per block, deep trees."""

    CONFIG = GTConfig(pagewidth=4, subblock=4, workblock=2, cal_group_width=2,
                      cal_block_size=2)


class TestTinySubblockMachine(_TinySubblockMachine.TestCase):
    pass


TestTinySubblockMachine.settings = settings(max_examples=25, stateful_step_count=50)
