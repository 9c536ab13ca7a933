"""Public-surface contract tests: exports, docstrings, and doctests."""

import doctest
import importlib
import pkgutil

import pytest

import repro


PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.cal",
    "repro.core.config",
    "repro.core.edgeblock_array",
    "repro.core.graphtinker",
    "repro.core.hashing",
    "repro.core.pool",
    "repro.core.probes",
    "repro.core.robin_hood",
    "repro.core.sgh",
    "repro.core.stats",
    "repro.core.vertex_array",
    "repro.baselines",
    "repro.baselines.adjacency_matrix",
    "repro.baselines.csr",
    "repro.stinger",
    "repro.stinger.stinger",
    "repro.engine",
    "repro.engine.gas",
    "repro.engine.hybrid",
    "repro.engine.inconsistency",
    "repro.engine.modes",
    "repro.engine.paths",
    "repro.engine.algorithms",
    "repro.workloads",
    "repro.workloads.datasets",
    "repro.workloads.io",
    "repro.workloads.persistence",
    "repro.workloads.rmat",
    "repro.workloads.streams",
    "repro.bench",
    "repro.bench.costmodel",
    "repro.bench.harness",
    "repro.bench.metrics",
    "repro.bench.reporting",
    "repro.obs",
    "repro.obs.export",
    "repro.obs.hooks",
    "repro.obs.log",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.service",
    "repro.service.wal",
    "repro.service.checkpoint",
    "repro.service.recovery",
    "repro.service.service",
    "repro.service.faults",
    "repro.net",
    "repro.net.frames",
    "repro.net.protocol",
    "repro.net.readpath",
    "repro.net.server",
    "repro.net.client",
    "repro.net.aioclient",
    "repro.net.loadgen",
    "repro.cli",
    "repro.errors",
]


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("modname", PUBLIC_MODULES)
    def test_module_importable_and_documented(self, modname):
        mod = importlib.import_module(modname)
        assert mod.__doc__ and mod.__doc__.strip(), f"{modname} lacks a docstring"

    def test_bench_exports_no_record_format(self):
        import repro.bench

        assert sorted(repro.bench.__all__) == [
            "CostModel", "DEFAULT_COST_MODEL", "Table", "load_stability",
            "throughput"]

    def test_no_unexpected_top_level_modules(self):
        found = {m.name for m in pkgutil.iter_modules(repro.__path__, "repro.")}
        assert found <= {
            "repro.core", "repro.stinger", "repro.engine", "repro.workloads",
            "repro.bench", "repro.baselines", "repro.obs", "repro.service",
            "repro.net", "repro.cli", "repro.errors", "repro.__main__",
        }, found


class TestPublicDocstrings:
    @pytest.mark.parametrize("cls_path", [
        ("repro", "GraphTinker"),
        ("repro", "GTConfig"),
        ("repro.stinger", "Stinger"),
        ("repro.engine", "HybridEngine"),
        ("repro.engine", "GASProgram"),
        ("repro.baselines", "CSRRebuildStore"),
        ("repro.baselines", "AdjacencyMatrixStore"),
    ])
    def test_public_classes_documented(self, cls_path):
        modname, clsname = cls_path
        cls = getattr(importlib.import_module(modname), clsname)
        assert cls.__doc__ and len(cls.__doc__.strip()) > 30

    def test_public_methods_of_graphtinker_documented(self):
        from repro import GraphTinker

        for name in ("insert_edge", "insert_batch", "delete_edge",
                     "delete_batch", "delete_vertex", "has_edge",
                     "edge_weight", "neighbors", "edges", "edge_arrays",
                     "analytics_edges", "check_invariants"):
            assert getattr(GraphTinker, name).__doc__, name


class TestDoctests:
    @pytest.mark.parametrize("modname", [
        "repro.core.graphtinker",
        "repro.stinger.stinger",
        "repro.engine.hybrid",
        "repro.bench.reporting",
    ])
    def test_doctests_pass(self, modname):
        mod = importlib.import_module(modname)
        results = doctest.testmod(mod, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures in {modname}"
