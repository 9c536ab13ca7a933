"""Tests for repro.obs.metrics: instruments, registry, enabled gating."""

import threading

import pytest

import repro.obs as obs
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.quantiles import QuantileSketch


@pytest.fixture
def registry():
    r = MetricsRegistry()
    prior = obs.set_registry(r)
    obs.enable()
    yield r
    obs.disable()
    obs.set_registry(prior)


class TestCounter:
    def test_inc(self, registry):
        c = registry.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_noop_when_disabled(self):
        obs.disable()
        c = Counter("c")
        c.inc(10)
        assert c.value == 0


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("g")
        g.set(3.5)
        g.inc(0.5)
        g.dec(1.0)
        assert g.value == 3.0

    def test_noop_when_disabled(self):
        obs.disable()
        g = Gauge("g")
        g.set(9)
        assert g.value == 0


class TestHistogram:
    """The registry's one distribution instrument: the quantile sketch."""

    def test_record_and_summary(self, registry):
        h = registry.quantile("h")
        for v in (0.5, 5, 50, 500):
            h.record(v)
        assert h.count == 4
        assert h.total == 555.5
        assert h.max_value == 500
        assert h.mean == pytest.approx(555.5 / 4)

    def test_empty_mean_is_zero(self, registry):
        assert registry.quantile("h").mean == 0.0

    def test_noop_when_disabled(self):
        obs.disable()
        h = QuantileSketch("h")
        h.record(5)
        assert h.count == 0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_contains_and_get(self, registry):
        registry.counter("x")
        assert "x" in registry
        assert "y" not in registry
        assert registry.get("x").name == "x"
        assert registry.get("y") is None

    def test_collect_snapshot(self, registry):
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        h = registry.quantile("h")
        h.record(4)
        snap = registry.collect()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"] == h.summary()
        assert {k: snap["h"][k] for k in ("count", "sum", "max", "mean")} == {
            "count": 1.0, "sum": 4.0, "max": 4.0, "mean": 4.0}

    def test_instruments_sorted_by_name(self, registry):
        registry.counter("b")
        registry.counter("a")
        assert [i.name for i in registry.instruments()] == ["a", "b"]

    def test_reset_forgets_everything(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert "c" not in registry

    def test_concurrent_get_or_create(self, registry):
        seen = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            c = registry.counter("shared")
            seen.append(c)
            for _ in range(100):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)
        assert seen[0].value > 0
