"""Unit tests for GTConfig / StingerConfig / EngineConfig validation."""

import pytest

from repro.core.config import EngineConfig, GTConfig, StingerConfig
from repro.errors import ConfigError


class TestGTConfig:
    def test_paper_defaults(self):
        cfg = GTConfig()
        assert cfg.pagewidth == 64
        assert cfg.subblock == 8
        assert cfg.workblock == 4
        assert cfg.enable_rhh and cfg.enable_sgh and cfg.enable_cal
        assert not cfg.compact_on_delete

    def test_derived_geometry(self):
        cfg = GTConfig(pagewidth=64, subblock=8, workblock=4)
        assert cfg.subblocks_per_block == 8
        assert cfg.workblocks_per_subblock == 2

    @pytest.mark.parametrize("pw", [0, -1, 3, 48, 100])
    def test_rejects_non_power_of_two_pagewidth(self, pw):
        with pytest.raises(ConfigError):
            GTConfig(pagewidth=pw)

    def test_rejects_subblock_larger_than_pagewidth(self):
        with pytest.raises(ConfigError):
            GTConfig(pagewidth=8, subblock=16)

    def test_rejects_workblock_larger_than_subblock(self):
        with pytest.raises(ConfigError):
            GTConfig(pagewidth=64, subblock=4, workblock=8)

    def test_rejects_non_dividing_subblock(self):
        # powers of two always divide, so exercise via workblock > subblock
        with pytest.raises(ConfigError):
            GTConfig(subblock=2, workblock=4)

    @pytest.mark.parametrize("field", ["cal_group_width", "cal_block_size",
                                       "initial_vertices"])
    def test_rejects_non_positive_sizes(self, field):
        with pytest.raises(ConfigError):
            GTConfig(**{field: 0})

    def test_with_returns_validated_copy(self):
        cfg = GTConfig()
        other = cfg.with_(pagewidth=128)
        assert other.pagewidth == 128
        assert cfg.pagewidth == 64  # original untouched
        with pytest.raises(ConfigError):
            cfg.with_(pagewidth=5)

    def test_frozen(self):
        cfg = GTConfig()
        with pytest.raises(AttributeError):
            cfg.pagewidth = 32  # type: ignore[misc]

    @pytest.mark.parametrize("pw", [8, 16, 32, 64, 128, 256])
    def test_paper_pagewidth_sweep_values_valid(self, pw):
        cfg = GTConfig(pagewidth=pw)
        assert cfg.subblocks_per_block == pw // 8


class TestStingerConfig:
    def test_paper_default_edgeblock(self):
        assert StingerConfig().edgeblock_size == 16

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            StingerConfig(edgeblock_size=0)
        with pytest.raises(ConfigError):
            StingerConfig(initial_vertices=-1)


class TestEngineConfig:
    def test_paper_threshold(self):
        assert EngineConfig().threshold == 0.02

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range_threshold(self, t):
        with pytest.raises(ConfigError):
            EngineConfig(threshold=t)

    def test_rejects_non_positive_iterations(self):
        with pytest.raises(ConfigError):
            EngineConfig(max_iterations=0)
