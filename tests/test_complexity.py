"""Analytical parameter/FLOP accounting and squeeze-ratio arithmetic."""

import pytest

from ppvit import (ConfigError, build_model, compare_attention, count_flops,
                   count_params, preset, squeeze_ratio)
from ppvit.attention import pooled_extent, pooled_len
from ppvit.complexity import attention_core_flops, stage_grids


class TestAttentionCore:
    def test_tiny_case_by_hand(self):
        # N=4, M=2, C=1: projections (4+2*2)*1 = 8, score+value 2*4*2*1 = 16
        assert attention_core_flops(4, 2, 1) == 24

    def test_vanilla_substitution(self):
        # with M = N the formula collapses to the familiar 3NC^2 + 2N^2C
        for n, c in [(5, 3), (49, 64), (196, 8)]:
            assert attention_core_flops(n, n, c) == 3 * n * c * c + 2 * n * n * c

    def test_linear_in_m(self):
        base = attention_core_flops(100, 10, 8)
        bigger = attention_core_flops(100, 20, 8)
        assert bigger - base == 10 * (2 * 8 * 8 + 2 * 100 * 8)


class TestParamAccounting:
    @pytest.mark.parametrize("name", ["micro", "nano", "tiny", "small", "base",
                                      "large"])
    def test_analytic_count_matches_built_model(self, name):
        cfg = preset(name, num_classes=10)
        assert count_params(cfg).total_params == build_model(cfg).arena.data.size

    @pytest.mark.parametrize("overrides", [
        {"use_rpe": False},
        {"ffn_kind": "mlp"},
        {"pool_sizes": (1, 2, 3, 6)},
        {"pool_mode": "max", "act": "gelu"},
        {"use_rpe": False, "ffn_kind": "mlp"},
    ])
    def test_ablation_variants_stay_exact(self, overrides):
        cfg = preset("micro", num_classes=4, **overrides)
        assert count_params(cfg).total_params == build_model(cfg).arena.data.size

    def test_rpe_off_removes_parameters(self):
        on = count_params(preset("micro", num_classes=4)).total_params
        off = count_params(preset("micro", num_classes=4,
                                  use_rpe=False)).total_params
        assert off < on

    def test_params_independent_of_input_size(self):
        cfg = preset("micro", num_classes=4)
        assert (count_flops(cfg, (32, 32)).total_params
                == count_flops(cfg, (64, 64)).total_params
                == count_params(cfg).total_params)


class TestFlopAccounting:
    def test_total_is_sum_of_layers(self):
        rep = count_flops(preset("micro", num_classes=4), (64, 64))
        assert rep.total_flops == sum(l.flops for l in rep.layers)
        assert rep.total_params == sum(l.params for l in rep.layers)

    def test_per_stage_partition(self):
        rep = count_flops(preset("micro", num_classes=4), (64, 64))
        rows = rep.per_stage()
        assert [r.scope for r in rows] == ["stem", "stages.1", "stages.2",
                                           "stages.3", "stages.4", "head"]
        assert sum(r.flops for r in rows) == rep.total_flops
        assert sum(r.params for r in rows) == rep.total_params

    def test_flops_grow_with_input(self):
        cfg = preset("micro", num_classes=4)
        assert (count_flops(cfg, (64, 64)).total_flops
                > count_flops(cfg, (32, 32)).total_flops)

    def test_csv_schema(self):
        rep = count_flops(preset("nano", num_classes=2), (32, 32))
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "scope,params,flops"
        assert lines[-1].startswith("total,")
        total = lines[-1].split(",")
        assert int(total[1]) == rep.total_params
        assert int(total[2]) == rep.total_flops

    def test_per_layer_csv_has_block_rows(self):
        rep = count_flops(preset("nano", num_classes=2), (32, 32))
        text = rep.to_csv(per_layer=True)
        assert "stages.1.blocks.0.attn" in text
        assert "stages.1.blocks.0.ffn" in text

    def test_stage_grids_follow_the_embed_ladder(self):
        # the stem quarters the input, each later embed halves the grid
        assert stage_grids(224, 224) == [(56, 56), (28, 28), (14, 14), (7, 7)]
        assert stage_grids(64, 96) == [(16, 24), (8, 12), (4, 6), (2, 3)]

    def test_input_size_validated(self):
        with pytest.raises(ConfigError, match="32"):
            count_flops(preset("micro", num_classes=4), (40, 40))


class TestSqueeze:
    @pytest.mark.parametrize("ratios,expect", [
        ((24,), 576), ((16,), 256), ((12,), 144), ((8,), 64),
        ((12, 24), 115), ((12, 16, 20, 24), 66),
    ])
    def test_rounded_analytic_column(self, ratios, expect):
        assert round(squeeze_ratio(ratios).analytic_ratio) == expect

    def test_four_level_analytic_value(self):
        got = squeeze_ratio((12, 16, 20, 24)).analytic_ratio
        assert abs(got - 66.3) < 0.05

    def test_analytic_monotone_in_each_ratio(self):
        base = (12, 16, 20, 24)
        ref = squeeze_ratio(base).analytic_ratio
        for i in range(4):
            bumped = tuple(p + 1 if j == i else p for j, p in enumerate(base))
            assert squeeze_ratio(bumped).analytic_ratio > ref

    def test_divisible_geometry_realizes_analytic(self):
        # 240 divides by every ratio, so per-axis rounding never bites
        rep = squeeze_ratio((12, 16, 20, 24), hw=(240, 240))
        assert rep.realized_m == 20 ** 2 + 15 ** 2 + 12 ** 2 + 10 ** 2
        assert rep.realized_ratio == pytest.approx(rep.analytic_ratio,
                                                   rel=1e-12)

    def test_realized_m_shares_layer_definition(self):
        rep = squeeze_ratio((2, 3, 5), hw=(11, 9))
        assert rep.realized_m == pooled_len(11, 9, (2, 3, 5))

    def test_rounding_within_half_cell(self):
        for h in range(1, 61):
            for p in range(1, 25):
                assert abs(pooled_extent(h, p) - h / p) <= 0.5

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            squeeze_ratio(())
        with pytest.raises(ConfigError):
            squeeze_ratio((0, 2))

    @pytest.mark.parametrize("ratios", [(2.7, 4.9), [True, 2], (2, 4.0)])
    def test_non_int_ratios_rejected(self, ratios):
        # once truncated: (2.7, 4.9) reported ratios (2, 4) and M=20
        with pytest.raises(ConfigError, match="pool ratios must be ints"):
            squeeze_ratio(ratios, hw=(8, 8))


class TestCompare:
    def test_pooling_recovers_vanilla_at_ratio_one(self):
        rows, _ = compare_attention(49, 8, ["vanilla", "pool:1"])
        assert rows[0].m == rows[1].m == 49
        assert rows[0].core_flops == rows[1].core_flops

    def test_pyramid_close_to_single_pool(self):
        # realized cost of {12,16,20,24} stays within 2x of plain 1/8 pooling
        rows, _ = compare_attention(56 * 56, 64,
                                    ["pool:8", "pyramid:12,16,20,24"])
        pool, pyramid = rows
        assert pyramid.core_flops <= 2 * pool.core_flops

    def test_square_n_uses_per_axis_rounding(self):
        rows, _ = compare_attention(56 * 56, 8, ["pyramid:12,16,20,24"])
        expect = sum(pooled_extent(56, p) ** 2 for p in (12, 16, 20, 24))
        assert rows[0].m == expect == 54

    def test_duplicate_variant_collapses_with_warning(self):
        rows, warnings = compare_attention(16, 4, ["vanilla", "vanilla",
                                                   "pool:2"])
        assert [r.variant for r in rows] == ["vanilla", "pool:2"]
        assert warnings and "duplicate" in warnings[0]

    def test_malformed_variant_rejected(self):
        for bad in ["pools:2", "pyramid:", "pyramid:4,2", "pool:0", "pool:a"]:
            with pytest.raises(ConfigError):
                compare_attention(16, 4, [bad])

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ConfigError):
            compare_attention(0, 4, ["vanilla"])
