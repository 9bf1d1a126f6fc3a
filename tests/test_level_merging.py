"""Level-merging optimization tests (Naumov's fused small levels)."""

import numpy as np
import pytest

from repro.gpu.device import TITAN_RTX_SCALED
from repro.kernels import LevelSetKernel, merge_small_levels, prepare_lower, solve_serial
from repro.kernels.sweep import build_level_schedule
from repro.matrices.generators import chain_matrix, layered_random

DEV = TITAN_RTX_SCALED


class TestMergeGrouping:
    def test_groups_cover_all_levels(self):
        L = chain_matrix(500, rng=np.random.default_rng(0))
        sched = build_level_schedule(prepare_lower(L))
        gp = merge_small_levels(sched, DEV)
        assert gp[0] == 0 and gp[-1] == sched.nlevels
        assert np.all(np.diff(gp) >= 1)

    def test_deep_thin_matrix_merges_heavily(self):
        L = chain_matrix(2000, rng=np.random.default_rng(1))
        sched = build_level_schedule(prepare_lower(L))
        gp = merge_small_levels(sched, DEV)
        assert len(gp) - 1 < sched.nlevels / 5

    def test_wide_levels_not_merged(self):
        L = layered_random(
            np.full(6, 2000, dtype=np.int64), 4.0, np.random.default_rng(2)
        )
        sched = build_level_schedule(prepare_lower(L))
        gp = merge_small_levels(sched, DEV)
        # every level is several waves wide -> one group per level
        assert len(gp) - 1 == sched.nlevels

    def test_budget_respected(self):
        L = chain_matrix(1000, rng=np.random.default_rng(3))
        sched = build_level_schedule(prepare_lower(L))
        gp = merge_small_levels(sched, DEV, waves=2.0)
        budget = 2.0 * DEV.cuda_cores
        for g in range(len(gp) - 1):
            rows = int(sched.level_rows[gp[g] : gp[g + 1]].sum())
            # a group may exceed the budget only by its last level
            if gp[g + 1] - gp[g] > 1:
                rows_minus_last = int(
                    sched.level_rows[gp[g] : gp[g + 1] - 1].sum()
                )
                assert rows_minus_last <= budget


class TestMergedKernel:
    def test_numerics_identical(self, rng):
        L = chain_matrix(800, rng=np.random.default_rng(4))
        b = rng.standard_normal(800)
        x_ref = solve_serial(L, b)
        x, _ = LevelSetKernel(merge_levels=True).solve_system(L, b, DEV)
        assert np.allclose(x, x_ref, rtol=1e-10)

    def test_merging_speeds_up_deep_matrices(self):
        L = chain_matrix(3000, rng=np.random.default_rng(5))
        b = np.ones(3000)
        _, plain = LevelSetKernel().solve_system(L, b, DEV)
        _, merged = LevelSetKernel(merge_levels=True).solve_system(L, b, DEV)
        assert merged.time_s < plain.time_s / 1.5
        assert merged.launches < plain.launches

    def test_merging_harmless_on_shallow(self):
        L = layered_random(
            np.full(3, 1500, dtype=np.int64), 5.0, np.random.default_rng(6)
        )
        b = np.ones(4500)
        _, plain = LevelSetKernel().solve_system(L, b, DEV)
        _, merged = LevelSetKernel(merge_levels=True).solve_system(L, b, DEV)
        assert merged.time_s <= plain.time_s * 1.05

    def test_report_flags(self):
        L = chain_matrix(200, rng=np.random.default_rng(7))
        _, rep = LevelSetKernel(merge_levels=True).solve_system(
            L, np.ones(200), DEV
        )
        assert rep.detail["merged"] is True


@pytest.mark.parametrize("k", [0, 1, 2, 8])
def test_merged_report_applies_merging_at_every_width(k):
    L = chain_matrix(600, rng=np.random.default_rng(9))
    kernel = LevelSetKernel(merge_levels=True)
    aux, _ = kernel.preprocess(prepare_lower(L), DEV)
    groups = len(aux.group_ptr) - 1
    assert groups < aux.sched.nlevels
    report = kernel.report(aux, DEV, k)
    assert report.launches == groups
    plain_kernel = LevelSetKernel()
    plain_aux, _ = plain_kernel.preprocess(prepare_lower(L), DEV)
    assert report.time_s < plain_kernel.report(plain_aux, DEV, k).time_s
    b = np.ones(L.n_rows) if k == 0 else np.ones((L.n_rows, k))
    assert kernel.solve(aux, b, DEV)[1] == report
