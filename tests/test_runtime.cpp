// Tests for the message-passing runtime's MMM and unpivoted LU: real
// numerics under distributed execution, and agreement with the discrete
// simulator's per-processor compute accounting.
#include <gtest/gtest.h>

#include "core/heuristic.hpp"
#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/norms.hpp"
#include "mp/mp_runtime.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Machine free_machine(CycleTimeGrid grid) {
  return Machine{std::move(grid), NetworkModel::free()};
}

// ----------------------------------------------------- MMM numerics

TEST(RuntimeMmm, MatchesSequentialProductExactly) {
  const std::size_t n = 24, block = 6;
  Rng rng(81);
  Matrix a(n, n), b(n, n), c(n, n), ref(n, n, 0.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);

  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::from_counts(
      {3, 1}, {2, 1}, g, PanelOrder::kContiguous, PanelOrder::kContiguous,
      "het");
  run_mp_mmm(free_machine(g), d, a.view(), b.view(), c.view(), block);
  gemm_reference(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0,
                 ref.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-11);
}

TEST(RuntimeMmm, RaggedEdgeBlocksStillCorrect) {
  const std::size_t n = 25, block = 6;  // 25 = 4*6 + 1
  Rng rng(82);
  Matrix a(n, n), b(n, n), c(n, n), ref(n, n, 0.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  run_mp_mmm(free_machine(g), d, a.view(), b.view(), c.view(), block);
  gemm_reference(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0,
                 ref.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-11);
}

TEST(RuntimeMmm, CorrectUnderKalinovLastovetsky) {
  const std::size_t n = 28, block = 4;
  Rng rng(83);
  Matrix a(n, n), b(n, n), c(n, n), ref(n, n, 0.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);
  run_mp_mmm(free_machine(g), kl, a.view(), b.view(), c.view(), block);
  gemm_reference(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0,
                 ref.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-11);
}

TEST(RuntimeMmm, BusyMatchesSimulator) {
  // With n divisible by block and a free network, every processor's
  // compute time in the MP runtime must agree with the discrete
  // simulator's to rounding error.
  const std::size_t n = 24, block = 4, nb = n / block;
  Rng rng(84);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);

  const CycleTimeGrid g(2, 3, {1, 2, 3, 2, 4, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 3);
  const Machine m = free_machine(g);
  const MpReport vr = run_mp_mmm(m, d, a.view(), b.view(), c.view(), block);
  const SimReport sr = simulate_mmm(m, d, nb);
  ASSERT_EQ(vr.busy.size(), sr.busy.size());
  for (std::size_t i = 0; i < vr.busy.size(); ++i)
    EXPECT_NEAR(vr.busy[i], sr.busy[i], 1e-9) << "proc " << i;
}

TEST(RuntimeMmm, CommChargedWithNonFreeNetwork) {
  const std::size_t n = 12, block = 3;
  Rng rng(85);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const Machine free = free_machine(CycleTimeGrid(2, 2, {1, 1, 1, 1}));
  Machine m = free;
  m.net = {Topology::kSwitched, 1e-3, 1e-3, true};
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const MpReport rep = run_mp_mmm(m, d, a.view(), b.view(), c.view(), block);
  const MpReport base =
      run_mp_mmm(free, d, a.view(), b.view(), c.view(), block);
  // Same compute, same messages; only the transfers cost time.
  EXPECT_EQ(rep.busy, base.busy);
  EXPECT_EQ(rep.messages, base.messages);
  EXPECT_GT(rep.messages, 0u);
  EXPECT_GT(rep.makespan, base.makespan);
}

TEST(RuntimeMmm, RejectsNonSquareInput) {
  Matrix a(4, 5), b(5, 4), c(4, 4);
  const Machine m = free_machine(CycleTimeGrid(1, 1, {1.0}));
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  EXPECT_THROW(run_mp_mmm(m, d, a.view(), b.view(), c.view(), 2),
               PreconditionError);
}

// ----------------------------------------------------- LU numerics

TEST(RuntimeLu, ReconstructsDiagonallyDominantMatrix) {
  const std::size_t n = 24, block = 4;
  Rng rng(91);
  Matrix orig(n, n);
  fill_diagonally_dominant(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());

  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::from_counts(
      {3, 1}, {2, 1}, g, PanelOrder::kContiguous, PanelOrder::kInterleaved,
      "het");
  const MpReport rep = run_mp_lu(free_machine(g), d, a.view(), block);
  EXPECT_TRUE(rep.factorized);

  const Matrix prod = lu_reconstruct(a.view(), n);
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()) / norm_max(orig.view()),
            1e-12);
}

TEST(RuntimeLu, MatchesSequentialNoPivotFactors) {
  const std::size_t n = 20, block = 5;
  Rng rng(92);
  Matrix orig(n, n);
  fill_diagonally_dominant(orig.view(), rng);
  Matrix seq(n, n), par(n, n);
  seq.view().copy_from(orig.view());
  par.view().copy_from(orig.view());

  ASSERT_TRUE(lu_factor_nopivot(seq.view()));
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const MpReport rep = run_mp_lu(free_machine(g), d, par.view(), block);
  EXPECT_TRUE(rep.factorized);
  EXPECT_LT(max_abs_diff(seq.view(), par.view()), 1e-10);
}

TEST(RuntimeLu, BusyMatchesSimulator) {
  const std::size_t n = 24, block = 4, nb = n / block;
  Rng rng(93);
  Matrix a(n, n);
  fill_diagonally_dominant(a.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = free_machine(g);
  const MpReport vr = run_mp_lu(m, d, a.view(), block);
  const SimReport sr = simulate_lu(m, d, nb);
  ASSERT_EQ(vr.busy.size(), sr.busy.size());
  for (std::size_t i = 0; i < vr.busy.size(); ++i)
    EXPECT_NEAR(vr.busy[i], sr.busy[i], 1e-9) << "proc " << i;
}

TEST(RuntimeLu, ReportsZeroPivot) {
  Matrix a(4, 4, 0.0);  // singular
  const Machine m = free_machine(CycleTimeGrid(1, 1, {1.0}));
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  const MpReport rep = run_mp_lu(m, d, a.view(), 2);
  EXPECT_FALSE(rep.factorized);
}

TEST(RuntimeLu, RaggedBlocksStillCorrect) {
  const std::size_t n = 23, block = 5;
  Rng rng(94);
  Matrix orig(n, n);
  fill_diagonally_dominant(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  ASSERT_TRUE(run_mp_lu(free_machine(g), d, a.view(), block).factorized);
  const Matrix prod = lu_reconstruct(a.view(), n);
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()) / norm_max(orig.view()),
            1e-11);
}

TEST(Runtime, UtilizationIsAFraction) {
  const std::size_t n = 16, block = 4;
  Rng rng(95);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const MpReport rep =
      run_mp_mmm(free_machine(g), d, a.view(), b.view(), c.view(), block);
  EXPECT_GT(rep.average_utilization(), 0.0);
  EXPECT_LE(rep.average_utilization(), 1.0 + 1e-12);
  EXPECT_GT(rep.messages, 0u);
}

}  // namespace
}  // namespace hetgrid
