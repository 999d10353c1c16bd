// Tests for the message-passing runtime's QR, Cholesky and pivoted LU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/heuristic.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/norms.hpp"
#include "matrix/qr.hpp"
#include "mp/mp_runtime.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Machine free_machine(CycleTimeGrid grid) {
  return Machine{std::move(grid), NetworkModel::free()};
}

// Compute seconds summed over all processors.
double total_busy(const MpReport& rep) {
  double t = 0.0;
  for (double b : rep.busy) t += b;
  return t;
}

// Max absolute column sum.
double norm_one(const ConstMatrixView& a) {
  double worst = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += std::abs(a(i, j));
    worst = std::max(worst, sum);
  }
  return worst;
}

bool same_bits(const ConstMatrixView& a, const ConstMatrixView& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

// ----------------------------------------------------- block reflector T

TEST(QrFormT, SingleReflectorIsTau) {
  Rng rng(1);
  Matrix panel(6, 1);
  fill_random(panel.view(), rng);
  const QrResult res = qr_factor(panel.view());
  const Matrix t = qr_form_t(panel.view(), res.tau);
  EXPECT_DOUBLE_EQ(t(0, 0), res.tau[0]);
}

TEST(QrFormT, BlockReflectorEqualsReflectorProduct) {
  // (I - V T V^T) x must equal H_0 H_1 ... H_{b-1} x = Q^T' ... applied via
  // qr_apply_qt's reflector loop on a tall panel.
  Rng rng(2);
  const std::size_t m = 10, b = 4;
  Matrix panel(m, b);
  fill_random(panel.view(), rng);
  Matrix packed(m, b);
  packed.view().copy_from(panel.view());
  const QrResult res = qr_factor(packed.view());
  const Matrix t = qr_form_t(packed.view(), res.tau);

  // V: unit lower trapezoid.
  Matrix v(m, b, 0.0);
  for (std::size_t j = 0; j < b; ++j) {
    v(j, j) = 1.0;
    for (std::size_t i = j + 1; i < m; ++i) v(i, j) = packed(i, j);
  }

  Rng rng2(3);
  Matrix x(m, 2), x_wy(m, 2);
  fill_random(x.view(), rng2);
  x_wy.view().copy_from(x.view());

  // Reference: apply reflectors in forward order (this is Q^T x).
  qr_apply_qt(packed.view(), res.tau, x.view());

  // Compact WY: Q^T = I - V T^T V^T  (since Q = H_0...H_{b-1} = I - V T V^T,
  // Q^T = I - V T^T V^T).
  Matrix w(b, 2, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, v.view(), x_wy.view(), 0.0, w.view());
  Matrix y(b, 2, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, t.view(), w.view(), 0.0, y.view());
  gemm(Trans::No, Trans::No, -1.0, v.view(), y.view(), 1.0, x_wy.view());

  EXPECT_LT(max_abs_diff(x.view(), x_wy.view()), 1e-12);
}

// ----------------------------------------------------- distributed QR

TEST(RuntimeQr, ReconstructsOriginalMatrix) {
  const std::size_t n = 24, block = 6;
  Rng rng(11);
  Matrix orig(n, n);
  fill_random(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());

  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::from_counts(
      {3, 1}, {2, 1}, g, PanelOrder::kContiguous, PanelOrder::kContiguous,
      "het");
  const MpQrReport rep = run_mp_qr(free_machine(g), d, a.view(), block);
  ASSERT_EQ(rep.tau.size(), n);

  const Matrix qmat = qr_form_q(a.view(), rep.tau);
  Matrix r(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  Matrix prod(n, n, 0.0);
  gemm(Trans::No, Trans::No, 1.0, qmat.view(), r.view(), 0.0, prod.view());
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()), 1e-10);
}

TEST(RuntimeQr, MatchesSequentialUnblockedFactors) {
  // The blocked compact-WY algorithm produces the same packed reflectors
  // and R as the unblocked sequential QR, up to roundoff.
  const std::size_t n = 18, block = 6;
  Rng rng(12);
  Matrix orig(n, n);
  fill_random(orig.view(), rng);
  Matrix seq(n, n), par(n, n);
  seq.view().copy_from(orig.view());
  par.view().copy_from(orig.view());

  const QrResult sres = qr_factor(seq.view());
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const MpQrReport rep = run_mp_qr(free_machine(g), d, par.view(), block);

  EXPECT_LT(max_abs_diff(seq.view(), par.view()), 1e-10);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(sres.tau[i], rep.tau[i], 1e-10) << "tau " << i;
}

TEST(RuntimeQr, RaggedBlocksStillCorrect) {
  const std::size_t n = 22, block = 5;
  Rng rng(13);
  Matrix orig(n, n);
  fill_random(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const MpQrReport rep = run_mp_qr(free_machine(g), d, a.view(), block);

  const Matrix qmat = qr_form_q(a.view(), rep.tau);
  Matrix r(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  Matrix prod(n, n, 0.0);
  gemm(Trans::No, Trans::No, 1.0, qmat.view(), r.view(), 0.0, prod.view());
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()), 1e-10);
}

TEST(RuntimeQr, ChargesMoreThanLuOnSameMachine) {
  const std::size_t n = 24, block = 4;
  Rng rng(14);
  Matrix a1(n, n), a2(n, n);
  fill_diagonally_dominant(a1.view(), rng);
  a2.view().copy_from(a1.view());
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = free_machine(g);
  const MpReport lu = run_mp_lu(m, d, a1.view(), block);
  const MpQrReport qr = run_mp_qr(m, d, a2.view(), block);
  EXPECT_GT(total_busy(qr), total_busy(lu));
}

// ----------------------------------------------------- distributed Cholesky

TEST(RuntimeCholesky, ReconstructsSpdMatrix) {
  const std::size_t n = 24, block = 6;
  Rng rng(21);
  Matrix orig(n, n);
  fill_spd(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());

  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::from_counts(
      {3, 1}, {2, 1}, g, PanelOrder::kContiguous, PanelOrder::kInterleaved,
      "het");
  const MpReport rep = run_mp_cholesky(free_machine(g), d, a.view(), block);
  ASSERT_TRUE(rep.factorized);
  const Matrix rec = cholesky_reconstruct(a.view());
  EXPECT_LT(max_abs_diff(rec.view(), orig.view()) / norm_max(orig.view()),
            1e-12);
}

TEST(RuntimeCholesky, MatchesSequentialBlockedFactors) {
  const std::size_t n = 20, block = 5;
  Rng rng(22);
  Matrix orig(n, n);
  fill_spd(orig.view(), rng);
  Matrix seq(n, n), par(n, n);
  seq.view().copy_from(orig.view());
  par.view().copy_from(orig.view());

  ASSERT_TRUE(cholesky_factor_blocked(seq.view(), block));
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  ASSERT_TRUE(
      run_mp_cholesky(free_machine(g), d, par.view(), block).factorized);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i)
      EXPECT_NEAR(seq(i, j), par(i, j), 1e-10) << i << "," << j;
}

TEST(RuntimeCholesky, BusyMatchesSimulator) {
  const std::size_t n = 24, block = 4, nb = n / block;
  Rng rng(23);
  Matrix a(n, n);
  fill_spd(a.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = free_machine(g);
  const MpReport vr = run_mp_cholesky(m, d, a.view(), block);
  const SimReport sr = simulate_cholesky(m, d, nb);
  ASSERT_EQ(vr.busy.size(), sr.busy.size());
  for (std::size_t i = 0; i < vr.busy.size(); ++i)
    EXPECT_NEAR(vr.busy[i], sr.busy[i], 1e-9) << "proc " << i;
}

TEST(RuntimeCholesky, ReportsNonSpdMatrix) {
  Matrix a(6, 6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) = -1.0;
  const Machine m = free_machine(CycleTimeGrid(1, 1, {1.0}));
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  EXPECT_FALSE(run_mp_cholesky(m, d, a.view(), 2).factorized);
}

TEST(RuntimeCholesky, CheaperThanLuOnSameMatrix) {
  // Cholesky does about half the work of LU (triangular trailing update).
  const std::size_t n = 32, block = 4;
  Rng rng(24);
  Matrix spd(n, n);
  fill_spd(spd.view(), rng);
  Matrix a_lu(n, n), a_ch(n, n);
  a_lu.view().copy_from(spd.view());
  a_ch.view().copy_from(spd.view());
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m = free_machine(g);
  const double t_lu = total_busy(run_mp_lu(m, d, a_lu.view(), block));
  const double t_ch = total_busy(run_mp_cholesky(m, d, a_ch.view(), block));
  EXPECT_LT(t_ch, t_lu);
}

// ----------------------------------------------------- pivoted LU

TEST(RuntimePivotedLu, MatchesSequentialBlockedFactorsExactly) {
  // Same pivot path as lu_factor_blocked => identical factors and ipiv.
  const std::size_t n = 24, block = 6;
  Rng rng(61);
  Matrix orig(n, n);
  fill_random(orig.view(), rng);  // general matrix: pivoting required
  Matrix seq(n, n), par(n, n);
  seq.view().copy_from(orig.view());
  par.view().copy_from(orig.view());

  const LuResult sres = lu_factor_blocked(seq.view(), block);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const MpPivotedLuReport rep =
      run_mp_lu_pivoted(free_machine(g), d, par.view(), block);

  EXPECT_FALSE(rep.singular);
  EXPECT_EQ(rep.piv, sres.piv);
  EXPECT_TRUE(same_bits(seq.view(), par.view()));
}

TEST(RuntimePivotedLu, SolvesGeneralSystem) {
  const std::size_t n = 30, block = 5;
  Rng rng(62);
  Matrix a_orig(n, n);
  fill_random(a_orig.view(), rng);
  Matrix x_true(n, 1);
  fill_random(x_true.view(), rng);
  Matrix b(n, 1, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a_orig.view(), x_true.view(), 0.0,
       b.view());

  Matrix lu(n, n);
  lu.view().copy_from(a_orig.view());
  const CycleTimeGrid g(2, 3, {1, 2, 3, 2, 4, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 3);
  const MpPivotedLuReport rep =
      run_mp_lu_pivoted(free_machine(g), d, lu.view(), block);
  ASSERT_FALSE(rep.singular);
  lu_solve(lu.view(), rep.piv, b.view());
  EXPECT_LT(max_abs_diff(b.view(), x_true.view()), 1e-9);
}

TEST(RuntimePivotedLu, RowSwapsTravelAsMessages) {
  // Every message except the swap bundles depends only on the shapes, so a
  // run whose pivots are all on the diagonal bounds the traffic from
  // below; random data forces cross-processor swaps on top of it.
  const std::size_t n = 24, block = 4;
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  Machine m = free_machine(g);
  m.net = {Topology::kSwitched, 1e-3, 1e-3, true};

  Matrix ident(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) ident(i, i) = 2.0;
  const MpPivotedLuReport still = run_mp_lu_pivoted(m, d, ident.view(), block);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(still.piv[i], i);

  Rng rng(63);
  Matrix a(n, n);
  fill_random(a.view(), rng);
  const MpPivotedLuReport moved = run_mp_lu_pivoted(m, d, a.view(), block);
  EXPECT_GT(moved.messages, still.messages);
  EXPECT_GT(moved.blocks_moved, still.blocks_moved);
  EXPECT_EQ(moved.busy, still.busy);  // swaps are communication only
}

TEST(RuntimePivotedLu, DetectsSingularMatrix) {
  // A singular input runs to completion, like lu_factor_blocked.
  const std::size_t n = 6;
  Matrix a(n, n, 1.0);  // rank 1
  Matrix seq(n, n, 1.0);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const MpPivotedLuReport rep =
      run_mp_lu_pivoted(free_machine(g), d, a.view(), 2);
  const LuResult sres = lu_factor_blocked(seq.view(), 2);
  EXPECT_TRUE(rep.singular);
  EXPECT_EQ(rep.piv, sres.piv);
  EXPECT_TRUE(same_bits(a.view(), seq.view()));
}

TEST(RuntimePivotedLu, ScaledBackwardErrorOnGeneralMatrix) {
  // ||PA - LU||_1 / (n eps ||A||_1) <= 1 on a general (non-dominant)
  // matrix, for every thread count.
  const std::size_t n = 512, block = 64;
  Rng rng(64);
  Matrix orig(n, n);
  fill_random(orig.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::from_counts(
      {3, 1}, {2, 1}, g, PanelOrder::kContiguous, PanelOrder::kInterleaved,
      "het");
  for (unsigned threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Matrix lu(n, n);
    lu.view().copy_from(orig.view());
    RuntimeOptions opts;
    opts.threads = threads;
    const MpPivotedLuReport rep = run_mp_lu_pivoted(
        free_machine(g), d, lu.view(), block, {}, nullptr, opts);
    ASSERT_FALSE(rep.singular);
    Matrix pa(n, n);
    pa.view().copy_from(orig.view());
    lu_apply_pivots(rep.piv, pa.view());
    const Matrix prod = lu_reconstruct(lu.view(), n);
    Matrix diff(n, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) diff(i, j) = pa(i, j) - prod(i, j);
    const double eps = std::numeric_limits<double>::epsilon();
    EXPECT_LE(norm_one(diff.view()) /
                  (static_cast<double>(n) * eps * norm_one(orig.view())),
              1.0);
  }
}

// ----------------------------------------------------- simulator parity

TEST(SimCholesky, PerfectBoundAndMonotonicity) {
  Rng rng(25);
  for (int trial = 0; trial < 10; ++trial) {
    const CycleTimeGrid g(2, 2, rng.cycle_times(4, 0.05));
    const Machine m{g, NetworkModel::free()};
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const SimReport rep = simulate_cholesky(m, d, 16);
    EXPECT_GE(rep.total_time, rep.perfect_compute_bound - 1e-9);
    EXPECT_DOUBLE_EQ(rep.total_time, rep.compute_time + rep.comm_time);
  }
}

TEST(SimCholesky, HeterogeneousPanelBeatsBlockCyclic) {
  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 6});
  const Machine m{h.final().grid, NetworkModel::free()};
  const PanelDistribution het = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 8, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het");
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
  EXPECT_LT(simulate_cholesky(m, het, 48).total_time,
            simulate_cholesky(m, bc, 48).total_time);
}

}  // namespace
}  // namespace hetgrid
