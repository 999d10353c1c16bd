// Tests for the Householder QR factorization.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <string_view>

#include "matrix/gemm.hpp"
#include "matrix/norms.hpp"
#include "matrix/qr.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  fill_random(a.view(), rng);
  return a;
}

Matrix extract_r(const Matrix& qr) {
  const std::size_t n = qr.cols();
  Matrix r(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = qr(i, j);
  return r;
}

Matrix copy_of(const ConstMatrixView& a) {
  Matrix c(a.rows(), a.cols());
  c.view().copy_from(a);
  return c;
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

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ||A - Q R||_inf / (n * eps * ||A||_inf) for the factors qr_factor left in
// `factored`. Row sums never square an entry, so the measure itself stays
// finite on extreme-scale inputs.
double scaled_backward_error(const ConstMatrixView& orig,
                             const ConstMatrixView& factored,
                             const std::vector<double>& tau) {
  const std::size_t m = orig.rows(), n = orig.cols();
  const Matrix q = qr_form_q(factored, tau);
  Matrix r(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = factored(i, j);
  Matrix resid(m, n);
  resid.view().copy_from(orig);
  gemm(Trans::No, Trans::No, 1.0, q.view(), r.view(), -1.0, resid.view());
  return norm_inf(resid.view()) /
         (static_cast<double>(n) * DBL_EPSILON * norm_inf(orig));
}

// Oracle: the unblocked Householder QR (geqr2) with a plain sum-of-squares
// column norm, exactly as qr_factor computed it before blocking. qr_factor
// must match it bit for bit on panels at most kQrInnerBlock wide.
std::vector<double> qr_factor_unblocked_oracle(MatrixView a) {
  const std::size_t m = a.rows(), n = a.cols();
  std::vector<double> tau(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += a(i, k) * a(i, k);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;
    const double alpha = a(k, k);
    const double beta = (alpha >= 0.0) ? -norm : norm;
    const double v0 = alpha - beta;
    tau[k] = -v0 / beta;
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) /= v0;
    a(k, k) = beta;
    if (tau[k] == 0.0) continue;
    for (std::size_t j = k + 1; j < n; ++j) {
      double w = a(k, j);
      for (std::size_t i = k + 1; i < m; ++i) w += a(i, k) * a(i, j);
      w *= tau[k];
      a(k, j) -= w;
      for (std::size_t i = k + 1; i < m; ++i) a(i, j) -= a(i, k) * w;
    }
  }
  return tau;
}

// Oracle: the element-by-element larft triple loop qr_form_t replaced.
Matrix qr_form_t_oracle(const ConstMatrixView& panel,
                        const std::vector<double>& tau) {
  const std::size_t m = panel.rows(), b = panel.cols();
  auto v_at = [&](std::size_t r, std::size_t i) -> double {
    if (r < i) return 0.0;
    if (r == i) return 1.0;
    return panel(r, i);
  };
  Matrix t(b, b, 0.0);
  for (std::size_t i = 0; i < b; ++i) {
    t(i, i) = tau[i];
    if (i == 0 || tau[i] == 0.0) continue;
    std::vector<double> w(i, 0.0);
    for (std::size_t c = 0; c < i; ++c) {
      double acc = 0.0;
      for (std::size_t r = i; r < m; ++r) acc += v_at(r, c) * v_at(r, i);
      w[c] = acc;
    }
    for (std::size_t r = 0; r < i; ++r) {
      double acc = 0.0;
      for (std::size_t c = r; c < i; ++c) acc += t(r, c) * w[c];
      t(r, i) = -tau[i] * acc;
    }
  }
  return t;
}

// Restores runtime kernel detection no matter how a test exits.
struct KernelGuard {
  ~KernelGuard() { gemm_force_kernel("auto"); }
};

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, QTimesRReconstructsA) {
  const auto [m, n] = GetParam();
  const Matrix orig = random_matrix(m, n, static_cast<std::uint64_t>(m * 7 + n));
  Matrix a(m, n);
  a.view().copy_from(orig.view());
  const QrResult res = qr_factor(a.view());

  const Matrix q = qr_form_q(a.view(), res.tau);
  const Matrix r = extract_r(a);
  Matrix prod(m, n, 0.0);
  gemm(Trans::No, Trans::No, 1.0, q.view(), r.view(), 0.0, prod.view());
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()), 1e-11);
}

TEST_P(QrShapes, QHasOrthonormalColumns) {
  const auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, static_cast<std::uint64_t>(m * 13 + n));
  const QrResult res = qr_factor(a.view());
  const Matrix q = qr_form_q(a.view(), res.tau);
  Matrix qtq(n, n, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), q.view(), 0.0, qtq.view());
  EXPECT_LT(max_abs_diff(qtq.view(), Matrix::identity(n).view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(5, 3),
                                           std::make_pair(10, 10),
                                           std::make_pair(40, 12),
                                           std::make_pair(33, 33)));

TEST(Qr, RequiresTallMatrix) {
  Matrix a(2, 3, 1.0);
  EXPECT_THROW(qr_factor(a.view()), PreconditionError);
}

TEST(Qr, ApplyQtInvertsQ) {
  const std::size_t m = 15, n = 6;
  Matrix a = random_matrix(m, n, 77);
  const QrResult res = qr_factor(a.view());
  const Matrix q = qr_form_q(a.view(), res.tau);

  Rng rng(78);
  Matrix x(n, 2);
  fill_random(x.view(), rng);
  Matrix qx(m, 2, 0.0);
  gemm(Trans::No, Trans::No, 1.0, q.view(), x.view(), 0.0, qx.view());
  qr_apply_qt(a.view(), res.tau, qx.view());
  // Top n rows of Q^T (Q x) must equal x.
  EXPECT_LT(max_abs_diff(qx.block(0, 0, n, 2), x.view()), 1e-12);
}

TEST(Qr, SolvesConsistentSquareSystem) {
  const std::size_t n = 20;
  Matrix a_orig = random_matrix(n, n, 31);
  Rng rng(32);
  Matrix x_true(n, 1);
  fill_random(x_true.view(), rng);
  Matrix b(n, 1, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a_orig.view(), x_true.view(), 0.0,
       b.view());

  Matrix qr(n, n);
  qr.view().copy_from(a_orig.view());
  const QrResult res = qr_factor(qr.view());
  qr_solve(qr.view(), res.tau, b.view());
  EXPECT_LT(max_abs_diff(b.block(0, 0, n, 1), x_true.view()), 1e-9);
}

TEST(Qr, LeastSquaresResidualIsOrthogonalToRange) {
  // Overdetermined system: residual r = A x - b must satisfy A^T r = 0.
  const std::size_t m = 25, n = 8;
  const Matrix a = random_matrix(m, n, 53);
  Rng rng(54);
  Matrix b(m, 1);
  fill_random(b.view(), rng);

  Matrix qr(m, n);
  qr.view().copy_from(a.view());
  const QrResult res = qr_factor(qr.view());
  Matrix rhs(m, 1);
  rhs.view().copy_from(b.view());
  qr_solve(qr.view(), res.tau, rhs.view());
  const ConstMatrixView x = rhs.block(0, 0, n, 1);

  Matrix resid(m, 1);
  resid.view().copy_from(b.view());
  gemm(Trans::No, Trans::No, 1.0, a.view(), x, -1.0, resid.view());
  // resid now holds A x - b.
  Matrix at_r(n, 1, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, a.view(), resid.view(), 0.0, at_r.view());
  EXPECT_LT(norm_max(at_r.view()), 1e-10);
}

TEST(Qr, ZeroColumnGetsZeroTau) {
  Matrix a(4, 2, 0.0);
  a(0, 1) = 1.0;  // first column all zero
  const QrResult res = qr_factor(a.view());
  EXPECT_DOUBLE_EQ(res.tau[0], 0.0);
}

TEST(Qr, DiagonalOfRHasMagnitudeOfColumnNorms) {
  // For a matrix with orthogonal columns, |R_jj| equals the column norm.
  Matrix a(4, 2, 0.0);
  a(0, 0) = 3.0;
  a(1, 0) = 4.0;  // ||col0|| = 5
  a(2, 1) = 12.0;
  a(3, 1) = 5.0;  // ||col1|| = 13, orthogonal to col0
  const QrResult res = qr_factor(a.view());
  EXPECT_NEAR(std::abs(a(0, 0)), 5.0, 1e-12);
  EXPECT_NEAR(std::abs(a(1, 1)), 13.0, 1e-12);
}

// ----------------------------------------------------- blocked panel

constexpr std::size_t kIb = kQrInnerBlock;

// Shapes around the inner width: a multiple of it, one column past a
// multiple, a non-multiple, one with fewer rows than it, and squares.
class QrBlockedShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(QrBlockedShapes, MatchesUnblockedFactorsAndReconstructs) {
  const auto [m, n] = GetParam();
  const Matrix orig = random_matrix(m, n, m * 31 + n);
  Matrix a = copy_of(orig.view());
  const QrResult res = qr_factor(a.view());
  Matrix ref = copy_of(orig.view());
  const std::vector<double> ref_tau = qr_factor_unblocked_oracle(ref.view());

  // Householder QR is unique under the sign convention, so the blocked
  // factors equal the unblocked ones up to rounding.
  EXPECT_LT(max_abs_diff(a.view(), ref.view()) / norm_max(ref.view()), 1e-12);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(res.tau[k], ref_tau[k], 1e-12) << "k=" << k;
  EXPECT_LT(scaled_backward_error(orig.view(), a.view(), res.tau), 1.0);

  const Matrix q = qr_form_q(a.view(), res.tau);
  Matrix qtq(n, n, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), q.view(), 0.0, qtq.view());
  EXPECT_LT(max_abs_diff(qtq.view(), Matrix::identity(n).view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AroundInnerWidth, QrBlockedShapes,
    ::testing::Values(std::make_pair(4 * kIb, 2 * kIb),
                      std::make_pair(16 * kIb + 1, 4 * kIb + 1),
                      std::make_pair(std::size_t{300}, std::size_t{100}),
                      std::make_pair(kIb - 5, kIb - 9),
                      std::make_pair(3 * kIb, 3 * kIb),
                      std::make_pair(std::size_t{101}, std::size_t{101}),
                      std::make_pair(kIb + 1, kIb + 1)));

TEST(QrBlocked, BitIdenticalToUnblockedUpToInnerWidth) {
  for (const auto& [m, n] :
       {std::make_pair(kIb, kIb), std::make_pair(std::size_t{200}, kIb),
        std::make_pair(std::size_t{57}, kIb - 1),
        std::make_pair(std::size_t{6}, std::size_t{6})}) {
    SCOPED_TRACE(testing::Message() << m << "x" << n);
    const Matrix orig = random_matrix(m, n, m + 3 * n);
    Matrix a = copy_of(orig.view());
    Matrix ref = copy_of(orig.view());
    const QrResult res = qr_factor(a.view());
    EXPECT_TRUE(same_bits(res.tau, qr_factor_unblocked_oracle(ref.view())));
    EXPECT_TRUE(same_bits(a.view(), ref.view()));
  }
}

TEST(QrBlocked, ZeroAndDependentColumnsInsideASubPanel) {
  // Column kIb + 3 is zero and column kIb + 7 repeats a combination of
  // columns 1 and kIb + 5, both inside the second leaf sub-panel: the zero
  // column must stay exactly zero through the first leaf's block update
  // (tau = 0) and the dependent one must not break the factorization.
  const std::size_t m = 5 * kIb, n = 3 * kIb;
  Matrix orig = random_matrix(m, n, 91);
  for (std::size_t i = 0; i < m; ++i) {
    orig(i, kIb + 3) = 0.0;
    orig(i, kIb + 7) = 2.0 * orig(i, 1) - 0.5 * orig(i, kIb + 5);
  }
  Matrix a = copy_of(orig.view());
  const QrResult res = qr_factor(a.view());
  EXPECT_EQ(res.tau[kIb + 3], 0.0);
  for (std::size_t i = kIb + 4; i < m; ++i)
    EXPECT_EQ(a(i, kIb + 3), 0.0) << "row " << i;
  EXPECT_LT(std::abs(a(kIb + 7, kIb + 7)), 1e-12 * norm_max(orig.view()));
  for (const double t : res.tau) EXPECT_TRUE(std::isfinite(t));
  EXPECT_LT(scaled_backward_error(orig.view(), a.view(), res.tau), 1.0);

  Matrix ref = copy_of(orig.view());
  qr_factor_unblocked_oracle(ref.view());
  // Columns up to the dependent one agree with the unblocked factors.
  EXPECT_LT(max_abs_diff(a.block(0, 0, m, kIb + 7),
                         ref.block(0, 0, m, kIb + 7)),
            1e-12);
}

TEST(QrBlocked, FormTMatchesTripleLoop) {
  for (const auto& [m, b] :
       {std::make_pair(std::size_t{1}, std::size_t{1}),
        std::make_pair(std::size_t{40}, std::size_t{12}),
        std::make_pair(kIb, kIb), std::make_pair(std::size_t{257}, 2 * kIb + 1),
        std::make_pair(std::size_t{512}, 4 * kIb),
        std::make_pair(std::size_t{100}, std::size_t{100})}) {
    SCOPED_TRACE(testing::Message() << m << "x" << b);
    Matrix panel = random_matrix(m, b, 7 * m + b);
    const QrResult res = qr_factor(panel.view());
    const Matrix t = qr_form_t(panel.view(), res.tau);
    const Matrix ref = qr_form_t_oracle(panel.view(), res.tau);
    EXPECT_LE(max_abs_diff(t.view(), ref.view()), 1e-13 * norm_max(ref.view()));
  }
}

TEST(QrBlocked, FormTKeepsZeroTauColumnsEmpty) {
  Matrix panel = random_matrix(80, 20, 5);
  for (std::size_t i = 0; i < 80; ++i) panel(i, 6) = 0.0;
  const QrResult res = qr_factor(panel.view());
  ASSERT_EQ(res.tau[6], 0.0);
  const Matrix t = qr_form_t(panel.view(), res.tau);
  for (std::size_t r = 0; r <= 6; ++r) EXPECT_EQ(t(r, 6), 0.0) << "row " << r;
}

TEST(QrBlocked, FormTRequiresTallPanel) {
  const Matrix panel(3, 4, 1.0);
  EXPECT_THROW(qr_form_t(panel.view(), std::vector<double>(4, 1.0)),
               PreconditionError);
}

TEST(QrBlocked, BitIdenticalAcrossGemmKernels) {
  KernelGuard guard;
  const Matrix orig = random_matrix(8 * kIb + 1, 4 * kIb + 3, 17);
  ASSERT_TRUE(gemm_force_kernel("scalar"));
  Matrix base = copy_of(orig.view());
  const QrResult base_res = qr_factor(base.view());
  const Matrix base_t = qr_form_t(base.view(), base_res.tau);
  if (!gemm_force_kernel("avx2")) GTEST_SKIP() << "host lacks AVX2";
  Matrix a = copy_of(orig.view());
  const QrResult res = qr_factor(a.view());
  const Matrix t = qr_form_t(a.view(), res.tau);
  EXPECT_TRUE(same_bits(base.view(), a.view()));
  EXPECT_TRUE(same_bits(base_res.tau, res.tau));
  EXPECT_TRUE(same_bits(base_t.view(), t.view()));
}

TEST(QrBlocked, BackwardErrorScalesWithSize) {
  const std::size_t m = 1024, n = 256;
  const Matrix orig = random_matrix(m, n, 1024);
  Matrix a = copy_of(orig.view());
  const QrResult res = qr_factor(a.view());
  EXPECT_LT(scaled_backward_error(orig.view(), a.view(), res.tau), 1.0);
}

// ----------------------------------------------------- extreme scales

class QrExtremeScale
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(QrExtremeScale, FiniteTauAndSmallScaledBackwardError) {
  // Squares of 1e+-160 entries overflow or go subnormal, and 1e+-200 ones
  // overflow or flush to zero: a plain sum-of-squares norm turned tau into
  // NaN or mistook the column for zero.
  const auto [scale, n] = GetParam();
  const std::size_t m = n + 5;
  Matrix orig = random_matrix(m, n, 6000 + n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) orig(i, j) *= scale;
  Matrix a = copy_of(orig.view());
  const QrResult res = qr_factor(a.view());
  for (const double t : res.tau) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GT(t, 0.0);
  }
  EXPECT_LT(scaled_backward_error(orig.view(), a.view(), res.tau), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    UnblockedAndBlocked, QrExtremeScale,
    ::testing::Combine(::testing::Values(1e160, 1e200, 1e-160, 1e-200),
                       ::testing::Values(std::size_t{6}, 3 * kIb + 5)));

TEST(QrScaling, NormalRangeColumnsKeepTheirBits) {
  // Entries around 1e-140 square to about 1e-280, above the rescale
  // threshold, so the plain sum (and with it every bit) is kept.
  Matrix orig = random_matrix(9, 6, 4);
  for (std::size_t j = 0; j < 6; ++j)
    for (std::size_t i = 0; i < 9; ++i) orig(i, j) *= 1e-140;
  Matrix a = copy_of(orig.view());
  Matrix ref = copy_of(orig.view());
  const QrResult res = qr_factor(a.view());
  EXPECT_TRUE(same_bits(res.tau, qr_factor_unblocked_oracle(ref.view())));
  EXPECT_TRUE(same_bits(a.view(), ref.view()));
}

}  // namespace
}  // namespace hetgrid
