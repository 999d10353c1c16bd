#include "matrix/qr.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "matrix/gemm.hpp"
#include "matrix/trsm.hpp"

namespace hetgrid {

namespace {

// Applies the reflector H = I - tau * v v^T (v stored in col k of `qr`
// below the diagonal, v[k] = 1 implicit — qr(k, k) is never read) to the
// columns of `target`, rows k..m.
void apply_reflector(const ConstMatrixView& qr, std::size_t k, double tau,
                     MatrixView target) {
  if (tau == 0.0) return;
  const std::size_t m = qr.rows();
  for (std::size_t j = 0; j < target.cols(); ++j) {
    // w = v^T * target(k:m, j)
    double w = target(k, j);
    for (std::size_t i = k + 1; i < m; ++i) w += qr(i, k) * target(i, j);
    w *= tau;
    target(k, j) -= w;
    for (std::size_t i = k + 1; i < m; ++i) target(i, j) -= qr(i, k) * w;
  }
}

// Euclidean norm of x[0, len). The plain sum of squares is kept whenever it
// is finite and at least kSafeMin, so normal-range columns keep their bits.
// Otherwise the squares overflowed or lost digits to underflow, and the sum
// is redone on the column scaled by the power of two that brings its
// largest entry near 1 — an exact scaling, undone on the result.
double column_norm(const double* x, std::size_t len) {
  constexpr double kSafeMin = DBL_MIN / DBL_EPSILON;
  double norm2 = 0.0;
  for (std::size_t i = 0; i < len; ++i) norm2 += x[i] * x[i];
  if (std::isfinite(norm2) && norm2 >= kSafeMin) return std::sqrt(norm2);
  double amax = 0.0;
  for (std::size_t i = 0; i < len; ++i) amax = std::max(amax, std::abs(x[i]));
  if (amax == 0.0 || !std::isfinite(amax)) return std::sqrt(norm2);
  const int e = std::ilogb(amax);
  double scaled2 = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const double y = std::ldexp(x[i], -e);
    scaled2 += y * y;
  }
  return std::ldexp(std::sqrt(scaled2), e);
}

// Unblocked Householder QR (geqr2) of `a`, writing tau[0, a.cols()).
void factor_unblocked(MatrixView a, double* tau) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k.
    const double norm = column_norm(&a(k, k), m - k);
    if (norm == 0.0) {
      tau[k] = 0.0;
      continue;
    }
    const double alpha = a(k, k);
    const double beta = (alpha >= 0.0) ? -norm : norm;
    const double v0 = alpha - beta;
    tau[k] = -v0 / beta;  // == (beta - alpha)/beta, in (0, 2]
    // Normalize so v[k] = 1.
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) /= v0;
    a(k, k) = beta;

    if (k + 1 < n)
      apply_reflector(a, k, tau[k], a.block(0, k + 1, m, n - (k + 1)));
  }
}

// The b x b head of the unit-lower trapezoid V stored in `panel`: ones on
// the diagonal, panel entries below, zeros above. Rows b.. of V are the
// panel itself and are read in place.
Matrix unit_lower_head(const ConstMatrixView& panel) {
  const std::size_t b = panel.cols();
  Matrix v0(b, b, 0.0);
  for (std::size_t j = 0; j < b; ++j) {
    v0(j, j) = 1.0;
    for (std::size_t i = j + 1; i < b; ++i) v0(i, j) = panel(i, j);
  }
  return v0;
}

// Width of the left half when a panel of n > kQrInnerBlock columns is
// split: whole inner blocks, so the leaves are the same kQrInnerBlock-wide
// sub-panels a left-to-right sweep would visit.
std::size_t split_width(std::size_t n) {
  const std::size_t blocks = (n + kQrInnerBlock - 1) / kQrInnerBlock;
  return kQrInnerBlock * ((blocks + 1) / 2);
}

// larft into `t` (b x b, zero below the diagonal on entry): T from
// G = V^T V (one gemm on the head copy, one on the tail in place) and the
// O(b^3) recurrence T(0:i, i) = -tau_i T(0:i, 0:i) G(0:i, i).
void form_t_leaf(const ConstMatrixView& panel, const double* tau,
                 MatrixView t) {
  const std::size_t m = panel.rows();
  const std::size_t b = panel.cols();
  const Matrix v0 = unit_lower_head(panel);
  Matrix g(b, b);
  gemm(Trans::Yes, Trans::No, 1.0, v0.view(), v0.view(), 0.0, g.view());
  const ConstMatrixView v_tail = panel.block(b, 0, m - b, b);
  gemm(Trans::Yes, Trans::No, 1.0, v_tail, v_tail, 1.0, g.view());

  for (std::size_t i = 0; i < b; ++i) {
    t(i, i) = tau[i];
    if (i == 0 || tau[i] == 0.0) continue;
    for (std::size_t r = 0; r < i; ++r) {
      double acc = 0.0;
      for (std::size_t c = r; c < i; ++c) acc += t(r, c) * g(c, i);
      t(r, i) = -tau[i] * acc;
    }
  }
}

// Completes `t` (n x n) for a panel whose first n1 columns have their
// factor T1 in t's leading block and whose remaining columns (V2 from row
// n1 down) have T2 in its trailing block: T12 = -T1 (V1^T V2) T2.
void merge_t(const ConstMatrixView& panel, std::size_t n1, MatrixView t) {
  const std::size_t m = panel.rows();
  const std::size_t n = panel.cols();
  const std::size_t n2 = n - n1;
  // V2 is zero above row n1, so V1^T V2 only sees V1's rows n1.., which
  // lie strictly below V1's diagonal and are read in place.
  const ConstMatrixView v2 = panel.block(n1, n1, m - n1, n2);
  const Matrix v2_head = unit_lower_head(v2);
  Matrix w(n1, n2);
  gemm(Trans::Yes, Trans::No, 1.0, panel.block(n1, 0, n2, n1), v2_head.view(),
       0.0, w.view());
  gemm(Trans::Yes, Trans::No, 1.0, panel.block(n, 0, m - n, n1),
       v2.block(n2, 0, m - n, n2), 1.0, w.view());
  Matrix x(n1, n2);
  gemm(Trans::No, Trans::No, -1.0, t.block(0, 0, n1, n1), w.view(), 0.0,
       x.view());
  gemm(Trans::No, Trans::No, 1.0, x.view(), t.block(n1, n1, n2, n2), 0.0,
       t.block(0, n1, n1, n2));
}

// Recursive larft into `t` (zero below the diagonal on entry): halves down
// to kQrInnerBlock-wide leaves and merges, so the V^T V work runs as a few
// large gemms on the off-diagonal blocks.
void form_t(const ConstMatrixView& panel, const double* tau, MatrixView t) {
  const std::size_t m = panel.rows();
  const std::size_t n = panel.cols();
  if (n <= kQrInnerBlock) {
    form_t_leaf(panel, tau, t);
    return;
  }
  const std::size_t n1 = split_width(n);
  form_t(panel.block(0, 0, m, n1), tau, t.block(0, 0, n1, n1));
  form_t(panel.block(n1, n1, m - n1, n - n1), tau + n1,
         t.block(n1, n1, n - n1, n - n1));
  merge_t(panel, n1, t);
}

// C := H^T C for the block reflector H = I - V T V^T of the factored
// `panel` (larfb, left, transposed, forward columnwise): W = V^T C,
// Y = T^T W, C -= V Y.
void apply_block_reflector_t(const ConstMatrixView& panel,
                             const ConstMatrixView& t, MatrixView c) {
  const std::size_t m = panel.rows();
  const std::size_t b = panel.cols();
  const std::size_t nc = c.cols();
  const Matrix v0 = unit_lower_head(panel);
  const ConstMatrixView v_tail = panel.block(b, 0, m - b, b);
  const MatrixView c_head = c.block(0, 0, b, nc);
  const MatrixView c_tail = c.block(b, 0, m - b, nc);

  Matrix w(b, nc);
  gemm(Trans::Yes, Trans::No, 1.0, v0.view(), c_head, 0.0, w.view());
  gemm(Trans::Yes, Trans::No, 1.0, v_tail, c_tail, 1.0, w.view());
  Matrix y(b, nc);
  gemm(Trans::Yes, Trans::No, 1.0, t, w.view(), 0.0, y.view());
  gemm(Trans::No, Trans::No, -1.0, v0.view(), y.view(), 1.0, c_head);
  gemm(Trans::No, Trans::No, -1.0, v_tail, y.view(), 1.0, c_tail);
}

// Recursive blocked QR (Elmroth-Gustavson): factor the left half, update
// the right half with its block reflector, factor the right half below the
// left one's rows. Leaves of at most kQrInnerBlock columns run the
// unblocked loop. When `t` is non-null (the caller's next update needs the
// panel's T), T is written into it, zero below the diagonal on entry.
void factor_recursive(MatrixView a, double* tau, const MatrixView* t) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (n <= kQrInnerBlock) {
    factor_unblocked(a, tau);
    if (t != nullptr) form_t_leaf(a, tau, *t);
    return;
  }
  const std::size_t n1 = split_width(n);
  const std::size_t n2 = n - n1;
  const MatrixView left = a.block(0, 0, m, n1);
  // The left half's T is needed for the update either way; it goes
  // straight into the caller's T when there is one.
  Matrix own_t1;
  if (t == nullptr) own_t1 = Matrix(n1, n1, 0.0);
  const MatrixView t1 = t != nullptr ? t->block(0, 0, n1, n1) : own_t1.view();
  factor_recursive(left, tau, &t1);
  apply_block_reflector_t(left, t1, a.block(0, n1, m, n2));
  const MatrixView right = a.block(n1, n1, m - n1, n2);
  if (t == nullptr) {
    factor_recursive(right, tau + n1, nullptr);
    return;
  }
  const MatrixView t2 = t->block(n1, n1, n2, n2);
  factor_recursive(right, tau + n1, &t2);
  merge_t(a, n1, *t);
}

}  // namespace

QrResult qr_factor(MatrixView a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HG_CHECK(m >= n, "qr_factor requires rows >= cols, got " << m << "x" << n);
  QrResult res;
  res.tau.assign(n, 0.0);
  factor_recursive(a, res.tau.data(), nullptr);
  return res;
}

void qr_apply_qt(const ConstMatrixView& qr, const std::vector<double>& tau,
                 MatrixView b) {
  HG_CHECK(b.rows() == qr.rows(), "rhs shape mismatch");
  // Q^T = H_{n-1} ... H_1 H_0 applied in forward order.
  for (std::size_t k = 0; k < tau.size(); ++k)
    apply_reflector(qr, k, tau[k], b);
}

Matrix qr_form_q(const ConstMatrixView& qr, const std::vector<double>& tau) {
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  // Start from the first n columns of I and apply H_0 H_1 ... H_{n-1} in
  // reverse order.
  Matrix q(m, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
  for (std::size_t kk = tau.size(); kk > 0; --kk)
    apply_reflector(qr, kk - 1, tau[kk - 1], q.view());
  return q;
}

Matrix qr_form_t(const ConstMatrixView& panel,
                 const std::vector<double>& tau) {
  const std::size_t m = panel.rows();
  const std::size_t b = panel.cols();
  HG_CHECK(tau.size() == b, "tau size mismatch");
  HG_CHECK(m >= b, "qr_form_t requires rows >= cols, got " << m << "x" << b);
  Matrix t(b, b, 0.0);
  form_t(panel, tau.data(), t.view());
  return t;
}

void qr_solve(const ConstMatrixView& qr, const std::vector<double>& tau,
              MatrixView b) {
  const std::size_t n = qr.cols();
  qr_apply_qt(qr, tau, b);
  // R is the upper triangle of qr; trsm_left_upper reads nothing below it.
  trsm_left_upper(qr.block(0, 0, n, n), b.block(0, 0, n, b.cols()));
}

}  // namespace hetgrid
