// Householder QR factorization (the paper's second solver kernel, whose
// parallelization mirrors the right-looking LU).
#pragma once

#include <cstddef>
#include <vector>

#include "matrix/matrix.hpp"

namespace hetgrid {

/// Leaf width of the blocked QR panel: qr_factor and qr_form_t halve a
/// panel (in whole leaves) until it is at most this wide, and only leaves
/// run the unblocked Householder loop / the larft recurrence. Fixed, not an
/// option.
inline constexpr std::size_t kQrInnerBlock = 16;

/// In-place Householder QR: after the call, the upper triangle of `a` holds
/// R and the strict lower triangle holds the Householder vectors v_k
/// (normalized so v_k[k] = 1, implicit); `tau[k]` are the reflector scales.
struct QrResult {
  std::vector<double> tau;
};

/// Level-3 blocked Householder QR (recursive geqrf analogue). Requires
/// rows >= cols. The panel is split in two; the left half is factored,
/// then applied to the right half as one block reflector,
/// C -= V (T^T (V^T C)), through the dispatched gemm microkernel (larfb),
/// and the right half is factored below it. Leaves of at most
/// kQrInnerBlock columns run the unblocked loop (geqr2), so a matrix that
/// narrow is factored exactly as the unblocked loop does it. The math is
/// serial, so results are bit-identical across gemm kernels, pack-cache
/// settings and thread counts. A column whose plain sum of squares
/// overflows or underflows has its norm recomputed under an exact
/// power-of-two scaling, so extreme-scale columns factor accurately.
QrResult qr_factor(MatrixView a);

/// Applies Q^T (the product of the stored reflectors, transposed) to `b`
/// in place: b := Q^T b. Needed for least-squares solves.
void qr_apply_qt(const ConstMatrixView& qr, const std::vector<double>& tau,
                 MatrixView b);

/// Materializes the thin Q (rows x cols) from the stored reflectors.
Matrix qr_form_q(const ConstMatrixView& qr, const std::vector<double>& tau);

/// Builds the b x b upper-triangular block-reflector factor T with
/// H_0 H_1 ... H_{b-1} = I - V T V^T, where V is the unit-lower-trapezoid
/// of `panel` (LAPACK larft, forward columnwise). Recursive like
/// qr_factor: each leaf builds V^T V with gemm and runs the O(b^3)
/// triangular recurrence on it; halves merge as T12 = -T1 (V1^T V2) T2,
/// again through gemm. Requires rows >= cols. Needed by the blocked /
/// distributed QR trailing update.
Matrix qr_form_t(const ConstMatrixView& panel, const std::vector<double>& tau);

/// Least-squares solve min ||A x - b||: `qr`/`tau` from qr_factor of A
/// (m x n, m >= n); `b` is m x nrhs on input, the top n rows hold x on
/// output.
void qr_solve(const ConstMatrixView& qr, const std::vector<double>& tau,
              MatrixView b);

}  // namespace hetgrid
