// The dense phase of a hetbench workload: MMM, LU, Cholesky and QR through
// the message-passing runtime (run_mp_*) on a 4x4 heterogeneous grid,
// with the heuristic allocation, at n = 2048.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/heuristic.hpp"
#include "dist/panel_distribution.hpp"
#include "harness.hpp"
#include "matrix/matrix.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/cycle_estimator.hpp"
#include "util/task_graph.hpp"

namespace hetbench {

enum class Kernel { kMmm, kLu, kChol, kQr };
inline constexpr std::array<Kernel, 4> kKernels = {Kernel::kMmm, Kernel::kLu,
                                                   Kernel::kChol, Kernel::kQr};
const char* kernel_name(Kernel k);  // "mmm", "lu", "chol", "qr"

/// Nominal flops of the kernel at size n: 2, 2/3, 1/3 and 4/3 n^3.
double kernel_flops(Kernel k, std::size_t n);
/// Flops the runtime's mp.gemm tasks compute at block size b (n a multiple
/// of b), counted from the kernels' block loops.
double gemm_task_flops(Kernel k, std::size_t n, std::size_t b);

/// Matrix order and grid side (p = q) of every dense workload.
inline constexpr std::size_t kN = 2048;
inline constexpr std::size_t kGridSide = 4;

struct DenseConfig {
  std::size_t block = 256;
  bool drift = false;  // 4x straggler on grid row 0 + panel rebalancing
  unsigned threads = 1;
};

/// One run_mp_* call, checked.
struct KernelOutcome {
  Clock::time_point start;  // when the run_mp_* call began
  double wall_s = 0.0;
  hetgrid::MpReport report;
  std::uint64_t bits = 0;  // hash of the output matrix, tau and report
  double residual = 0.0;   // scaled; must stay below kResidualLimit
  bool ok = false;         // residual passed and the kernel reported success
};

/// What the observers saw during one traced call.
struct KernelTrace {
  std::vector<hetgrid::TaskRecord> tasks;
  double dag_tasks = 0, dag_edges = 0, critical_path = 0, host_syncs = 0;
  double steals = 0, pool_tasks = 0;
  double pack_hits = 0, pack_misses = 0, pack_evictions = 0;
  double rebalance_bytes = 0;
  /// pool.task_wait_us histogram buckets (upper edge, count).
  std::vector<std::pair<double, std::uint64_t>> wait_buckets;
  std::vector<hetgrid::CycleEstimate> estimates;
};

class DenseWorkload {
 public:
  /// Set-up: cycle-times from `seed`, heuristic allocation, distribution
  /// and inputs. The cold first pass is left to the caller.
  DenseWorkload(const DenseConfig& config, std::uint64_t seed);

  /// Runs one kernel on fresh copies of its inputs and checks the result.
  /// With `trace` non-null a RunObservation and a MetricsRegistry are
  /// installed around the call and their contents copied out.
  KernelOutcome run(Kernel k, KernelTrace* trace = nullptr);

  /// Heuristic solve time of the set-up, in microseconds.
  double heuristic_us() const { return heuristic_us_; }

  /// True cycle-time of processor `proc` at the run's last step (static
  /// t_ij times the planted drift factor): the estimator's target.
  double true_cycle_time(std::size_t proc) const;

  /// Probes of the traced run, all on one thread.
  /// gemm on one block^3 tile, repeated for about `seconds`; returns GF/s.
  double probe_gemm_tile(double seconds) const;
  /// Wall of a 1-thread run_mp_mmm and of a bare 1-thread gemm at n.
  std::pair<double, double> probe_gemm_1t();
  /// The host-side panel factorizations the runtime performs, on the
  /// workload's shrinking panels: {qr, lu, chol} seconds.
  std::array<double, 3> probe_panels() const;

 private:
  DenseConfig config_;
  std::uint64_t seed_;
  double heuristic_us_ = 0.0;
  hetgrid::HeuristicResult heuristic_;  // the set-up allocation solve
  hetgrid::Machine machine_;
  hetgrid::PanelDistribution dist_;
  hetgrid::RuntimeOptions opts_;
  // Pristine inputs, one per kernel (the factorizations work in place on
  // copies), and the output / work buffers.
  hetgrid::Matrix a_mmm_, b_mmm_, a_lu_, a_chol_, a_qr_;
  hetgrid::Matrix out_;
};

}  // namespace hetbench
