// Process-wide recycler for the large dense buffers the runtimes churn
// through: block payloads and packed gemm panels.
//
// Every run_mp_* call scatters its matrices into fresh per-processor block
// stores, packs operands into fresh panels, and drops all of it when the
// call returns. Without a pool, whether the next call's allocations land on
// pages the process already holds or fault in afresh is the allocator's
// trim decision, i.e. a function of the heap an earlier, unrelated kernel
// left behind — one kernel's change of host-side temporaries was enough to
// double the next kernel's minor page faults and cost it 8-25% of its
// GFLOP/s. The pool makes that explicit: freed buffers are kept, keyed by
// exact element count, up to a byte bound, so one call's memory is the next
// call's memory regardless of what ran in between.
//
// Buffers come out with stale contents (a pooled buffer is never zeroed):
// callers overwrite them completely, which is also why recycling cannot
// change a computed bit. take()/give() may be called from any thread.
//
// The pool counts its own hits, misses and drops instead of feeding the
// installed MetricsRegistry: its state carries over from earlier runs, and
// a run's metrics snapshot must depend on that run alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace hetgrid {

class BufferPool {
 public:
  /// Default bound: 512 MiB. An n = 2048 matrix multiply on a 4 x 4 grid
  /// at block 256 frees about 300 MiB of block payloads, broadcast copies
  /// and packed panels; under this bound a sequence of such kernels faults
  /// that working set in once instead of once per call.
  static constexpr std::size_t kDefaultCapacityBytes = std::size_t{512} << 20;

  explicit BufferPool(std::size_t capacity_bytes = kDefaultCapacityBytes)
      : capacity_(capacity_bytes) {}

  /// The pool the block stores and the pack cache share.
  static BufferPool& global();

  /// A buffer of exactly `n` doubles: a pooled one (stale contents, a hit)
  /// or a fresh zero-filled one (a miss).
  std::vector<double> take(std::size_t n);

  /// Returns a buffer for reuse. It is freed instead (a drop) when keeping
  /// it would exceed the capacity, or when shelving it fails to allocate —
  /// destructors and shared_ptr deleters call this, so it never throws.
  void give(std::vector<double>&& buf) noexcept;

  struct Stats {
    std::uint64_t hits = 0, misses = 0, drops = 0;
  };
  Stats stats() const;  // since construction
  std::size_t held_bytes() const;
  void clear();  // frees everything held

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t held_ = 0;  // bytes
  Stats stats_;
  std::unordered_map<std::size_t, std::vector<std::vector<double>>> shelves_;
};

}  // namespace hetgrid
