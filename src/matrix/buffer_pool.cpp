#include "matrix/buffer_pool.hpp"

#include <new>
#include <utility>

namespace hetgrid {

BufferPool& BufferPool::global() {
  // Never destroyed: block stores and pack caches owned by other static
  // objects may still hand buffers back during static destruction.
  static BufferPool* const pool = new BufferPool();
  return *pool;
}

std::vector<double> BufferPool::take(std::size_t n) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shelves_.find(n);
    if (it != shelves_.end() && !it->second.empty()) {
      std::vector<double> buf = std::move(it->second.back());
      it->second.pop_back();
      held_ -= buf.capacity() * sizeof(double);
      ++stats_.hits;
      return buf;
    }
    ++stats_.misses;
  }
  return std::vector<double>(n);
}

void BufferPool::give(std::vector<double>&& buf) noexcept {
  const std::size_t bytes = buf.capacity() * sizeof(double);
  if (bytes == 0) return;
  std::vector<double> dropped;  // freed outside the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (held_ + bytes <= capacity_) {
      try {
        shelves_[buf.size()].push_back(std::move(buf));
        held_ += bytes;
        return;
      } catch (const std::bad_alloc&) {
        // No room for the shelf entry: drop the buffer instead.
      }
    }
    dropped = std::move(buf);
    ++stats_.drops;
  }
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t BufferPool::held_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_;
}

void BufferPool::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  shelves_.clear();
  held_ = 0;
}

}  // namespace hetgrid
