#include "mp/block_store.hpp"

#include <utility>

#include "matrix/buffer_pool.hpp"
#include "obs/metrics.hpp"

namespace hetgrid {

namespace {

std::uint64_t shape_key(std::size_t rows, std::size_t cols) {
  return (static_cast<std::uint64_t>(rows) << 32) ^
         static_cast<std::uint64_t>(cols);
}

}  // namespace

BlockStore::~BlockStore() {
  BufferPool& global = BufferPool::global();
  for (auto& [key, m] : blocks_) global.give(m.release_storage());
  for (auto& [shape, shelf] : pool_)
    for (Matrix& m : shelf) global.give(m.release_storage());
}

void BlockStore::put(BlockKey key, Matrix block) {
  pack_cache_.drop_stale(pack_id(key), bump_version(key));
  Matrix& slot = blocks_[key];
  if (!slot.empty()) BufferPool::global().give(slot.release_storage());
  slot = std::move(block);
}

MatrixView BlockStore::at(BlockKey key) {
  auto it = blocks_.find(key);
  HG_CHECK(it != blocks_.end(), "block (" << key.row << "," << key.col
                                          << ") is not in local memory");
  return it->second.view();
}

ConstMatrixView BlockStore::at(BlockKey key) const {
  auto it = blocks_.find(key);
  HG_CHECK(it != blocks_.end(), "block (" << key.row << "," << key.col
                                          << ") is not in local memory");
  return it->second.view();
}

void BlockStore::erase(BlockKey key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  pack_cache_.drop_stale(pack_id(key), bump_version(key));
  Matrix& m = it->second;
  if (!m.empty()) {
    auto& shelf = pool_[shape_key(m.rows(), m.cols())];
    if (shelf.size() < pool_cap_) {
      shelf.push_back(std::move(m));
    } else {
      metric_count("block_store.pool_evictions");
      BufferPool::global().give(m.release_storage());
    }
  }
  blocks_.erase(it);
}

Matrix BlockStore::acquire(std::size_t rows, std::size_t cols) {
  auto it = pool_.find(shape_key(rows, cols));
  if (it != pool_.end() && !it->second.empty()) {
    metric_count("block_store.pool_hits");
    Matrix m = std::move(it->second.back());
    it->second.pop_back();
    return m;
  }
  metric_count("block_store.pool_misses");
  return Matrix(rows, cols, BufferPool::global().take(rows * cols));
}

void BlockStore::reserve(std::size_t blocks) { blocks_.reserve(blocks); }

std::size_t BlockStore::pooled() const {
  std::size_t n = 0;
  for (const auto& [shape, buffers] : pool_) n += buffers.size();
  return n;
}

std::uint64_t BlockStore::version(BlockKey key) const {
  auto it = versions_.find(key);
  return it == versions_.end() ? 0 : it->second;
}

}  // namespace hetgrid
