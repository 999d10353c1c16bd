#include "matrix/packed_cache.hpp"

#include "matrix/buffer_pool.hpp"
#include "obs/metrics.hpp"

namespace hetgrid {

namespace {

// splitmix64 finalizer — same full-avalanche mix as BlockKeyHash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t PackedPanelCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix(k.id);
  h = mix(h ^ k.version);
  h = mix(h ^ k.meta);
  h = mix(h ^ k.alpha_bits);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const PackedPanel> PackedPanelCache::get(
    const Key& key, const std::function<PackedPanel()>& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      metric_count("gemm.pack_hits");
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to front
      return it->second->panel;
    }
  }
  metric_count("gemm.pack_misses");
  // Payloads go back to the process-wide pool when the last user lets go,
  // so the next run's packs of the same size reuse them.
  std::shared_ptr<const PackedPanel> panel(
      new PackedPanel(build()), [](PackedPanel* p) {
        BufferPool::global().give(std::move(p->data));
        delete p;
      });
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent miss inserted the (byte-identical) pack first; keep it.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->panel;
  }
  lru_.push_front(Entry{key, panel});
  index_.emplace(key, lru_.begin());
  held_ += panel->doubles();
  evict_to_fit_locked();
  return panel;
}

void PackedPanelCache::evict_to_fit_locked() {
  // Never evict the sole entry: a pack bigger than the whole capacity still
  // has to survive until its caller is done going through the cache.
  while (held_ > capacity_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    metric_count("gemm.pack_evictions");
    held_ -= victim.panel->doubles();
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

void PackedPanelCache::drop_stale(std::uint64_t id, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.id == id && it->key.version < version) {
      held_ -= it->panel->doubles();
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t PackedPanelCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t PackedPanelCache::held_doubles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_;
}

void PackedPanelCache::set_capacity(std::size_t capacity_doubles) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity_doubles;
  while (held_ > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    metric_count("gemm.pack_evictions");
    held_ -= victim.panel->doubles();
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

void PackedPanelCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  held_ = 0;
}

}  // namespace hetgrid
