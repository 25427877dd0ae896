#include "core/factor_cache.h"

#include <cstring>
#include <utility>

namespace bcclap::core {

namespace {

// splitmix64 finalizer — same mixer as graph::fingerprint, applied to the
// option fields' exact bit patterns.
std::uint64_t mix(std::uint64_t h, std::uint64_t token) {
  std::uint64_t z = h ^ token;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t double_bits(double v) {
  if (v == 0.0) v = 0.0;  // normalize -0.0
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

std::uint64_t prepare_options_hash(const laplacian::EngineOptions& opt) {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  h = mix(h, double_bits(opt.sparsify.epsilon));
  h = mix(h, opt.sparsify.k);
  h = mix(h, opt.sparsify.t);
  h = mix(h, double_bits(opt.sparsify.t_constant));
  h = mix(h, opt.sparsify.iterations);
  h = mix(h, opt.sparsify.growing_t ? 1 : 0);
  return h;
}

FactorCacheKey make_factor_cache_key(std::string engine, const graph::Graph& g,
                                     std::uint64_t seed,
                                     std::size_t min_work_per_chunk,
                                     const laplacian::EngineOptions& opt) {
  FactorCacheKey key;
  key.engine = std::move(engine);
  key.fingerprint = graph::fingerprint(g);
  key.seed = seed;
  key.min_work_per_chunk = min_work_per_chunk;
  key.options_hash = prepare_options_hash(opt);
  return key;
}

std::shared_ptr<const laplacian::PreparedLaplacian> FactorCache::find_locked(
    const FactorCacheKey& key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().artifact;
    }
  }
  return nullptr;
}

std::shared_ptr<const laplacian::PreparedLaplacian> FactorCache::lookup(
    const FactorCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto found = find_locked(key)) {
    ++hits_;
    return found;
  }
  ++misses_;
  return nullptr;
}

std::shared_ptr<const laplacian::PreparedLaplacian> FactorCache::peek(
    const FactorCacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry.key == key) return entry.artifact;
  }
  return nullptr;
}

std::shared_ptr<const laplacian::PreparedLaplacian> FactorCache::insert_locked(
    const FactorCacheKey& key,
    std::shared_ptr<const laplacian::PreparedLaplacian> artifact,
    std::uint64_t* evicted) {
  *evicted = 0;
  // First-wins dedupe: a concurrent preparer may have beaten us here; the
  // entry already resident is the canonical artifact for this key.
  if (auto existing = find_locked(key)) return existing;
  const std::size_t bytes = artifact->resident_bytes();
  if (bytes > max_bytes_) return artifact;  // larger than the whole budget
  entries_.push_front(Entry{key, artifact, bytes});
  resident_bytes_ += bytes;
  while (resident_bytes_ > max_bytes_ && entries_.size() > 1) {
    resident_bytes_ -= entries_.back().bytes;
    entries_.pop_back();
    ++*evicted;
  }
  evictions_ += *evicted;
  return artifact;
}

std::shared_ptr<const laplacian::PreparedLaplacian> FactorCache::insert(
    const FactorCacheKey& key,
    std::shared_ptr<const laplacian::PreparedLaplacian> artifact) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t evicted = 0;
  return insert_locked(key, std::move(artifact), &evicted);
}

std::shared_ptr<const laplacian::PreparedLaplacian> FactorCache::lookup_or_join(
    const FactorCacheKey& key, bool* leader) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (auto found = find_locked(key)) {
      ++hits_;
      *leader = false;
      return found;
    }
    std::shared_ptr<Inflight> slot;
    for (const auto& fl : inflight_) {
      if (fl->key == key) {
        slot = fl;
        break;
      }
    }
    if (!slot) {
      // No prepare in flight: this caller is elected leader. The miss is
      // counted here — followers joining the same prepare count hits, so
      // N deduped cold requests tally exactly one miss.
      inflight_.push_back(std::make_shared<Inflight>());
      inflight_.back()->key = key;
      ++misses_;
      *leader = true;
      return nullptr;
    }
    slot->cv.wait(lock, [&] { return slot->resolved; });
    if (slot->artifact) {
      ++hits_;
      *leader = false;
      return slot->artifact;
    }
    // Withdrawn: the leader's prepare failed. Loop to re-elect — this
    // caller may find a new leader already registered, or become one.
  }
}

std::shared_ptr<const laplacian::PreparedLaplacian> FactorCache::publish(
    const FactorCacheKey& key,
    std::shared_ptr<const laplacian::PreparedLaplacian> artifact,
    std::uint64_t* evicted) {
  std::lock_guard<std::mutex> lock(mu_);
  // Waiters adopt the canonical artifact — identical bytes to what any
  // later lookup() of this key returns.
  auto canonical = insert_locked(key, std::move(artifact), evicted);
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if ((*it)->key == key) {
      (*it)->resolved = true;
      (*it)->artifact = canonical;
      (*it)->cv.notify_all();
      inflight_.erase(it);
      break;
    }
  }
  return canonical;
}

void FactorCache::withdraw(const FactorCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if ((*it)->key == key) {
      (*it)->resolved = true;
      (*it)->cv.notify_all();
      inflight_.erase(it);
      break;
    }
  }
}

FactorCache::Stats FactorCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.max_bytes = max_bytes_;
  s.resident_bytes = resident_bytes_;
  s.entries = entries_.size();
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  return s;
}

}  // namespace bcclap::core
