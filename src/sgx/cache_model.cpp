#include "sgx/cache_model.hpp"

#include <cassert>

namespace securecloud::sgx {

CacheModel::CacheModel(std::size_t size_bytes, std::size_t line_bytes, std::size_t ways)
    : line_bytes_(line_bytes), ways_(ways) {
  assert(line_bytes > 0 && ways > 0);
  assert(size_bytes % (line_bytes * ways) == 0);
  num_sets_ = size_bytes / (line_bytes * ways);
  assert(num_sets_ > 0);
}

bool CacheModel::access(std::uint64_t addr) {
  if (ways_storage_.empty()) ways_storage_.resize(num_sets_ * ways_);
  const std::uint64_t line = addr / line_bytes_;
  const std::size_t set = static_cast<std::size_t>(line % num_sets_);
  Way* base = &ways_storage_[set * ways_];
  ++tick_;

  Way* victim = base;
  for (std::size_t w = 0; w < ways_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == line) {
      way.lru = tick_;
      ++hits_;
      return true;
    }
    if (!way.valid) {
      victim = &way;  // prefer an invalid slot
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }

  ++misses_;
  victim->tag = line;
  victim->valid = true;
  victim->lru = tick_;
  return false;
}

void CacheModel::invalidate_range(std::uint64_t base, std::uint64_t len) {
  if (ways_storage_.empty()) return;  // nothing was ever resident
  const std::uint64_t first_line = base / line_bytes_;
  const std::uint64_t last_line = (base + len - 1) / line_bytes_;
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    const std::size_t set = static_cast<std::size_t>(line % num_sets_);
    Way* ways = &ways_storage_[set * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
      if (ways[w].valid && ways[w].tag == line) {
        ways[w].valid = false;
      }
    }
  }
}

void CacheModel::clear() {
  for (auto& w : ways_storage_) w.valid = false;
  hits_ = misses_ = 0;
}

}  // namespace securecloud::sgx
