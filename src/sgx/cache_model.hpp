// Set-associative LLC model.
//
// Tracks which cache lines are resident so the memory models can decide
// whether an access is a hit, a plain miss, or an MEE-protected miss.
// True-LRU within each set; tags are full line addresses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace securecloud::sgx {

class CacheModel {
 public:
  /// Precondition: size/line/ways describe a valid geometry
  /// (size % (line * ways) == 0, all nonzero).
  CacheModel(std::size_t size_bytes, std::size_t line_bytes, std::size_t ways);

  /// Looks up (and on miss, fills) the line containing `addr`.
  /// Returns true on hit. Evicts LRU within the set when full.
  bool access(std::uint64_t addr);

  /// Drops all lines whose address is within [base, base+len). Used when
  /// an EPC page is evicted: its lines leave the cache with it.
  void invalidate_range(std::uint64_t base, std::uint64_t len);

  void clear();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t line_size() const { return line_bytes_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use tick; smaller = older
    bool valid = false;
  };

  std::size_t line_bytes_;
  std::size_t ways_;
  std::size_t num_sets_;
  // num_sets_ x ways_, allocated by the first access: most platforms
  // never touch the model, and a full LLC is megabytes of zeroed ways.
  std::vector<Way> ways_storage_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace securecloud::sgx
