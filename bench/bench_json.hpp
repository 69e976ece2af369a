// Uniform machine-readable bench output.
//
// Every bench binary prints, as its LAST stdout line, one JSON record:
//   {"schema":"securecloud.bench.v1","bench":"<name>","threads":N,
//    "obs":<securecloud.obs.v2 document with one node named <name>>}
// The registry is exported as a cluster of one, the same writer every
// multi-node export uses. CI's bench smoke step greps for the schema
// tag and validates the record's shape, so keep the field set stable
// (additions are fine).
#pragma once

#include <cstdio>
#include <string>

#include "obs/cluster.hpp"

namespace securecloud::benchutil {

inline void emit_bench_json(const std::string& bench, std::size_t threads,
                            const obs::Registry& registry) {
  const std::string obs_json =
      obs::merge_snapshots({{.node = bench, .metrics = registry.snapshot()}})
          .to_obs_json();
  std::printf(
      "{\"schema\":\"securecloud.bench.v1\",\"bench\":\"%s\",\"threads\":%zu,"
      "\"obs\":%s}\n",
      bench.c_str(), threads, obs_json.c_str());
}

}  // namespace securecloud::benchutil
