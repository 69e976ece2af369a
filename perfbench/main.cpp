// perfbench: runs one workload and prints, as its last line, a
// JSON object with the run's seed, operations attempted and failed (with
// the error texts tallied), and every metric it measured. run.py turns
// that line into the benchmark's result record.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   perfbench --probe dmr_faults --seed N
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/registry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void print_json_string(const std::string& s) {
  std::string out;
  securecloud::obs::append_json_string(out, s);
  std::fputs(out.c_str(), stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload city_stream|dmr_theft|scbr_overlay|"
               "enclave_router --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       perfbench --probe dmr_faults --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string probe;
  opts.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--trace-dir") {
      opts.trace_dir = value;
    } else if (flag == "--probe") {
      probe = value;
    } else {
      return usage();
    }
  }

  if (probe == "dmr_faults") {
    probe_dmr_faults(opts);
    return 0;
  }
  if (!probe.empty()) return usage();
  // scbr_overlay's waves take a few milliseconds each: handing every wave
  // to pool threads made runs measure how soon the host scheduled them.
  if (opts.workload == "scbr_overlay") opts.threads = 1;

  Tally tally;
  Output out;
  if (opts.workload == "city_stream") {
    run_city_stream(opts, tally, out);
  } else if (opts.workload == "dmr_theft") {
    run_dmr_theft(opts, tally, out);
  } else if (opts.workload == "scbr_overlay") {
    run_scbr_overlay(opts, tally, out);
  } else if (opts.workload == "enclave_router") {
    run_enclave_router(opts, tally, out);
  } else {
    return usage();
  }
  if (!opts.trace) out.metrics["peak_rss_mb"] = out.peak_rss_mb;

  // Simulated time and input sizes are information, not metrics.
  std::printf("{\"info\":{");
  bool first = true;
  for (const auto& [key, value] : out.info) {
    std::printf("%s", first ? "" : ",");
    first = false;
    print_json_string(key);
    std::printf(":");
    print_json_string(value);
  }
  std::printf("}}\n");

  std::printf("{\"workload\":");
  print_json_string(opts.workload);
  std::printf(",\"seed\":%llu,\"trace\":%d,\"threads\":%zu,\"units\":%llu,"
              "\"attempted\":%llu,\"failed\":%llu,\"errors\":{",
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0, opts.threads,
              static_cast<unsigned long long>(out.units),
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  first = true;
  for (const auto& [error, count] : tally.errors()) {
    std::printf("%s", first ? "" : ",");
    first = false;
    print_json_string(error);
    std::printf(":%llu", static_cast<unsigned long long>(count));
  }
  std::printf("},\"metrics\":{");
  first = true;
  for (const auto& [name, value] : out.metrics) {
    std::printf("%s", first ? "" : ",");
    first = false;
    print_json_string(name);
    std::printf(":%.17g", value);
  }
  std::printf("}}\n");
  return 0;
}
