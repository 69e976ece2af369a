#include "common/fault_injector.hpp"

#include "common/rng.hpp"

namespace securecloud::common {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropChunk: return "drop-chunk";
    case FaultKind::kCorruptChunk: return "corrupt-chunk";
    case FaultKind::kDuplicateChunk: return "duplicate-chunk";
    case FaultKind::kReorderChunk: return "reorder-chunk";
    case FaultKind::kDropMessage: return "drop-message";
    case FaultKind::kCorruptMessage: return "corrupt-message";
    case FaultKind::kDuplicateMessage: return "duplicate-message";
    case FaultKind::kKillContainer: return "kill-container";
    case FaultKind::kKillEnclave: return "kill-enclave";
    case FaultKind::kEpcPressure: return "epc-pressure";
    case FaultKind::kIoError: return "io-error";
    case FaultKind::kNetLoss: return "net-loss";
    case FaultKind::kNetDuplicate: return "net-duplicate";
    case FaultKind::kNetReorder: return "net-reorder";
    case FaultKind::kNetPartition: return "net-partition";
  }
  return "unknown";
}

namespace {
/// One draw of the (seed, stream, op) hash — stateless, so a decision's
/// verdict cannot depend on how many *other* streams were consulted.
std::uint64_t stream_draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t op) {
  SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^ (op * 0xc2b2ae3d27d4eb4fULL));
  return sm.next();
}
}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed, const SimClock* clock)
    : seed_(seed), clock_(clock) {}

void FaultInjector::arm(FaultKind kind, FaultArm arm) {
  Stream& st = streams_[index(kind)];
  st.arm = arm;
  st.armed = arm.probability > 0.0;
}

bool FaultInjector::should_fire(FaultKind kind) {
  Stream& st = streams_[index(kind)];
  const std::uint64_t op = st.ops++;
  if (!st.armed || st.fires >= st.arm.max_fires) return false;
  if (clock_ != nullptr) {
    const std::uint64_t now = clock_->cycles();
    if (now < st.arm.not_before_cycles || now > st.arm.not_after_cycles) return false;
  }
  // probability in [0,1] against a 53-bit uniform draw (same resolution
  // as Rng::uniform01, without coupling streams through shared state).
  const double u =
      static_cast<double>(stream_draw(seed_, index(kind), op) >> 11) * 0x1.0p-53;
  if (u >= st.arm.probability) return false;
  ++st.fires;
  schedule_.push_back({kind, op, clock_ != nullptr ? clock_->cycles() : 0});
  if (observer_) observer_(schedule_.back());
  return true;
}

void FaultInjector::corrupt(Bytes& wire) {
  if (wire.empty()) return;
  const std::uint64_t draw =
      stream_draw(seed_, kCorruptStream, corrupt_ops_++);
  const std::size_t bit = static_cast<std::size_t>(draw % (wire.size() * 8));
  wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

std::vector<Bytes> FaultInjector::perturb_chunks(const std::vector<Bytes>& chunks) {
  std::vector<Bytes> out;
  out.reserve(chunks.size());
  for (const Bytes& chunk : chunks) {
    if (should_fire(FaultKind::kDropChunk)) continue;
    Bytes wire = chunk;
    if (should_fire(FaultKind::kCorruptChunk)) corrupt(wire);
    const bool duplicate = should_fire(FaultKind::kDuplicateChunk);
    out.push_back(wire);
    if (duplicate) out.push_back(std::move(wire));
  }
  // Reorder pass: swap adjacent survivors. Decisions are per output pair,
  // so the schedule is a pure function of how many chunks survived.
  for (std::size_t i = 0; i + 1 < out.size(); i += 2) {
    if (should_fire(FaultKind::kReorderChunk)) std::swap(out[i], out[i + 1]);
  }
  return out;
}

}  // namespace securecloud::common
