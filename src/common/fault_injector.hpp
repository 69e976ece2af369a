// Seeded, deterministic fault plane for chaos testing.
//
// The paper's threat model is an *untrusted* cloud: the host can drop,
// corrupt, duplicate, or reorder anything on the wire, kill enclaves and
// containers at will, and starve the EPC. FaultInjector turns that threat
// model into a reproducible test harness: every fault decision is a pure
// function of (seed, fault kind, per-kind operation counter), so the same
// seed yields the same fault schedule on every run — regardless of wall
// time, thread interleaving outside the decision points, or how other
// fault kinds are exercised. An optional SimClock gates faults to
// simulated-time windows and timestamps the schedule log.
//
// Recovery paths exercised by the injector (see DESIGN.md "Fault model &
// recovery"): SecureTransferReceiver gap detection + NACK/backoff,
// EventBus at-least-once redelivery + dead-letter queue, the container
// engine's restart policy, and the fabric apps' flow recovery. (GenPack
// reschedules through Server::fail, not through the injector.) The
// invariant every fault test asserts: an injected fault either recovers
// to the bit-identical no-fault output, or surfaces as a typed Error with
// a matching stat — never a silent divergence.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "common/sim_clock.hpp"

namespace securecloud::common {

/// A kind's value is its decision stream's id, so every value is fixed:
/// a renumbered kind would move every armed schedule. Value 9 is retired.
enum class FaultKind : std::uint8_t {
  // Wire chunk faults (secure transfer).
  kDropChunk = 0,
  kCorruptChunk = 1,
  kDuplicateChunk = 2,
  kReorderChunk = 3,
  // SCBR / event-bus message faults.
  kDropMessage = 4,
  kCorruptMessage = 5,
  kDuplicateMessage = 6,
  // Process / platform faults.
  kKillContainer = 7,
  kKillEnclave = 8,
  kEpcPressure = 10,
  // Untrusted-storage I/O faults (torn/failed writes, failed deletes).
  kIoError = 11,
  // Network-fabric faults (src/net/): per-frame loss/duplication/reorder
  // decisions plus per-message partition drops, applied at link delivery.
  kNetLoss = 12,
  kNetDuplicate = 13,
  kNetReorder = 14,
  kNetPartition = 15,
};

const char* to_string(FaultKind kind);

/// Per-kind arming parameters. A kind never fires until armed.
struct FaultArm {
  double probability = 0.0;                     // per-decision fire chance
  std::uint64_t max_fires = UINT64_MAX;         // stop after this many
  std::uint64_t not_before_cycles = 0;          // SimClock window (inclusive)
  std::uint64_t not_after_cycles = UINT64_MAX;  // SimClock window (inclusive)
};

/// One fired fault, in decision order. `op` is the per-kind decision index
/// at which it fired; `at_cycles` is the SimClock reading (0 without one).
struct FaultEvent {
  FaultKind kind;
  std::uint64_t op = 0;
  std::uint64_t at_cycles = 0;

  bool operator==(const FaultEvent&) const = default;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, const SimClock* clock = nullptr);

  void arm(FaultKind kind, FaultArm arm);
  void arm(FaultKind kind, double probability) { arm(kind, FaultArm{.probability = probability}); }
  void disarm(FaultKind kind) { arm(kind, FaultArm{}); }

  /// One fault decision point. Deterministic: the verdict depends only on
  /// (seed, kind, how many decisions this kind has seen) plus the armed
  /// window — never on other kinds' streams or on wall time.
  bool should_fire(FaultKind kind);

  /// Flips one deterministically chosen bit of `wire` (no-op when empty).
  /// Each call advances its own stream, so repeated corruptions of the
  /// same buffer hit (reproducibly) different bits.
  void corrupt(Bytes& wire);

  /// Applies the four chunk-level wire faults (drop, corrupt, duplicate,
  /// reorder-adjacent) to a chunk sequence, in that per-chunk decision
  /// order. What the untrusted network did to a transfer.
  std::vector<Bytes> perturb_chunks(const std::vector<Bytes>& chunks);

  std::uint64_t decisions(FaultKind kind) const { return streams_[index(kind)].ops; }
  std::uint64_t fired(FaultKind kind) const { return streams_[index(kind)].fires; }

  /// Every fired fault in decision order — two same-seed runs issuing the
  /// same decision sequence produce equal logs (asserted by tests).
  const std::vector<FaultEvent>& schedule() const { return schedule_; }

  /// Called synchronously for every fired fault, right after it is
  /// appended to schedule(). Lets a flight recorder keep the recent
  /// fault trail without common depending on the obs layer. One
  /// observer; pass nullptr/empty to detach.
  using Observer = std::function<void(const FaultEvent&)>;
  void set_observer(Observer fn) { observer_ = std::move(fn); }

  std::uint64_t seed() const { return seed_; }

 private:
  static std::size_t index(FaultKind kind) { return static_cast<std::size_t>(kind); }
  /// One stream per kind value (0..15).
  static constexpr std::size_t kKindStreams = 16;
  /// corrupt()'s draw stream, past every kind's.
  static constexpr std::uint64_t kCorruptStream = 17;

  struct Stream {
    FaultArm arm;
    bool armed = false;
    std::uint64_t ops = 0;    // decisions taken
    std::uint64_t fires = 0;  // decisions that fired
  };

  std::uint64_t seed_;
  const SimClock* clock_;
  std::array<Stream, kKindStreams> streams_{};
  std::uint64_t corrupt_ops_ = 0;
  std::vector<FaultEvent> schedule_;
  Observer observer_;
};

}  // namespace securecloud::common
