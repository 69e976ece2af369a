// Secure bulk data transfer: seal the payload as given.
//
// The sender chunks the payload, seals each chunk with AES-GCM (nonce
// and AAD bind stream id, sequence and last-flag) and keeps the sealed
// chunks for retransmission. Nothing is compressed, so the wire length
// is a function of the payload length alone: the host that carries the
// chunks learns nothing about how redundant the plaintext was. The
// receiver has one path, and it is loss tolerant: it authenticates each
// chunk, drops corrupt and duplicate ones, buffers reordered ones, NACKs
// the holes on simulated time, and hands back payloads once, in order.
#pragma once

#include <map>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_clock.hpp"
#include "common/thread_pool.hpp"
#include "crypto/gcm.hpp"
#include "obs/registry.hpp"

namespace securecloud::bigdata {

struct TransferStats {
  std::size_t plaintext_bytes = 0;
  std::size_t wire_bytes = 0;
  std::size_t chunks = 0;
};

class SecureTransferSender {
 public:
  /// Keeps the last `retransmit_chunks` sent wire chunks so a receiver
  /// NACK can be answered with a bit-identical retransmission (the chunk
  /// is already sealed; resending never re-encrypts, so nonces stay
  /// unique).
  SecureTransferSender(ByteView key, std::uint32_t stream_id,
                       std::size_t chunk_size = 64 * 1024,
                       std::size_t retransmit_chunks = 1024)
      : gcm_(key),
        stream_id_(stream_id),
        chunk_size_(chunk_size),
        retransmit_capacity_(retransmit_chunks) {}

  /// Produces the wire chunks for `payload` and updates the stats.
  /// Chunk boundaries and sequence numbers are fixed before the seals
  /// run, so fanning the per-chunk AEAD work across `pool` yields wire
  /// bytes and stats identical to the sequential path.
  std::vector<Bytes> send(ByteView payload);

  void set_pool(common::ThreadPool* pool) { pool_ = pool; }

  /// Returns the retained wire chunk for `sequence`; kNotFound once it
  /// has been evicted or acknowledged.
  Result<Bytes> retransmit(std::uint64_t sequence) const;
  /// The receiver holds every sequence below `through`: drops them from
  /// the retransmit buffer.
  void acknowledge(std::uint64_t through);

  const TransferStats& stats() const { return stats_; }

  /// Mirrors TransferStats (and retransmit lookups) into `transfer_send_*`.
  void set_obs(obs::Registry* registry);

 private:
  crypto::AesGcm gcm_;
  std::uint32_t stream_id_;
  std::size_t chunk_size_;
  std::size_t retransmit_capacity_;
  std::uint64_t sequence_ = 0;
  TransferStats stats_;
  common::ThreadPool* pool_ = nullptr;
  std::map<std::uint64_t, Bytes> sent_;  // seq -> wire, unacked, bounded FIFO

  obs::Counter* obs_chunks_ = nullptr;
  obs::Counter* obs_plaintext_bytes_ = nullptr;
  obs::Counter* obs_wire_bytes_ = nullptr;
  obs::Counter* obs_retransmits_ = nullptr;
};

/// A re-request the receiver wants sent to the sender. `attempt` is
/// 0-based; the next re-NACK for the same gap doubles the backoff.
struct Nack {
  std::uint64_t sequence = 0;
  std::size_t attempt = 0;

  bool operator==(const Nack&) const = default;
};

struct ReceiverStats {
  std::uint64_t accepted = 0;         // chunks applied in order
  std::uint64_t duplicates = 0;       // already-seen sequence dropped
  std::uint64_t corrupt = 0;          // header parse or AEAD failure
  std::uint64_t buffered = 0;         // out-of-order chunks held back
  std::uint64_t nacks_sent = 0;       // re-requests handed to the caller
  std::uint64_t gaps_recovered = 0;   // missing chunk arrived after a NACK
  std::uint64_t gaps_abandoned = 0;   // retries exhausted (typed error)
};

class SecureTransferReceiver {
 public:
  /// Out-of-order chunks held back at most; one more kills the stream
  /// (kExhausted). It also bounds how far past next_expected() gaps are
  /// registered: the sequence field and the flow's high-water mark are
  /// unauthenticated, so a hostile host must not be able to size the gap
  /// table.
  static constexpr std::size_t kMaxBufferedChunks = 256;
  /// NACK backoff on simulated time: 1 ms, doubling, capped at 64 ms.
  static constexpr std::uint64_t kInitialBackoffNs = 1'000'000;
  static constexpr std::uint64_t kMaxBackoffNs = 64'000'000;

  /// The NACK schedule runs on `clock` (tests are exact); a gap NACKed
  /// `max_nacks_per_gap` times without repair is abandoned.
  SecureTransferReceiver(ByteView key, std::uint32_t stream_id, const SimClock& clock,
                         std::size_t max_nacks_per_gap)
      : gcm_(key),
        stream_id_(stream_id),
        clock_(clock),
        max_nacks_per_gap_(max_nacks_per_gap) {}

  /// Accepts chunks in any order: corrupt (header parse, AEAD, stream
  /// binding) or duplicate chunks are counted and dropped, out-of-order
  /// chunks are buffered, and the holes in front of them are registered
  /// for NACKing. Returns every payload completed by this chunk, in
  /// order (several when it fills a gap). Once a gap has been abandoned
  /// the stream is dead: kUnavailable.
  Result<std::vector<Bytes>> receive(ByteView wire_chunk);

  /// Sender-advertised high-water mark (piggybacked on a heartbeat in a
  /// real deployment): every sequence up to and including `sequence` was
  /// sent, so any not yet received becomes a NACKable gap. This is how
  /// *trailing* losses — with no later chunk behind them to reveal the
  /// hole — are detected. The mark is unauthenticated: gaps are only
  /// registered up to next_expected() + kMaxBufferedChunks, and later
  /// marks reveal the rest as the stream advances.
  Status expect_through(std::uint64_t sequence);

  /// NACKs whose (SimClock) retry time has arrived. Calling this hands
  /// the re-requests to the caller and schedules the next attempt with
  /// doubled, capped backoff; a gap past max_nacks_per_gap is abandoned
  /// and flips health() to kUnavailable.
  std::vector<Nack> take_due_nacks();

  bool has_pending_gaps() const { return !gaps_.empty(); }

  /// Out-of-order chunks currently held back waiting for a gap to fill —
  /// the receive-side queue depth at this instant (ReceiverStats.buffered
  /// is the cumulative count). The flow layer mirrors this into
  /// FlowStats so backlog is visible before a beacon fires.
  std::size_t buffered_depth() const { return out_of_order_.size(); }

  /// Next in-order sequence the receiver is waiting for — equivalently,
  /// the count of contiguously applied chunks. The cumulative-ack value a
  /// reliable flow reports back to its sender.
  std::uint64_t next_expected() const { return expected_sequence_; }

  /// Ok while every loss so far is still recoverable; kUnavailable after
  /// any gap exhausted its retries (matching stat: gaps_abandoned).
  Status health() const;

  const ReceiverStats& recovery_stats() const { return recovery_stats_; }

  /// Mirrors ReceiverStats into `transfer_recv_*` metrics. The receiver
  /// state machine is serial, so every bump site is deterministic.
  void set_obs(obs::Registry* registry);

 private:
  /// Bumps the obs mirror of one ReceiverStats field (no-op when unwired).
  void obs_inc(obs::Counter* counter) {
    if (counter != nullptr) counter->inc();
  }
  struct Gap {
    std::size_t attempt = 0;        // NACKs sent so far
    std::uint64_t retry_at_ns = 0;  // next NACK due (SimClock time)
  };
  struct BufferedChunk {
    Bytes plain;
    bool last = false;
  };

  void register_gaps_up_to(std::uint64_t sequence);
  std::vector<Bytes> apply_in_order(Bytes plain, bool last);

  crypto::AesGcm gcm_;
  std::uint32_t stream_id_;
  std::uint64_t expected_sequence_ = 0;
  Bytes assembling_;

  const SimClock& clock_;
  std::size_t max_nacks_per_gap_;
  std::map<std::uint64_t, BufferedChunk> out_of_order_;
  std::map<std::uint64_t, Gap> gaps_;
  ReceiverStats recovery_stats_;
  bool stream_failed_ = false;

  obs::Counter* obs_accepted_ = nullptr;
  obs::Counter* obs_duplicates_ = nullptr;
  obs::Counter* obs_corrupt_ = nullptr;
  obs::Counter* obs_buffered_ = nullptr;
  obs::Counter* obs_nacks_sent_ = nullptr;
  obs::Counter* obs_gaps_recovered_ = nullptr;
  obs::Counter* obs_gaps_abandoned_ = nullptr;
};

}  // namespace securecloud::bigdata
