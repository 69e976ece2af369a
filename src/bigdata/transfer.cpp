#include "bigdata/transfer.hpp"

#include <utility>

namespace securecloud::bigdata {

namespace {
// Per-chunk header inside the AAD: stream, sequence, last-flag.
Bytes chunk_aad(std::uint32_t stream, std::uint64_t sequence, bool last) {
  Bytes aad;
  put_u32(aad, stream);
  put_u64(aad, sequence);
  put_u8(aad, last ? 1 : 0);
  return aad;
}
}  // namespace

std::vector<Bytes> SecureTransferSender::send(ByteView payload) {
  stats_.plaintext_bytes += payload.size();

  // Chunk boundaries and sequence numbers are pure functions of the
  // payload length, so the whole range is claimed up front and the seals
  // fan out; chunk i's bytes never depend on when it was sealed.
  const std::size_t num_chunks =
      payload.empty() ? 1 : (payload.size() + chunk_size_ - 1) / chunk_size_;
  const std::uint64_t base_seq = sequence_;
  sequence_ += num_chunks;

  std::vector<Bytes> chunks(num_chunks);
  common::run_indexed(pool_, num_chunks, [&](std::size_t i) {
    const std::size_t offset = i * chunk_size_;
    const std::size_t take = std::min(chunk_size_, payload.size() - offset);
    const bool last = i + 1 == num_chunks;
    const std::uint64_t seq = base_seq + i;

    Bytes wire;
    wire.reserve(8 + 1 + crypto::kGcmNonceSize + take + crypto::kGcmTagSize);  // seq, last
    put_u64(wire, seq);
    put_u8(wire, last ? 1 : 0);
    gcm_.seal_combined(crypto::nonce_from_counter(seq, stream_id_),
                       chunk_aad(stream_id_, seq, last),
                       payload.subspan(offset, take), wire);
    chunks[i] = std::move(wire);
  });
  std::size_t batch_wire_bytes = 0;
  for (const Bytes& wire : chunks) batch_wire_bytes += wire.size();
  stats_.wire_bytes += batch_wire_bytes;
  stats_.chunks += num_chunks;
  if (obs_chunks_ != nullptr) {
    obs_chunks_->inc(num_chunks);
    obs_plaintext_bytes_->inc(payload.size());
    obs_wire_bytes_->inc(batch_wire_bytes);
  }
  for (std::size_t i = 0; i < num_chunks; ++i) sent_[base_seq + i] = chunks[i];
  while (sent_.size() > retransmit_capacity_) sent_.erase(sent_.begin());
  return chunks;
}

Result<Bytes> SecureTransferSender::retransmit(std::uint64_t sequence) const {
  const auto it = sent_.find(sequence);
  if (it == sent_.end()) {
    return Error::not_found("chunk " + std::to_string(sequence) +
                            " not in retransmit buffer");
  }
  if (obs_retransmits_ != nullptr) obs_retransmits_->inc();
  return it->second;
}

void SecureTransferSender::acknowledge(std::uint64_t through) {
  sent_.erase(sent_.begin(), sent_.lower_bound(through));
}

void SecureTransferSender::set_obs(obs::Registry* registry) {
  if (registry == nullptr) {
    obs_chunks_ = obs_plaintext_bytes_ = obs_wire_bytes_ = obs_retransmits_ = nullptr;
    return;
  }
  obs_chunks_ = &registry->counter("transfer_send_chunks_total");
  obs_plaintext_bytes_ = &registry->counter("transfer_send_plaintext_bytes_total");
  obs_wire_bytes_ = &registry->counter("transfer_send_wire_bytes_total");
  obs_retransmits_ = &registry->counter("transfer_send_retransmits_total");
}

void SecureTransferReceiver::register_gaps_up_to(std::uint64_t sequence) {
  // Every sequence in [expected_, sequence) that is neither buffered nor
  // already tracked is a fresh gap; its first NACK is due immediately.
  // `sequence` comes from unauthenticated bytes, so the window caps it.
  const std::uint64_t end =
      std::min(sequence, expected_sequence_ + kMaxBufferedChunks);
  for (std::uint64_t seq = expected_sequence_; seq < end; ++seq) {
    if (out_of_order_.count(seq) || gaps_.count(seq)) continue;
    gaps_[seq] = Gap{.attempt = 0, .retry_at_ns = clock_.nanos()};
  }
}

std::vector<Bytes> SecureTransferReceiver::apply_in_order(Bytes plain, bool last) {
  // Applies the chunk at expected_, then every buffered successor that is
  // now in order.
  std::vector<Bytes> completed;
  while (true) {
    ++recovery_stats_.accepted;
    obs_inc(obs_accepted_);
    ++expected_sequence_;
    if (assembling_.empty()) {
      assembling_ = std::move(plain);
    } else {
      append(assembling_, plain);
    }
    if (last) completed.push_back(std::exchange(assembling_, {}));
    const auto next = out_of_order_.find(expected_sequence_);
    if (next == out_of_order_.end()) return completed;
    plain = std::move(next->second.plain);
    last = next->second.last;
    out_of_order_.erase(next);
  }
}

Result<std::vector<Bytes>> SecureTransferReceiver::receive(ByteView wire_chunk) {
  SC_RETURN_IF_ERROR(health());

  ByteReader reader(wire_chunk);
  std::uint64_t seq = 0;
  std::uint8_t last = 0;
  if (!reader.get_u64(seq) || !reader.get_u8(last)) {
    // Too mangled to identify: the sequence it carried stays a gap and
    // the NACK machinery re-requests it.
    ++recovery_stats_.corrupt;
    obs_inc(obs_corrupt_);
    return std::vector<Bytes>{};
  }
  if (seq < expected_sequence_ || out_of_order_.count(seq)) {
    ++recovery_stats_.duplicates;
    obs_inc(obs_duplicates_);
    return std::vector<Bytes>{};
  }

  const ByteView sealed(wire_chunk.data() + (wire_chunk.size() - reader.remaining()),
                        reader.remaining());
  auto plain = gcm_.open_combined(chunk_aad(stream_id_, seq, last != 0), sealed);
  if (!plain.ok()) {
    // Tampered in transit: treat as lost. The header is *unauthenticated*
    // (a corrupted sequence field can claim any value), so gaps are only
    // registered when the claimed sequence lands near the receive window;
    // otherwise the chunk's true sequence simply stays missing and is
    // NACKed once a valid later chunk or the sender's high-water mark
    // reveals the hole.
    ++recovery_stats_.corrupt;
    obs_inc(obs_corrupt_);
    if (seq <= expected_sequence_ + kMaxBufferedChunks) register_gaps_up_to(seq + 1);
    return std::vector<Bytes>{};
  }

  if (const auto gap = gaps_.find(seq); gap != gaps_.end()) {
    gaps_.erase(gap);
    ++recovery_stats_.gaps_recovered;
    obs_inc(obs_gaps_recovered_);
  }

  if (seq == expected_sequence_) {
    return apply_in_order(std::move(plain).value(), last != 0);
  }

  // Out of order: hold it back and NACK the hole in front of it.
  if (out_of_order_.size() >= kMaxBufferedChunks) {
    stream_failed_ = true;
    return Error::exhausted("reorder window full at chunk " + std::to_string(seq));
  }
  out_of_order_[seq] = BufferedChunk{std::move(plain).value(), last != 0};
  ++recovery_stats_.buffered;
  obs_inc(obs_buffered_);
  register_gaps_up_to(seq);
  return std::vector<Bytes>{};
}

Status SecureTransferReceiver::expect_through(std::uint64_t sequence) {
  SC_RETURN_IF_ERROR(health());
  register_gaps_up_to(sequence + 1);
  return {};
}

std::vector<Nack> SecureTransferReceiver::take_due_nacks() {
  std::vector<Nack> due;
  const std::uint64_t now = clock_.nanos();
  for (auto it = gaps_.begin(); it != gaps_.end();) {
    Gap& gap = it->second;
    if (gap.retry_at_ns > now) {
      ++it;
      continue;
    }
    if (gap.attempt >= max_nacks_per_gap_) {
      ++recovery_stats_.gaps_abandoned;
      obs_inc(obs_gaps_abandoned_);
      stream_failed_ = true;
      it = gaps_.erase(it);
      continue;
    }
    due.push_back({it->first, gap.attempt});
    ++recovery_stats_.nacks_sent;
    obs_inc(obs_nacks_sent_);
    // Capped exponential backoff on simulated time: 1 ms, 2 ms, 4 ms ...
    std::uint64_t backoff = kInitialBackoffNs;
    for (std::size_t i = 0; i < gap.attempt && backoff < kMaxBackoffNs; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, kMaxBackoffNs);
    gap.retry_at_ns = now + backoff;
    ++gap.attempt;
    ++it;
  }
  return due;
}

void SecureTransferReceiver::set_obs(obs::Registry* registry) {
  if (registry == nullptr) {
    obs_accepted_ = obs_duplicates_ = obs_corrupt_ = obs_buffered_ = nullptr;
    obs_nacks_sent_ = obs_gaps_recovered_ = obs_gaps_abandoned_ = nullptr;
    return;
  }
  obs_accepted_ = &registry->counter("transfer_recv_accepted_total");
  obs_duplicates_ = &registry->counter("transfer_recv_duplicates_total");
  obs_corrupt_ = &registry->counter("transfer_recv_corrupt_total");
  obs_buffered_ = &registry->counter("transfer_recv_buffered_total");
  obs_nacks_sent_ = &registry->counter("transfer_recv_nacks_sent_total");
  obs_gaps_recovered_ = &registry->counter("transfer_recv_gaps_recovered_total");
  obs_gaps_abandoned_ = &registry->counter("transfer_recv_gaps_abandoned_total");
}

Status SecureTransferReceiver::health() const {
  if (stream_failed_) {
    return Error::unavailable("transfer stream failed: chunk lost beyond retry budget");
  }
  return {};
}

}  // namespace securecloud::bigdata
