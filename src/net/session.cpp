#include "net/session.hpp"

namespace securecloud::net {

namespace {
const crypto::Sha256Digest kZeroDigest{};

Result<crypto::X25519Key> read_key(ByteReader& r) {
  Bytes raw;
  if (!r.get_blob(raw) || raw.size() != crypto::kX25519KeySize) {
    return Error::protocol("session: bad ephemeral key encoding");
  }
  crypto::X25519Key key;
  std::copy(raw.begin(), raw.end(), key.begin());
  return key;
}
}  // namespace

AttestedSession::AttestedSession(Role role, Config config)
    : role_(role), config_(std::move(config)) {}

Status AttestedSession::bind() {
  return config_.fabric->set_handler(
      config_.self, config_.channel,
      [this](const Message& message) { on_message(message); });
}

const crypto::Sha256Digest& AttestedSession::transcript_hash() const {
  return channel_.has_value() ? channel_->transcript_hash() : kZeroDigest;
}

void AttestedSession::set_obs(obs::Registry* registry) {
  if (registry == nullptr) {
    obs_established_ = obs_failed_ = obs_retransmits_ = obs_records_sent_ =
        obs_records_received_ = obs_records_rejected_ = nullptr;
    return;
  }
  obs_established_ = &registry->counter("net_sessions_established_total");
  obs_failed_ = &registry->counter("net_sessions_failed_total");
  obs_retransmits_ = &registry->counter("net_session_handshake_retransmits_total");
  obs_records_sent_ = &registry->counter("net_session_records_sent_total");
  obs_records_received_ = &registry->counter("net_session_records_received_total");
  obs_records_rejected_ = &registry->counter("net_session_records_rejected_total");
}

void AttestedSession::fail(Status status) {
  state_ = State::kFailed;
  ++timer_generation_;  // invalidate any pending retransmit timer
  failure_ = std::move(status);
  if (obs_failed_ != nullptr) obs_failed_->inc();
  if (flight_ != nullptr) {
    flight_->record("session_failure",
                    "peer=" + std::to_string(config_.peer) + " " +
                        failure_.error().message);
  }
}

void AttestedSession::mark_established() {
  state_ = State::kEstablished;
  ++timer_generation_;  // stop retransmitting — the handshake is done
  if (obs_established_ != nullptr) obs_established_->inc();
}

void AttestedSession::arm_retransmit() {
  if (config_.retry.retransmit_timeout_ns == 0 || config_.fabric == nullptr) return;
  const std::uint64_t generation = timer_generation_;
  config_.fabric->schedule(config_.retry.retransmit_timeout_ns,
                           [this, generation] { on_retransmit_timer(generation); });
}

void AttestedSession::on_retransmit_timer(std::uint64_t generation) {
  if (generation != timer_generation_) return;  // state moved on; stale timer
  const Bytes* wire = nullptr;
  if (role_ == Role::kInitiator && state_ == State::kAwaitingReply) {
    wire = &cached_hello_wire_;
  } else if (role_ == Role::kResponder && state_ == State::kAwaitingFinish) {
    wire = &cached_reply_wire_;
  }
  if (wire == nullptr || wire->empty()) return;
  if (retries_left_ == 0) {
    fail(Error::unavailable("session: handshake retransmit budget exhausted"));
    return;
  }
  --retries_left_;
  if (obs_retransmits_ != nullptr) obs_retransmits_->inc();
  (void)send_raw(Bytes(*wire));
  arm_retransmit();
}

Result<Bytes> AttestedSession::make_bound_quote() const {
  const sgx::ReportData rd =
      sgx::report_data_from_hash(channel_->transcript_hash());
  const sgx::Report report = config_.enclave->create_report(rd);
  auto quote = config_.platform->quote(report);
  if (!quote.ok()) return quote.error();
  return quote->serialize();
}

Status AttestedSession::check_peer_quote(ByteView quote_wire) const {
  auto report = config_.attestation->verify_wire(quote_wire);
  if (!report.ok()) return report.error();
  if (!sgx::report_data_matches_hash(report->report_data,
                                     channel_->transcript_hash())) {
    return Error::attestation(
        "peer quote is not bound to this session's transcript (relayed quote?)");
  }
  if (config_.expected_peer_mrenclave.has_value() &&
      report->mrenclave != *config_.expected_peer_mrenclave) {
    return Error::attestation("peer MRENCLAVE does not match session policy");
  }
  return {};
}

Status AttestedSession::start() {
  if (role_ != Role::kInitiator) {
    return Error::invalid_argument("start() is for the initiator");
  }
  if (state_ != State::kIdle) return Error::protocol("session already started");
  handshake_.emplace(crypto::ChannelHandshake::Role::kInitiator,
                     config_.platform->entropy());
  Bytes wire;
  put_u8(wire, kHello);
  put_blob(wire, handshake_->local_public_key());
  cached_hello_wire_ = wire;
  state_ = State::kAwaitingReply;
  ++timer_generation_;
  retries_left_ = config_.retry.max_retries;
  Status sent = send_raw(std::move(wire));
  if (sent.ok()) arm_retransmit();
  return sent;
}

void AttestedSession::on_message(const Message& message) {
  if (state_ == State::kFailed) return;
  if (message.payload.empty()) {
    fail(Error::protocol("session: empty record"));
    return;
  }
  switch (message.payload[0]) {
    case kHello:
      handle_hello(message);
      return;
    case kHelloReply:
      handle_hello_reply(message);
      return;
    case kFinish:
      handle_finish(message);
      return;
    case kData:
      handle_data(message);
      return;
    default:
      fail(Error::protocol("session: unknown record type " +
                           std::to_string(message.payload[0])));
  }
}

void AttestedSession::handle_hello(const Message& message) {
  if (role_ != Role::kResponder) {
    fail(Error::protocol("session: unexpected Hello"));
    return;
  }
  ByteReader r(message.payload);
  std::uint8_t type = 0;
  (void)r.get_u8(type);
  auto peer_key = read_key(r);
  if (!peer_key.ok() || !r.done()) {
    fail(Error::protocol("session: malformed Hello"));
    return;
  }
  if (state_ != State::kIdle) {
    // A responder answers one initiator key. A retransmitted Hello means
    // our HelloReply was lost: re-send it verbatim instead of recomputing
    // (the transcript must not fork). A Hello with any other key is not
    // from this session's initiator; it is dropped.
    if (*peer_key == peer_hello_key_ && state_ == State::kAwaitingFinish) {
      if (obs_retransmits_ != nullptr) obs_retransmits_->inc();
      (void)send_raw(Bytes(cached_reply_wire_));
    }
    return;
  }
  crypto::ChannelHandshake handshake(crypto::ChannelHandshake::Role::kResponder,
                                     config_.platform->entropy());
  Bytes reply;
  put_u8(reply, kHelloReply);
  put_blob(reply, handshake.local_public_key());
  auto channel = std::move(handshake).complete(*peer_key);
  if (!channel.ok()) {
    fail(channel.error());
    return;
  }
  channel_.emplace(std::move(*channel));
  auto quote = make_bound_quote();
  if (!quote.ok()) {
    fail(quote.error());
    return;
  }
  put_blob(reply, *quote);
  cached_reply_wire_ = reply;
  peer_hello_key_ = *peer_key;
  state_ = State::kAwaitingFinish;
  ++timer_generation_;
  retries_left_ = config_.retry.max_retries;
  Status sent = send_raw(std::move(reply));
  if (!sent.ok()) {
    fail(std::move(sent));
    return;
  }
  arm_retransmit();  // covers a lost HelloReply *and* a lost Finish
}

void AttestedSession::handle_hello_reply(const Message& message) {
  if (role_ != Role::kInitiator) {
    fail(Error::protocol("session: unexpected HelloReply"));
    return;
  }
  if (state_ == State::kEstablished) {
    // Duplicate HelloReply: the responder retransmitted because our
    // Finish was lost. Re-send it verbatim.
    if (!cached_finish_wire_.empty()) {
      if (obs_retransmits_ != nullptr) obs_retransmits_->inc();
      (void)send_raw(Bytes(cached_finish_wire_));
    }
    return;
  }
  if (state_ != State::kAwaitingReply) {
    fail(Error::protocol("session: unexpected HelloReply"));
    return;
  }
  ByteReader r(message.payload);
  std::uint8_t type = 0;
  (void)r.get_u8(type);
  auto peer_key = read_key(r);
  Bytes quote_wire;
  if (!peer_key.ok() || !r.get_blob(quote_wire) || !r.done()) {
    fail(Error::protocol("session: malformed HelloReply"));
    return;
  }
  auto channel = std::move(*handshake_).complete(*peer_key);
  handshake_.reset();
  if (!channel.ok()) {
    fail(channel.error());
    return;
  }
  channel_.emplace(std::move(*channel));
  if (Status check = check_peer_quote(quote_wire); !check.ok()) {
    fail(std::move(check));
    return;
  }
  auto quote = make_bound_quote();
  if (!quote.ok()) {
    fail(quote.error());
    return;
  }
  Bytes finish;
  put_u8(finish, kFinish);
  put_blob(finish, *quote);
  cached_finish_wire_ = finish;
  mark_established();
  Status sent = send_raw(std::move(finish));
  if (!sent.ok()) fail(std::move(sent));
}

void AttestedSession::handle_finish(const Message& message) {
  if (role_ != Role::kResponder) {
    fail(Error::protocol("session: unexpected Finish"));
    return;
  }
  if (state_ == State::kEstablished) return;  // duplicate Finish — already done
  if (state_ != State::kAwaitingFinish) {
    fail(Error::protocol("session: unexpected Finish"));
    return;
  }
  ByteReader r(message.payload);
  std::uint8_t type = 0;
  (void)r.get_u8(type);
  Bytes quote_wire;
  if (!r.get_blob(quote_wire) || !r.done()) {
    fail(Error::protocol("session: malformed Finish"));
    return;
  }
  if (Status check = check_peer_quote(quote_wire); !check.ok()) {
    fail(std::move(check));
    return;
  }
  mark_established();
}

void AttestedSession::handle_data(const Message& message) {
  if (state_ != State::kEstablished) {
    fail(Error::protocol("session: Data before establishment"));
    return;
  }
  ByteReader r(message.payload);
  std::uint8_t type = 0;
  (void)r.get_u8(type);
  Bytes sealed;
  if (!r.get_blob(sealed) || !r.done()) {
    fail(Error::protocol("session: malformed Data record"));
    return;
  }
  auto plain = channel_->open(sealed);
  if (!plain.ok()) {
    // A record that fails AEAD (tamper, replay, reorder) kills the
    // session, TLS-style: the channel's sequence state is unrecoverable.
    if (obs_records_rejected_ != nullptr) obs_records_rejected_->inc();
    fail(plain.error());
    return;
  }
  if (obs_records_received_ != nullptr) obs_records_received_->inc();
  if (on_record_) on_record_(std::move(*plain));
}

Status AttestedSession::send(ByteView plaintext) {
  if (state_ != State::kEstablished) {
    return Error::unavailable("session not established");
  }
  Bytes wire;
  put_u8(wire, kData);
  put_blob(wire, channel_->seal(plaintext));
  if (obs_records_sent_ != nullptr) obs_records_sent_->inc();
  return send_raw(std::move(wire));
}

}  // namespace securecloud::net
