// Attested secure sessions over the cluster fabric.
//
// This is the paper's "TLS connection to an attested enclave" made
// concrete on the simulated network: a one-round-trip X25519 handshake
// (crypto::ChannelHandshake) runs *as fabric messages*, and each side
// proves it is a genuine enclave by quoting a report whose report_data
// carries the handshake transcript hash. Verifying that binding defeats
// the classic relay attack — an attacker who forwards someone else's
// valid quote cannot make it match THIS session's transcript — and an
// optional MRENCLAVE pin enforces code-identity policy on top.
//
//   initiator                          responder
//   --------- Hello {epk_i} --------->
//   <-- HelloReply {epk_r, quote_r} --   quote_r.report_data = H(transcript)
//   --------- Finish {quote_i} ------>   both sides verify + policy-check
//   <========= Data records =========>   AES-GCM via SecureChannel
//
// Sessions are driven entirely by fabric events: call start() on the
// initiator, pump Fabric::run_until_idle(), and both ends reach
// kEstablished (or kFailed with a typed Status). Handshake frames are
// covered by an optional bounded retransmit timer (Config::retry): the
// side waiting on a reply re-sends its last handshake message until the
// reply lands or the budget exhausts (typed kUnavailable) — so sessions
// survive armed kNetLoss during setup. A responder answers one
// initiator key: a retransmitted Hello gets the cached reply verbatim,
// and a Hello carrying any other key is dropped, so an injected frame
// cannot restart an established session. A session's job ends with the
// handshake and the records sealed over it; liveness is the flow
// layer's to judge.
#pragma once

#include <optional>

#include "crypto/secure_channel.hpp"
#include "net/fabric.hpp"
#include "obs/registry.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"

namespace securecloud::net {

class AttestedSession {
 public:
  enum class Role { kInitiator, kResponder };
  enum class State { kIdle, kAwaitingReply, kAwaitingFinish, kEstablished, kFailed };

  struct Config {
    Fabric* fabric = nullptr;
    NodeId self = 0;
    NodeId peer = 0;
    std::uint32_t channel = 1;  // fabric channel the session occupies
    /// The local attesting identity: this enclave's reports, quoted by
    /// this platform, verified against this (IAS-like) service.
    sgx::Enclave* enclave = nullptr;
    sgx::Platform* platform = nullptr;
    const sgx::AttestationService* attestation = nullptr;
    /// Policy pin: when set, the peer's quoted MRENCLAVE must equal this
    /// measurement (kAttestationFailure otherwise).
    std::optional<sgx::Measurement> expected_peer_mrenclave;
    /// Handshake retransmission. Disabled by default (legacy behavior:
    /// a lost handshake frame hangs the session silently).
    struct RetryConfig {
      /// 0 = no retransmit. Otherwise the side awaiting a handshake
      /// reply re-sends its last message every timeout via a fabric
      /// timer (deterministic — timers share the event queue).
      std::uint64_t retransmit_timeout_ns = 0;
      /// After this many re-sends the session fails with kUnavailable.
      std::size_t max_retries = 8;
    };
    RetryConfig retry;
  };

  AttestedSession(Role role, Config config);

  AttestedSession(const AttestedSession&) = delete;
  AttestedSession& operator=(const AttestedSession&) = delete;

  /// Registers this session as the fabric handler for (self, channel).
  /// Convenience for nodes with one peer per channel; a node multiplexing
  /// several sessions on one channel installs its own handler and routes
  /// each Message to the right session's on_message() by msg.src.
  Status bind();

  /// Initiator only: sends Hello. The handshake then completes as the
  /// fabric delivers events.
  Status start();

  /// Feeds one fabric message to the session state machine. Safe to call
  /// from a fabric handler (may send follow-up messages).
  void on_message(const Message& message);

  /// Seals `plaintext` into a Data record and sends it. kFailedPrecondition
  /// -free design: returns kUnavailable until established.
  Status send(ByteView plaintext);

  /// Delivery callback for opened Data records.
  using OnRecord = std::function<void(Bytes plaintext)>;
  void set_on_record(OnRecord fn) { on_record_ = std::move(fn); }

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  /// The Status that moved the session to kFailed (ok() otherwise).
  const Status& failure() const { return failure_; }
  /// Valid once the channel exists (responder: after Hello; initiator:
  /// after HelloReply).
  const crypto::Sha256Digest& transcript_hash() const;

  /// `net_session_*` counters: established/failed handshakes, handshake
  /// retransmits, records in/out.
  void set_obs(obs::Registry* registry);

  /// Flight recorder notified of session failures (postmortem trail).
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

 private:
  // Wire record types (first byte of every session message).
  static constexpr std::uint8_t kHello = 1;
  static constexpr std::uint8_t kHelloReply = 2;
  static constexpr std::uint8_t kFinish = 3;
  static constexpr std::uint8_t kData = 4;

  Status send_raw(Bytes wire) {
    return config_.fabric->send(config_.self, config_.peer, config_.channel,
                                std::move(wire));
  }
  /// Produces this side's quote with report_data = H(transcript).
  Result<Bytes> make_bound_quote() const;
  /// Verifies the peer's quote wire: signature (via the service),
  /// transcript binding, and the optional MRENCLAVE pin.
  Status check_peer_quote(ByteView quote_wire) const;
  void fail(Status status);
  void handle_hello(const Message& message);
  void handle_hello_reply(const Message& message);
  void handle_finish(const Message& message);
  void handle_data(const Message& message);
  /// (Re)arms the retransmit timer for the current awaiting state.
  void arm_retransmit();
  void on_retransmit_timer(std::uint64_t generation);
  /// Marks establishment, bumping the established counter.
  void mark_established();

  Role role_;
  Config config_;
  State state_ = State::kIdle;
  Status failure_;
  std::optional<crypto::ChannelHandshake> handshake_;
  std::optional<crypto::SecureChannel> channel_;
  OnRecord on_record_;
  obs::FlightRecorder* flight_ = nullptr;

  // Retransmit state: the last handshake message this side sent (re-sent
  // verbatim on timer or on a duplicate from the peer), the key of the
  // Hello this responder answered (to tell a retransmit from a foreign
  // Hello), and a generation counter that invalidates timers armed for
  // superseded states.
  Bytes cached_hello_wire_;
  Bytes cached_reply_wire_;
  Bytes cached_finish_wire_;
  crypto::X25519Key peer_hello_key_{};
  std::uint64_t timer_generation_ = 0;
  std::size_t retries_left_ = 0;

  obs::Counter* obs_established_ = nullptr;
  obs::Counter* obs_failed_ = nullptr;
  obs::Counter* obs_retransmits_ = nullptr;
  obs::Counter* obs_records_sent_ = nullptr;
  obs::Counter* obs_records_received_ = nullptr;
  obs::Counter* obs_records_rejected_ = nullptr;
};

}  // namespace securecloud::net
