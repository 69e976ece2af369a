// Multiplexes attested sessions on one fabric channel.
//
// A node terminating several AttestedSessions (the DMR coordinator, an
// interior overlay broker or pipeline stage) cannot let each session
// bind() the shared session channel — the last bind would win. The demux
// owns the channel handler instead and routes each inbound Message to the
// session registered for its source node; a frame from an unregistered
// peer is counted and dropped (an attested channel has no business
// accepting strangers). bigdata::EnclaveCluster gives every node one.
#pragma once

#include <map>

#include "net/session.hpp"

namespace securecloud::net {

class SessionDemux {
 public:
  SessionDemux(Fabric& fabric, NodeId self, std::uint32_t channel)
      : fabric_(fabric), self_(self), channel_(channel) {}

  SessionDemux(const SessionDemux&) = delete;
  SessionDemux& operator=(const SessionDemux&) = delete;

  /// Installs the channel handler. Idempotent; call before any peer's
  /// handshake traffic can arrive.
  Status bind();

  /// Routes future messages from `peer` to `session`. A later add() for
  /// the same peer replaces the route.
  void add(NodeId peer, AttestedSession* session);

  std::size_t session_count() const { return sessions_.size(); }
  std::uint64_t unknown_peer_drops() const { return unknown_peer_drops_; }

 private:
  void on_message(const Message& message);

  Fabric& fabric_;
  NodeId self_;
  std::uint32_t channel_;
  bool bound_ = false;
  std::map<NodeId, AttestedSession*> sessions_;
  std::uint64_t unknown_peer_drops_ = 0;
};

}  // namespace securecloud::net
