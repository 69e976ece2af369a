#include "net/session_demux.hpp"

namespace securecloud::net {

Status SessionDemux::bind() {
  if (bound_) return {};
  SC_RETURN_IF_ERROR(fabric_.set_handler(
      self_, channel_, [this](const Message& m) { on_message(m); }));
  bound_ = true;
  return {};
}

void SessionDemux::add(NodeId peer, AttestedSession* session) {
  sessions_[peer] = session;
}

void SessionDemux::on_message(const Message& message) {
  auto it = sessions_.find(message.src);
  if (it == sessions_.end() || it->second == nullptr) {
    ++unknown_peer_drops_;
    return;
  }
  it->second->on_message(message);
}

}  // namespace securecloud::net
