// Transport: the pluggable pipe the two tiers talk through.
//
// Each direction carries protocol::Message values; the two ends bind a
// handler each. Sends that happen before the matching handler is bound
// (the computation service announces the cluster while the control tier
// is still constructing) are buffered and flushed in FIFO order at bind
// time, so startup ordering never drops membership events.
//
// Implementations:
//  - LoopbackTransport (loopback.hpp): synchronous, zero-copy, no codec.
//    The default seam — everything observable stays bit-identical to the
//    old direct-call wiring.
//  - ChaosTransport (chaos.hpp): encodes every message through the codec
//    and ships it via the simulated network's link model (drop/duplicate/
//    delay) plus adversarial reorder and frame corruption. What a
//    deployment against a real network would see.
//
// Payload lifetime contract: a delivered Message may carry borrowed Text
// fields pointing into the transport's frame buffer (the codec's
// zero-copy receive path). The transport guarantees the frame outlives
// the synchronous handler call — and nothing more. Handlers that retain
// a field or the whole Message must copy (copies materialize borrows,
// see text.hpp). Messages the transport itself must buffer (sent before
// the handler is bound) are materialized via own_payload() first, so
// deferred delivery is always safe.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "protocol/messages.hpp"

namespace clusterbft::protocol {

class Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  virtual ~Transport() = default;

  void bind_control(Handler h) {
    control_ = std::move(h);
    flush(control_, pending_control_);
  }
  void bind_computation(Handler h) {
    computation_ = std::move(h);
    flush(computation_, pending_computation_);
  }

  /// Put an inbound control-side message back into the delivery queue
  /// verbatim (crash model: the message a dying controller failed to
  /// observe is still on the wire; with its handler unbound it buffers
  /// until the recovered instance binds). Bypasses any fault model on
  /// purpose — the message already survived the outbound leg once.
  void requeue_control(Message m) { deliver_control(std::move(m)); }

  /// Send towards the control tier (computation-side call).
  virtual void to_control(Message m) = 0;
  /// Send towards the computation tier (control-side call).
  virtual void to_computation(Message m) = 0;

 protected:
  void deliver_control(Message m) { deliver(control_, pending_control_, std::move(m)); }
  void deliver_computation(Message m) {
    deliver(computation_, pending_computation_, std::move(m));
  }

 private:
  static void deliver(Handler& h, std::vector<Message>& pending, Message m) {
    if (h) {
      h(m);
    } else {
      // Buffered past the caller's frame lifetime: borrows must become
      // owned bytes before the frame goes away.
      own_payload(m);
      pending.push_back(std::move(m));
    }
  }
  static void flush(Handler& h, std::vector<Message>& pending) {
    std::vector<Message> queued;
    queued.swap(pending);
    for (Message& m : queued) h(m);
  }

  Handler control_;
  Handler computation_;
  std::vector<Message> pending_control_;
  std::vector<Message> pending_computation_;
};

}  // namespace clusterbft::protocol
