// Deterministic discrete-event simulator.
//
// Everything time-dependent in ClusterBFT's evaluation runs — task
// completions, heartbeat-driven dispatch, verifier timeouts, PBFT message
// delivery — is an event in this queue. Ties are broken by insertion
// sequence, so a run is a pure function of its inputs and seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace clusterbft::cluster {

/// Simulated seconds.
using SimTime = double;

class EventSim {
 public:
  using Action = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now).
  void schedule_at(SimTime at, Action fn);

  /// Schedule `fn` after `delay` seconds.
  void schedule_after(SimTime delay, Action fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Run the earliest event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue drains (or `max_events` fire — a runaway guard).
  void run(std::size_t max_events = 100'000'000);

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  /// A binary heap under Later (std::push_heap/pop_heap), kept by hand
  /// rather than in a std::priority_queue so step() can move the earliest
  /// event out instead of copying it.
  std::vector<Event> queue_;
};

}  // namespace clusterbft::cluster
