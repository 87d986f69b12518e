#include "cluster/event_sim.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace clusterbft::cluster {

void EventSim::schedule_at(SimTime at, Action fn) {
  CBFT_CHECK_MSG(at >= now_, "cannot schedule in the past");
  queue_.push_back(Event{at, seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool EventSim::step() {
  if (queue_.empty()) return false;
  // pop_heap moves the earliest event to the back; take it from there by
  // move. A copy would copy the action's std::function and everything it
  // captured (task results included).
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event e = std::move(queue_.back());
  queue_.pop_back();
  now_ = e.at;
  e.fn();
  return true;
}

void EventSim::run(std::size_t max_events) {
  std::size_t n = 0;
  while (step()) {
    CBFT_CHECK_MSG(++n <= max_events, "event budget exhausted (livelock?)");
  }
}

}  // namespace clusterbft::cluster
