// Bench-side span recorder for the traced run.
//
// Every span is opened by the benchmark's own code around a call into one
// of the program's public entry points (parse_script, begin_session,
// EventSim::step, a transport delivery, ...). Spans carry a name, wall
// start/end, the simulated time at both edges, the span that was open
// when they started (their parent) and the id of the request they serve.
// They stay in memory until the run ends; self time is a span's duration
// minus the time its direct children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/event_sim.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< wall, relative to the tracer's origin
  std::int64_t end_ns = 0;
  double sim_start = 0;
  double sim_end = 0;
  std::int32_t parent = -1;  ///< index into Tracer::spans(), -1 = top level
  std::uint32_t request = 0;
};

/// Per-name totals over a set of spans.
struct LayerTotal {
  double total_s = 0;  ///< summed durations
  double self_s = 0;   ///< summed durations minus direct children
  std::uint64_t count = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Simulator whose clock stamps the sim edges (null = 0). The workload
  /// points this at the world it is driving and clears it before the
  /// world is destroyed.
  void set_sim(const clusterbft::cluster::EventSim* sim) { sim_ = sim; }
  void set_request(std::uint32_t request) { request_ = request; }

  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t now_ns() const;

  /// Totals per span name.
  std::map<std::string, LayerTotal> totals() const;
  /// Wall time covered by top-level spans.
  double top_level_s() const;

  /// Chrome Trace Event JSON (opens in Perfetto / chrome://tracing) for
  /// the first `last` spans: process 1 is the wall-clock track (nested
  /// slices per span), process 2 the sim-clock track (one slice per
  /// request from its submit to its verified outputs, `sim_requests`).
  /// At most `max_events` slices are written.
  struct SimSlice {
    std::uint32_t request = 0;
    double sim_start = 0;
    double sim_end = 0;
    std::string label;
  };
  bool write_chrome_json(const std::string& path, std::size_t last,
                         const std::vector<SimSlice>& sim_requests,
                         std::size_t max_events) const;

 private:
  double sim_now() const { return sim_ == nullptr ? 0.0 : sim_->now(); }

  Clock::time_point origin_;
  const clusterbft::cluster::EventSim* sim_ = nullptr;
  std::uint32_t request_ = 0;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer == nullptr ? -1 : tracer->begin(name)) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
