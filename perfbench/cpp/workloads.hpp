// The benchmark's three workloads. Each owns its generated inputs (made
// from the run seed during setup), its reference outputs from
// dataflow::interpret, and a fixed request set it replays once per pass;
// a pass in a fresh world is bit-identical in simulated time to every
// other pass of the same set, which main.cpp checks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {

struct RequestSample {
  /// Closed loop: wall time of the controller's execution of the request.
  /// Open loop: wall time from submission to the bench observing the
  /// verified result.
  double wall_s = 0;
  /// Simulated seconds from when the request was due to its verified
  /// outputs (+inf when it failed or diverged).
  double sim_latency_s = 0;
  /// Replica task-seconds spent on the request (simulated).
  double sim_cpu_s = 0;
  bool ok = false;
  /// Closed loop, untraced: wall seconds of the reference workload run
  /// just before this request (0 for a pass's first request, which the
  /// pass's own reference run precedes).
  double reference_s = 0;
};

/// Program-reported counters summed over a pass.
struct PassCounts {
  std::uint64_t runs = 0;
  std::uint64_t waves = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t escalations = 0;
  std::uint64_t cloud_failovers = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t digest_reports = 0;
  std::uint64_t digested_bytes = 0;
  std::uint64_t dfs_read_bytes = 0;
  std::uint64_t dfs_write_bytes = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  double sim_task_s = 0;       ///< replica task-seconds
  double sim_slot_s = 0;       ///< slot-seconds available while serving
  std::uint64_t queued_peak = 0;      ///< front end only
  double frontend_p99_s = 0;          ///< front end's own p99 service latency
  // Bench-side counts at the transport seam (traced passes only).
  std::uint64_t to_control_msgs = 0;
  std::uint64_t to_computation_msgs = 0;
  std::uint64_t sim_events = 0;
};

struct PassResult {
  std::vector<RequestSample> requests;
  double wall_s = 0;  ///< the pass, excluding the output check
  double cpu_s = 0;   ///< process CPU over the same interval
  /// Hex SHA-256 over every simulated-clock quantity the pass produced.
  std::string sim_fingerprint;
  PassCounts counts;
  std::uint64_t failed = 0;
  /// Open loop: largest (submit time - due time) of any arrival.
  double max_lateness_s = 0;
  /// Open loop: when each request was due (simulated seconds).
  std::vector<double> due;
  /// Open loop: the bench's percentiles agreed with the front end's own.
  bool frontend_agrees = true;
  std::vector<Tracer::SimSlice> sim_slices;
  /// Encoded control-plane frames seen at the seam (first traced pass).
  std::vector<std::vector<std::uint8_t>> frames;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate inputs and reference outputs from `seed`, and warm up.
  virtual void setup(std::uint64_t seed) = 0;
  /// Serve the request set once. With a tracer, wrap every call into the
  /// program in spans, replay each request bench-side into `replay`, and
  /// (when `capture` is set) keep the encoded control-plane frames.
  virtual PassResult run_pass(Tracer* tracer, ReplayCounts* replay,
                              bool capture) = 0;
  /// Simulated requests per second the service sustains (see README).
  virtual double sustainable_rps(const PassResult& pass) = 0;
  /// Minimum requests the timed phase must hold.
  virtual std::size_t min_requests() const = 0;
  /// "closed" (one request at a time) or "open" (scheduled arrivals).
  virtual const char* loop() const = 0;

  /// A closed loop runs `reference` between the requests of an untraced
  /// pass and leaves its time out of the pass's wall and CPU time.
  void set_reference(std::function<double()> reference) {
    reference_ = std::move(reference);
  }

 protected:
  std::function<double()> reference_;
};

/// `name` is follower_bft, tenant_stream or byzantine_failover; files
/// the workload writes (journals) go under `out_dir`. Null when unknown.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& out_dir);

/// Nearest-rank percentile (p in (0, 100]) of `v`; +inf entries sort last.
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
