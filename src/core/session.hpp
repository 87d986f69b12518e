// Per-script execution state of the control tier.
//
// ClusterBft used to be "one controller = one script": every wave, run
// record, verifier and metric lived directly on the controller and was
// reset by begin_script(). The multi-tenant front end multiplexes N
// concurrent scripts through ONE controller event loop, so everything
// that belongs to a single script now lives here. The controller keeps
// only the shared substrate — pool membership, suspicion, fault
// analyzer, transport mirror, journal, timers, verified-relation stores
// — and routes every inbound event to the owning session by run id.
//
// Identity: a session's `scope` is "<request name>#<per-name serial>".
// The serial counts executions of the same request *name* (not global
// admissions), so a session's sids, wave scopes and journal payloads are
// independent of how concurrent admissions interleave — the property the
// serial-vs-concurrent bit-identity tests rest on. The journal stores
// the controller-global `id` (admission order) in every record's session
// field; recovery re-creates sessions in that order, so ids match again.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/event_sim.hpp"
#include "cluster/resource_table.hpp"
#include "core/fault_analyzer.hpp"
#include "core/request.hpp"
#include "core/verifier.hpp"
#include "crypto/digest.hpp"
#include "dataflow/plan.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::core {

struct ScriptSession {
  struct Wave {
    std::size_t replica = 0;
    std::vector<bool> includes;                       ///< per job
    std::vector<std::optional<std::size_t>> run_of;   ///< per job
    /// Cloud this wave's runs are placed in (ISSUE 10); 0 when only one
    /// cloud is attached, which keeps the single-cloud path
    /// bit-identical.
    std::uint64_t cloud = 0;
    /// Wave created by cross-cloud failover: its runs dispatch urgent.
    bool failover = false;
  };
  struct RunInfo {
    std::size_t wave = 0;
    std::size_t job = 0;
    /// Runs whose materialised (unverified) outputs this run read —
    /// the taint edges rollback propagates along. Verified inputs are
    /// trusted and record no edge.
    std::vector<std::size_t> upstream_runs;
  };

  /// Controller-global session id (1-based admission order); the value
  /// journal records carry in their session field.
  std::size_t id = 0;
  /// Per-request-name serial: how many sessions with this request name
  /// this controller has begun (admission-order independent identity).
  std::size_t serial = 0;
  /// "<name>#<serial>" — sid prefix, wave scope prefix, audit scope.
  std::string scope;

  /// Owned copy: a queued request outlives the caller's stack frame.
  ClientRequest request;
  /// Replica chains launched up front: base_replication(request) — the
  /// client's r (static) or f+1 (adaptive), cached at begin time.
  std::size_t base_replicas = 1;

  dataflow::LogicalPlan plan;
  mapreduce::JobDag dag;
  /// Registry handle for plan/dag.
  std::uint64_t program_id = 0;
  std::unique_ptr<Verifier> verifier;

  std::vector<Wave> waves;
  std::map<std::size_t, RunInfo> run_info;
  std::vector<bool> verified;              ///< per job
  std::vector<std::string> verified_path;  ///< per job
  /// Per job: one member of the verified majority — the reference a
  /// late-completing replica is compared against.
  std::vector<std::optional<std::size_t>> verified_ref_run;
  /// Per job.
  std::vector<std::optional<std::size_t>> first_complete_run;
  /// Output path -> job.
  std::map<std::string, std::size_t> job_by_output;
  std::vector<std::size_t> my_runs;
  /// Runs already blamed.
  std::set<std::size_t> attributed_runs;
  /// Cancelled as tainted.
  std::set<std::size_t> rolled_back_runs;
  /// The exact SubmitRun bytes journaled for each of my_runs — what
  /// resync() re-sends for runs whose completion was never journaled.
  std::map<std::size_t, std::vector<std::uint8_t>> dispatch_frames;
  /// Excluded nodes re-admitted by graceful degradation this script.
  std::set<cluster::NodeId> degraded_nodes;
  bool degraded = false;
  FailureReason failure = FailureReason::kNone;
  /// Per job, dispatch prio.
  std::vector<std::size_t> pipeline_depth;
  /// Decision round in flight.
  std::set<std::size_t> decision_pending;
  /// Decision latency paid.
  std::set<std::size_t> decision_paid;
  /// Per job, escalates.
  std::vector<double> job_timeout_s;

  bool finished = false;
  bool success = false;
  /// kScriptFinish exists in the journal (written live or seen in
  /// replay); collect must not append a duplicate.
  bool finish_journaled = false;
  /// collect_session() already returned this session's result.
  bool collected = false;
  cluster::SimTime start_time = 0;
  cluster::SimTime finish_time = 0;
  std::size_t commission_seen = 0;
  std::size_t omission_seen = 0;
  /// Event counters the session bumps as it runs (rollbacks, digest
  /// reports, cache hits, checkpoints and their bytes, escalations, cloud
  /// failovers). collect_result() adds the per-run costs, waves and
  /// latency to a copy.
  ScriptMetrics metrics;

  // ---- verified-result cache bookkeeping (request.use_result_cache) ----
  /// Per job: the sub-graph cache key — SHA-256 over (canonical logical-
  /// plan fingerprint of the job and its upstream structure, content
  /// digests of the LOAD inputs, r-policy). Composed recursively through
  /// dep keys, so equal keys mean equal verified results.
  std::vector<crypto::Digest256> cache_key;
  /// Per job: key well-defined (topological deps; defensive).
  std::vector<bool> cache_ok;
  /// Per job: skip in every wave — all consumers were adopted from the
  /// cache, so the job's output is never needed.
  std::vector<bool> wave_skip;
  /// Per job: nodes whose conviction invalidates this sub-graph's cached
  /// result (the majority runs' fault clusters plus dep contributors).
  std::vector<std::set<cluster::NodeId>> contributors;
  /// Per job: hex fingerprint of the verified digest vector (evidence a
  /// cache hit must reproduce byte-identically).
  std::vector<std::string> verified_fp_hex;

  // ---- adaptive checkpointing (request.adaptive_checkpoints) ----
  /// Per job: selected by the graph analyzer's cost model — when this
  /// job verifies, its relation is materialised to (or adopted from)
  /// the checkpoint store.
  std::vector<bool> ckpt_selected;
};

}  // namespace clusterbft::core
