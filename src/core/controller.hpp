// The ClusterBFT control tier (§4, Fig. 2): request handler (client
// handler + graph analyzer + job initiator), verifier, and the rerun /
// fault-isolation policy, driving the untrusted computation tier through
// typed control-plane protocol messages over a pluggable transport — the
// trust boundary of the paper is exactly that seam.
//
// Multi-tenant model: the controller is the SHARED substrate — pool
// membership, suspicion mirror, fault analyzer, transport, journal,
// timers, and the two verified-relation stores. Everything that belongs
// to one script lives in a core::ScriptSession (core/session.hpp) and N
// sessions multiplex concurrently through the one event loop: inbound
// digests and completions route to the owning session by run id, timers
// carry their session, and journal records are namespaced by a session
// field so crash-recovery replays a *set* of in-flight scripts
// bit-identically. One private drive loop steps the simulation until
// one session (execute) or every session (drive_all, recover_all) has
// finished, and one collect step promotes a finished session's outputs
// and journals its kScriptFinish. `execute()` is the one-shot
// convenience (begin + drive + collect); the front end (src/frontend)
// uses the session API directly to keep many scripts in flight.
//
// Execution model per script:
//  * the script is parsed, analysed (verification points) and compiled to
//    a job DAG;
//  * r replica *chains* ("waves") of the DAG execute independently — each
//    chain's job reads its own chain's intermediates, so a Byzantine node
//    taints at most the chains it served (replica pinning in the tracker);
//  * digests stream to the verifier; a job is *verified* once f+1
//    completed replicas agree on its whole digest vector; deviant replicas
//    are commission faults (fault analyzer + suspicion); chains do NOT
//    wait for verification (offline comparison) — the scheduler walks the
//    DAG in dependency order and dispatches every job whose inputs are
//    materialised, critical-path-first under an optional per-chain
//    pipeline-width cap, while the verifier folds each completed run's
//    digest vector into a fingerprint inline, batched per decision;
//  * a mismatch discovered only after downstream jobs consumed the
//    deviant output triggers a *targeted rollback*: exactly the runs
//    downstream-tainted through recorded run-to-run input edges are
//    cancelled, forgotten by the verifier, and re-dispatched from the
//    verified upstream outputs — untainted chains keep running;
//  * if a job's replicas all complete without f+1 agreement, or its
//    verifier timeout expires, a new wave re-executes exactly the
//    still-unverified jobs — verified prefixes are reused, which is where
//    ClusterBFT beats verify-only-the-final-output replication (Table 3);
//  * the script is done when every final STORE job is verified; one
//    verified replica's output is promoted to the plain store path.
//
// Verified-relation stores (core/verified_store.hpp): every job's
// sub-graph is keyed by (canonical logical-plan fingerprint, LOAD input
// content digests, r-policy), composed recursively through dependency
// keys. Two instances of the one store class share that key:
//  * the result cache (ClientRequest::use_result_cache): when a key
//    matches an earlier *verified* sub-graph, the session adopts the
//    cached digest-vector fingerprint and materialised relation instead
//    of re-running it — journaled as kCacheHit, audited as a cache-hit
//    event, and counted in ScriptMetrics::cache_hits;
//  * the checkpoint store (ClientRequest::adaptive_checkpoints): a
//    cost-model-selected job's verified relation is materialised to
//    `ckpt/<key-hex>` (or an earlier copy adopted) — journaled as
//    kCheckpoint before the DFS write.
// They are separate instances so a cache lookup never adopts a
// checkpoint-only entry. Convicting a node that contributed to an entry
// (commission attribution or a probe conviction) invalidates every
// dependent entry in both; both conviction paths are journaled stimuli,
// so the stores replay deterministically.
//
// Durability and crash-recovery (core/journal.hpp): when constructed over
// a Journal, the controller writes a typed record for every stimulus
// (inbound message, timer firing, threshold application, probe outcome)
// and journals every externally visible decision (wave creation, run
// dispatch, verification, cache adoption, rollback, suspicion update,
// degradation) *before* the corresponding control-plane message is sent.
// An injected crash (Journal::set_crash_at) turns the instance into a
// no-op shell: it detaches from the transport, refuses all further work,
// and execute()/recover() throw ControllerCrashed. A fresh instance over
// the same journal then recover()s (recover_all() for a concurrent set):
// it replays the stimulus stream through the (deterministic) handlers
// with sends muted, rebuilding every in-flight session's waves, run
// info, verifier evidence, fault-analyzer state and the audit history
// bit-for-bit, then resynchronises the computation tier — re-sending the
// journaled SubmitRun/CancelRun/DrainNode/ReadmitNode bytes for work
// whose completion was never journaled (the service deduplicates by run
// id and re-emits retained events) — and resumes every script mid-flight.
//
// Graceful degradation: when suspicion-driven exclusion plus node
// crashes shrink the healthy pool below what r needs, the controller
// never deadlocks. Depending on ClientRequest::degraded_mode it either
// re-admits the least-suspect excluded nodes (journaled + audited as
// kDegraded; the script is marked degraded and every final output must
// verify before promotion) or fails honestly with
// FailureReason::kPoolExhausted.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/event_sim.hpp"
#include "common/guarded.hpp"
#include "core/audit.hpp"
#include "core/fault_analyzer.hpp"
#include "core/journal.hpp"
#include "core/request.hpp"
#include "core/session.hpp"
#include "core/verified_store.hpp"
#include "core/verifier.hpp"
#include "dataflow/plan.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/dfs.hpp"
#include "protocol/control_plane.hpp"
#include "protocol/registry.hpp"

namespace clusterbft::core {

class ClusterBft {
 public:
  /// The controller is the trusted control tier: it drives the untrusted
  /// computation tier exclusively through protocol messages over
  /// `transport`, and publishes compiled programs through `programs` (the
  /// stand-in for the shared job-bundle store). It never holds a
  /// reference to the execution machinery itself — the trust boundary of
  /// §4 is the transport seam. With a non-null `journal` every stimulus
  /// and decision is journaled write-ahead; a journal whose sessions
  /// never all finished makes the constructor defer inbound traffic
  /// until recover()/recover_all() replayed the log.
  ClusterBft(cluster::EventSim& sim, mapreduce::Dfs& dfs,
             protocol::Transport& transport,
             protocol::ProgramRegistry& programs, Journal* journal = nullptr);

  /// Execute one script to verified completion (synchronous: drives the
  /// event simulation). Throws ParseError/CheckError on malformed input
  /// and ControllerCrashed when an injected journal crash point fires.
  ScriptResult execute(const ClientRequest& request);

  /// Rebuild the state of a controller that crashed mid-script by
  /// replaying the journal, resynchronise the computation tier, and
  /// drive the script to completion. `request` must be the same request
  /// the crashed life was executing (the journal stores stimuli, not the
  /// script text). Throws ControllerCrashed if a newly armed crash point
  /// fires during or after recovery.
  ScriptResult recover(const ClientRequest& request);

  /// Multi-session recovery: replay the journal, matching its n-th
  /// kScriptStart of each request *name* to the n-th request with that
  /// name in `requests`, resync the computation tier, begin any request
  /// the crashed life never durably started, drive everything to
  /// completion, and return the results in request order. Sessions that
  /// finished before the crash are re-collected without duplicating
  /// their kScriptFinish record. A request that admission refuses
  /// (InputError/ParseError — never journaled, so it is begun afresh
  /// here) gets a kRejected result, as the front end gives it; the other
  /// requests still run.
  std::vector<ScriptResult> recover_all(
      const std::vector<ClientRequest>& requests);

  // ---- multi-session API (the front end's interface) ----
  /// Admit a script: parse, analyse, compile, journal kScriptStart,
  /// adopt cache hits, and dispatch its initial waves. Returns the
  /// session id (1-based). Throws like execute(); a fully cache-hit
  /// script is finished on return.
  std::size_t begin_session(const ClientRequest& request);
  bool session_finished(std::size_t session) const;
  /// Sessions begun and not yet finished.
  std::size_t active_sessions() const;
  /// Drive the event loop until every active session finished (or the
  /// queue drains: remaining sessions fail as kStalled with diagnostics).
  void drive_all();
  /// Declare every still-unfinished session stalled (the event queue
  /// drained under it), with an audit event naming the session, wave,
  /// and first unmet dependency.
  void fail_stalled_sessions();
  /// Result of a finished session (promotes outputs, journals the
  /// session's kScriptFinish). Callable once per session.
  ScriptResult collect_session(std::size_t session);
  /// Nodes currently schedulable: cluster size minus exclusions — what
  /// admission weighs aggregate r against.
  std::size_t healthy_pool_size() const;
  /// Placement-aware capacity (ISSUE 10): healthy nodes in the clouds
  /// the request's placement policy may actually use (down clouds
  /// excluded). Collapses to healthy_pool_size() when at most one cloud
  /// is attached, so single-cloud admission is unchanged. Read-only —
  /// the front end weighs aggregate demand against it.
  std::size_t placement_capacity(const ClientRequest& request) const;
  VerifiedStore::Stats cache_stats() const;
  VerifiedStore::Stats checkpoint_stats() const;

  /// The fault analyzer persists across scripts so isolation sharpens
  /// over a workload (§4.3). Null until the first fault was observed.
  const FaultAnalyzer* fault_analyzer() const {
    const common::RoleGuard held(common::scheduler_thread_role);
    return fault_analyzer_.get();
  }

  /// Exclude nodes whose suspicion exceeds `threshold` from scheduling.
  std::vector<cluster::NodeId> apply_suspicion_threshold(double threshold);

  struct ProbeReport {
    std::size_t probes_run = 0;
    std::set<cluster::NodeId> confirmed_commission;  ///< wrong output
    std::set<cluster::NodeId> confirmed_omission;    ///< never answered
    std::set<cluster::NodeId> cleared;               ///< matched the control
  };

  /// Chronological record of security-relevant events — §3.1's
  /// "attribution as well as auditing". Persists across scripts.
  const AuditLog& audit_log() const {
    const common::RoleGuard held(common::scheduler_thread_role);
    return audit_;
  }

  /// §3.3 fault isolation: run dummy probe jobs to narrow the suspect
  /// set. For each currently suspected node, a tiny pass-through job over
  /// `probe_input_path` runs twice — once pinned to the suspect, once on
  /// nodes outside the suspect set — and the outputs are compared in the
  /// trusted tier. A mismatch convicts exactly that node (the fault
  /// analyzer's sets collapse to singletons); silence convicts it of
  /// omission. Trades probe cost for attribution precision, exactly the
  /// knob the paper describes.
  ProbeReport probe_suspects(const std::string& probe_input_path);

 private:
  using Wave = ScriptSession::Wave;
  using RunInfo = ScriptSession::RunInfo;
  /// A pending control-tier timer. Arms are not journaled (they are a
  /// deterministic consequence of the journaled stimuli); firings are
  /// journaled as kTimerFired so recovery replays exactly the timers
  /// that fired pre-crash and re-arms the rest.
  struct TimerSpec {
    enum class Kind { kJobTimeout, kDecision };
    Kind kind = Kind::kJobTimeout;
    std::size_t session = 0;  ///< owning session id
    std::size_t job = 0;
    std::size_t wave = 0;   ///< kJobTimeout only
    std::size_t run = 0;    ///< kJobTimeout only
    cluster::SimTime deadline = 0;
  };

  // Script lifecycle (execute = begin_script + drive + collect_result;
  // recover = replay + resync + drive + collect_result). Every private
  // step declares the scheduler-thread capability: under clang
  // -Wthread-safety a pool payload (or any async path) calling into
  // controller state without the role is a compile error.
  /// Create + admit a session. Returns null when the crash point fired
  /// on the session's kScriptStart append (the session never durably
  /// existed).
  ScriptSession* begin_script(const ClientRequest& request)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Step the simulation until `only` — or, when null, every session —
  /// has finished or the queue drains; stall whichever of them is still
  /// unfinished, then drain stragglers and stale timers. Throws
  /// ControllerCrashed when the crash point fired.
  void drive(ScriptSession* only)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Result of a finished session: promote its outputs, journal its
  /// kScriptFinish unless one exists, and mark it collected.
  ScriptResult collect_result(ScriptSession& s)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Throw ControllerCrashed if the injected crash point fired.
  void throw_if_crashed() const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void replay_record(
      const JournalRecord& rec,
      std::map<std::string, std::vector<const ClientRequest*>>& pending,
      std::map<std::string, std::vector<std::size_t>>& replayed_ids)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void resync() CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// The session owning `run_id`, or null (stale straggler / probe run).
  ScriptSession* session_of_run(std::size_t run_id)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void mark_stalled(ScriptSession& s)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  // Event-driven steps.
  void handle_digest(const mapreduce::DigestReport& report,
                     std::size_t run_id, cluster::NodeId node)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void handle_run_complete(std::size_t run_id)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void handle_timeout(ScriptSession& s, std::size_t job,
                      std::size_t wave_index, std::size_t run_id)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Dispatch ready wave jobs, critical-path-first.
  void pump(ScriptSession& s)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void submit_job(ScriptSession& s, std::size_t wave_index, std::size_t job)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void try_verify(ScriptSession& s, std::size_t job)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void need_wave(ScriptSession& s, std::size_t job, bool force)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// With a scope job (adaptive checkpointing), the wave re-executes only
  /// the scope job's unverified-ancestor closure — restart from the
  /// nearest verified (checkpointed) boundary instead of chain inputs.
  /// Without one, the wave covers every unverified job (the classic
  /// full rerun wave and all initial replicas). `disputed_job` names the
  /// job whose failed evidence triggered a rerun wave — multi-cloud
  /// failover steers the wave away from the clouds whose replicas of
  /// that job disagreed or timed out (journaled kCloudFailover when the
  /// wave changes cloud).
  void create_wave(ScriptSession& s,
                   std::optional<std::size_t> scope_job = std::nullopt,
                   std::optional<std::size_t> disputed_job = std::nullopt)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void check_completion(ScriptSession& s)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void finish(ScriptSession& s, bool success)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  // Verified-result cache.
  /// Fill s.cache_key / s.cache_ok for every job (pure function of the
  /// plan structure, LOAD input content, and r-policy).
  void compute_cache_keys(ScriptSession& s)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Adopt every cached verified sub-graph (journal kCacheHit each) and
  /// mark jobs whose consumers were all adopted as wave_skip.
  void adopt_cache_hits(ScriptSession& s)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Content digest of a LOAD input (canonical row serialisation),
  /// memoized by (path, size).
  crypto::Digest256 input_digest(const std::string& path)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Fill s.contributors[job] — the majority runs' fault clusters plus
  /// every dependency's contributors; the invalidation set both the
  /// result cache and the checkpoint store key entries on.
  void compute_contributors(ScriptSession& s, std::size_t job,
                            const std::vector<std::size_t>& majority_runs)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Insert a freshly verified job's sub-graph, with the majority's
  /// digest-vector `fingerprint`, into the cache when eligible.
  void cache_store_verified(ScriptSession& s, std::size_t job,
                            const crypto::Digest256& fingerprint)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Adaptive checkpointing: when the cost model selected `job`, journal
  /// a kCheckpoint record and either materialise the freshly verified
  /// relation to the content-addressed store or adopt the bytes an
  /// earlier session already checkpointed under the same key, then
  /// repoint verified_path[job] at the durable copy.
  void maybe_checkpoint(ScriptSession& s, std::size_t job,
                        const crypto::Digest256& fingerprint)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// A convicted node poisons every cache entry and checkpoint it
  /// contributed to: drop them from both stores so no future session
  /// adopts tainted evidence.
  void invalidate_convicted(cluster::NodeId node)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  // Journal / crash plumbing.
  /// Append a record write-ahead, tagged with the owning session (0 for
  /// substrate records). Returns false when the injected crash point
  /// fired — the caller must abandon the action (the record, and with it
  /// the action, died with the process).
  bool journal_decision(std::uint32_t session, RecordKind kind,
                        std::vector<std::uint8_t> payload)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Flip to the no-op shell and detach the transport.
  void crash_now() CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Simulated time: the replayed record's timestamp during recovery
  /// replay, the live simulator otherwise. Every audit / wave timestamp
  /// uses this so a recovered history is bit-identical.
  cluster::SimTime now() const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role) {
    return replaying_ ? replay_now_ : sim_.now();
  }
  std::size_t arm_timer(TimerSpec spec, double delay)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void fire_timer(std::size_t id)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void apply_probe_outcome(std::uint64_t suspect, std::uint8_t verdict)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  std::vector<cluster::NodeId> apply_threshold_internal(double threshold)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Pool-exhaustion guard (runs before each wave): when the healthy
  /// pool has fewer than max(1, r) nodes, degrade (re-admit the least
  /// suspect excluded nodes) or fail honestly per the request's
  /// degraded_mode. Returns false when the wave must not be created.
  bool ensure_capacity(ScriptSession& s)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Clouds the placement policy may place a wave in, in preference
  /// order: graph_analyzer::placement_order over the membership mirror's
  /// cloud views, minus clouds currently marked down. Empty only when no
  /// allowed cloud is up (the multi-cloud pool-exhaustion condition).
  std::vector<std::uint64_t> placement_candidates(Placement placement) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Inbound traffic attributable to `run_id`'s cloud proves the cloud
  /// is alive: reset its timeout strikes and re-admit it to placement if
  /// it was marked down (audited kCloudReadmitted).
  void note_cloud_alive(std::size_t run_id)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Cancel and forget every run transitively tainted by the given
  /// deviant runs (downstream along recorded `upstream_runs` edges),
  /// except runs whose completed digests agree with their job's verified
  /// majority — a tainted input that provably produced the correct
  /// output needs no rerun. The affected wave slots are cleared so pump()
  /// re-dispatches them from verified outputs.
  void rollback_tainted(ScriptSession& s,
                        const std::vector<std::size_t>& deviant_runs)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Nodes plausibly responsible for a deviant run: the run's own nodes
  /// plus same-wave runs of unverified (non-gating) ancestors, whose
  /// corruption would only surface at this job's verification points.
  FaultAnalyzer::NodeSet cluster_of(const ScriptSession& s,
                                    std::size_t run_id) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void attribute_commission(ScriptSession& s,
                            const std::vector<std::size_t>& deviant_runs)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  void attribute_omission(ScriptSession& s,
                          const std::vector<std::size_t>& runs)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  std::string wave_scope(const ScriptSession& s, const Wave& w) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Wave `w` ran `job` and that run completed (its output is
  /// materialised, verified or not).
  bool wave_run_done(const Wave& w, std::size_t job) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  bool deps_ready(const ScriptSession& s, const Wave& w,
                  std::size_t job) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  /// Input paths for `job` in wave `w`; when `upstream` is non-null, the
  /// run ids behind every unverified materialised input are appended (the
  /// taint edges for rollback).
  std::vector<std::string> resolve_inputs(
      const ScriptSession& s, const Wave& w, std::size_t job,
      std::vector<std::size_t>* upstream = nullptr) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  // Every mutable member below is thread-confined to the scheduler
  // thread (common/guarded.hpp): handlers fire beneath the event loop on
  // the submitting thread, and nothing in the control tier runs on a
  // worker thread. CLUSTERBFT_GUARDED_BY makes clang enforce that
  // confinement.
#define CBFT_SCHED CLUSTERBFT_GUARDED_BY(common::scheduler_thread_role)
  cluster::EventSim& sim_;
  mapreduce::Dfs& dfs_;
  protocol::ControlPlane cp_;
  protocol::ProgramRegistry& programs_;
  Journal* journal_ = nullptr;
  std::unique_ptr<FaultAnalyzer> fault_analyzer_ CBFT_SCHED;
  AuditLog audit_ CBFT_SCHED;

  std::size_t probe_counter_ CBFT_SCHED = 0;

  // Crash / replay state.
  /// Injected crash fired; every handler no-ops.
  bool crashed_ CBFT_SCHED = false;
  /// Recovery replay in progress: sends muted.
  bool replaying_ CBFT_SCHED = false;
  /// Timestamp of the replayed record.
  cluster::SimTime replay_now_ CBFT_SCHED = 0;

  // Control-tier timers (verifier timeouts, decision-latency rounds).
  std::size_t timer_counter_ CBFT_SCHED = 0;
  /// Armed, not yet fired.
  std::map<std::size_t, TimerSpec> timers_ CBFT_SCHED;

  // Sessions. Retained for the controller's lifetime: the program
  // registry and tracker hold pointers into each session's plan/dag, and
  // a straggling replica of a finished session may still complete.
  std::vector<std::unique_ptr<ScriptSession>> sessions_ CBFT_SCHED;
  /// Run id -> owning session id (routing for inbound events).
  std::map<std::size_t, std::size_t> session_of_run_ CBFT_SCHED;
  /// Executions per request name (admission-order-independent serials).
  std::map<std::string, std::size_t> name_serial_ CBFT_SCHED;

  /// Nodes of hung replicas — substrate knowledge, persists across
  /// scripts (omission is not attributable, only avoidable).
  std::set<cluster::NodeId> omission_suspects_ CBFT_SCHED;

  // Multi-cloud health (ISSUE 10; substrate, only populated when more
  // than one cloud is attached). Derived purely from journaled stimuli
  // (timer firings and inbound frames), so recovery replays it.
  /// Per cloud: verifier timeouts since the cloud last delivered
  /// traffic; two in a row mark the cloud down.
  std::map<std::uint64_t, std::size_t> cloud_timeout_strikes_ CBFT_SCHED;
  /// Clouds currently considered unresponsive — excluded from placement
  /// until any of their traffic arrives again.
  std::set<std::uint64_t> clouds_down_ CBFT_SCHED;

  // Verified-relation stores, shared across sessions and tenants. Two
  // instances of one class, not one map: a cache lookup must never
  // adopt a checkpoint-only entry (core/verified_store.hpp).
  /// Result cache: entries point at a majority replica's output.
  VerifiedStore result_cache_ CBFT_SCHED;
  /// Checkpoint store: entries point at durable `ckpt/<key-hex>` copies.
  VerifiedStore checkpoints_ CBFT_SCHED;
  /// LOAD input content digests, memoized by path while the size is
  /// unchanged.
  std::map<std::string, std::pair<std::uint64_t, crypto::Digest256>>
      input_digest_memo_ CBFT_SCHED;
#undef CBFT_SCHED
};

}  // namespace clusterbft::core
