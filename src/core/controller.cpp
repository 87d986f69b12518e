#include "core/controller.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/wire.hpp"
#include "core/audit.hpp"
#include "core/graph_analyzer.hpp"
#include "crypto/sha256.hpp"
#include "dataflow/optimizer.hpp"
#include "dataflow/parser.hpp"
#include "dataflow/value.hpp"
#include "protocol/codec.hpp"

namespace clusterbft::core {

using cluster::NodeId;
using mapreduce::MRJobSpec;

namespace {
// kProbeOutcome verdict byte.
constexpr std::uint8_t kProbeInconclusive = 0;
constexpr std::uint8_t kProbeCleared = 1;
constexpr std::uint8_t kProbeOmission = 2;
constexpr std::uint8_t kProbeCommission = 3;
}  // namespace

ClusterBft::ClusterBft(cluster::EventSim& sim, mapreduce::Dfs& dfs,
                       protocol::Transport& transport,
                       protocol::ProgramRegistry& programs, Journal* journal)
    : sim_(sim),
      dfs_(dfs),
      // With a journal attached the control plane binds in deferring
      // mode: the transport's bind-time flush (the service's initial
      // NodeAnnounce) must pass through the journal tap installed below,
      // not race past it inside this initializer list. A fresh journal
      // drains at the end of this constructor; a journal holding
      // unfinished sessions keeps deferring until recover()'s replay has
      // rebuilt the state (resync() drains).
      cp_(transport, journal != nullptr),
      programs_(programs),
      journal_(journal) {
  // Binding over a crashed journal is what a recovered incarnation does:
  // acknowledge the predecessor's crash so this instance's own appends
  // (starting with the drain at the end of this constructor) land.
  if (journal_ != nullptr) journal_->clear_crash();
  cp_.inbound_tap = [this](const protocol::Message& m) {
    // Fires beneath the event loop on the scheduler thread.
    const common::RoleGuard held(common::scheduler_thread_role);
    if (crashed_) {
      // Delivered to a dead process (a deferred-queue drain already in
      // flight when the crash fired): back on the wire for the next
      // incarnation.
      cp_.requeue(m);
      return false;
    }
    if (journal_ == nullptr) return true;
    const Journal::Append r =
        journal_->append(RecordKind::kInbound, now(), protocol::encode(m));
    if (r == Journal::Append::kCrashed) {
      // The stimulus dies with the process, atomically un-observed —
      // but the network still holds it: requeue so the recovered
      // incarnation receives (and journals) it. Handlers are idempotent,
      // so it is harmless if the service later re-emits it too.
      crash_now();
      cp_.requeue(m);
      return false;
    }
    return true;
  };
  cp_.on_digest_batch = [this](const protocol::DigestBatch& batch) {
    const common::RoleGuard held(common::scheduler_thread_role);
    for (const mapreduce::DigestReport& r : batch.reports) {
      handle_digest(r, batch.run, batch.node);
    }
  };
  cp_.on_run_complete = [this](std::size_t run_id) {
    const common::RoleGuard held(common::scheduler_thread_role);
    handle_run_complete(run_id);
  };
  // Tap is installed; a fresh journal observes the buffered announce
  // right now (and may crash doing so — the crash point counts every
  // append, including this one).
  if (journal_ != nullptr && !journal_->recovery_pending()) {
    cp_.stop_deferring();
  }
}

bool ClusterBft::journal_decision(std::uint32_t session, RecordKind kind,
                                  std::vector<std::uint8_t> payload) {
  if (journal_ == nullptr) return true;
  const Journal::Append r =
      journal_->append(kind, now(), std::move(payload), session);
  if (r == Journal::Append::kCrashed) {
    crash_now();
    return false;
  }
  return true;
}

void ClusterBft::crash_now() {
  crashed_ = true;
  // Stop observing the world; the transport buffers deliveries until a
  // recovered instance binds its control plane. (Not a thread detach —
  // this unbinds the control-plane message handler.)
  cp_.detach();  // lint:allow(core-async-dispatch)
}

void ClusterBft::throw_if_crashed() const {
  if (crashed_) throw ControllerCrashed(journal_ ? journal_->size() : 0);
}

ScriptResult ClusterBft::execute(const ClientRequest& request) {
  const common::RoleGuard held(common::scheduler_thread_role);
  // A crash point can fire in the constructor (on the very first inbound
  // append): surface it like any other crash so the caller recovers.
  throw_if_crashed();
  ScriptSession* s = begin_script(request);
  // Null only when the crash point fired on the session's kScriptStart
  // append: the script never durably existed.
  throw_if_crashed();
  drive(s);
  return collect_result(*s);
}

std::size_t ClusterBft::begin_session(const ClientRequest& request) {
  const common::RoleGuard held(common::scheduler_thread_role);
  throw_if_crashed();
  ScriptSession* s = begin_script(request);
  throw_if_crashed();
  return s->id;
}

bool ClusterBft::session_finished(std::size_t session) const {
  const common::RoleGuard held(common::scheduler_thread_role);
  CBFT_CHECK_MSG(session >= 1 && session <= sessions_.size(),
                 "session_finished: unknown session id");
  return sessions_[session - 1]->finished;
}

std::size_t ClusterBft::active_sessions() const {
  const common::RoleGuard held(common::scheduler_thread_role);
  std::size_t active = 0;
  for (const auto& s : sessions_) {
    if (!s->finished) ++active;
  }
  return active;
}

std::size_t ClusterBft::healthy_pool_size() const {
  const common::RoleGuard held(common::scheduler_thread_role);
  const std::size_t excluded = cp_.excluded_nodes().size();
  const std::size_t total = cp_.cluster_size();
  return total > excluded ? total - excluded : 0;
}

std::size_t ClusterBft::placement_capacity(
    const ClientRequest& request) const {
  if (cp_.cloud_count() <= 1) return healthy_pool_size();
  const common::RoleGuard held(common::scheduler_thread_role);
  std::size_t capacity = 0;
  for (std::uint64_t c : placement_candidates(request.placement)) {
    capacity += cp_.healthy_in_cloud(c);
  }
  return capacity;
}

std::vector<std::uint64_t> ClusterBft::placement_candidates(
    Placement placement) const {
  std::vector<CloudInfo> infos;
  for (std::uint64_t id : cp_.cloud_ids()) {
    CloudInfo info;
    info.id = id;
    info.price_milli = cp_.cloud_price(id);
    info.healthy_nodes = cp_.healthy_in_cloud(id);
    infos.push_back(info);
  }
  std::vector<std::uint64_t> order =
      placement_order(placement, std::move(infos));
  // A cloud marked down is not a candidate, under ANY policy — a
  // kSingleCloud request whose home cloud is down fails honestly rather
  // than silently migrating.
  order.erase(std::remove_if(order.begin(), order.end(),
                             [this](std::uint64_t c) {
                               return clouds_down_.count(c) != 0;
                             }),
              order.end());
  return order;
}

void ClusterBft::note_cloud_alive(std::size_t run_id) {
  if (cp_.cloud_count() <= 1) return;
  const std::uint64_t cloud = cp_.run_cloud(run_id);
  if (cloud == protocol::ControlPlane::kNoCloud) return;
  cloud_timeout_strikes_.erase(cloud);
  if (clouds_down_.erase(cloud) != 0) {
    audit_.record(now(), AuditEvent::Kind::kCloudReadmitted,
                  "cloud " + std::to_string(cloud) +
                      " delivered traffic again; re-admitted to placement");
  }
}

VerifiedStore::Stats ClusterBft::cache_stats() const {
  const common::RoleGuard held(common::scheduler_thread_role);
  return result_cache_.stats();
}

VerifiedStore::Stats ClusterBft::checkpoint_stats() const {
  const common::RoleGuard held(common::scheduler_thread_role);
  return checkpoints_.stats();
}

void ClusterBft::drive_all() {
  const common::RoleGuard held(common::scheduler_thread_role);
  throw_if_crashed();
  drive(nullptr);
}

void ClusterBft::drive(ScriptSession* only) {
  const auto pending = [this, only] {
    if (only != nullptr) return !only->finished;
    return std::any_of(sessions_.begin(), sessions_.end(),
                       [](const auto& s) { return !s->finished; });
  };
  while (pending() && !crashed_ && sim_.step()) {
  }
  // Queue drained without completing (e.g. everything stuck and no
  // timeout pending): report failure with diagnostics. mark_stalled
  // skips finished sessions and a crashed controller.
  if (only != nullptr) {
    mark_stalled(*only);
  } else {
    for (const auto& s : sessions_) mark_stalled(*s);
  }
  // Let in-flight replicas and stale timeouts drain so their cost is
  // accounted and the simulator is clean for the next script.
  while (!crashed_ && sim_.step()) {
  }
  throw_if_crashed();
}

void ClusterBft::fail_stalled_sessions() {
  const common::RoleGuard held(common::scheduler_thread_role);
  if (crashed_) return;
  for (const auto& s : sessions_) {
    if (!s->finished) mark_stalled(*s);
  }
}

ScriptResult ClusterBft::collect_session(std::size_t session) {
  const common::RoleGuard held(common::scheduler_thread_role);
  throw_if_crashed();
  CBFT_CHECK_MSG(session >= 1 && session <= sessions_.size(),
                 "collect_session: unknown session id");
  ScriptSession& s = *sessions_[session - 1];
  CBFT_CHECK_MSG(s.finished, "collect_session: session still in flight");
  CBFT_CHECK_MSG(!s.collected, "collect_session: already collected");
  return collect_result(s);
}

ScriptSession* ClusterBft::begin_script(const ClientRequest& request) {
  // The serial is consumed up front (like the old global execution
  // counter): a request that fails to parse still used up its slot, so
  // identity never depends on how far admission got.
  const std::size_t serial = ++name_serial_[request.name];
  auto owned = std::make_unique<ScriptSession>();
  ScriptSession& s = *owned;
  s.serial = serial;
  s.scope = request.name + "#" + std::to_string(serial);
  s.request = request;
  s.plan = dataflow::parse_script(request.script);
  if (request.optimize_plan) s.plan = dataflow::optimize(s.plan);

  // Input sizes annotate the plan (Fig. 4) and feed the input ratios.
  std::map<std::string, std::uint64_t> input_sizes;
  for (dataflow::OpId v : s.plan.loads()) {
    dataflow::OpNode& n = s.plan.node(v);
    if (!dfs_.exists(n.path)) {
      throw InputError("script input missing from DFS: " + n.path);
    }
    n.declared_input_bytes = dfs_.size_of(n.path);
    input_sizes[n.path] = n.declared_input_bytes;
  }

  const auto vps = analyze(s.plan, input_sizes, s.request);

  mapreduce::CompileOptions copts;
  copts.default_reducers = request.reducers_per_job;
  copts.sid_prefix = s.scope;
  s.dag = mapreduce::compile(s.plan, vps, copts);
  // "Deploy the job bundle": runs reference the compiled program by
  // handle; only the handle crosses the trust boundary. The registry
  // keeps pointers into the session, which is why sessions are retained
  // for the controller's lifetime.
  s.program_id = programs_.deploy(&s.plan, &s.dag);

  s.verifier = std::make_unique<Verifier>(request.f);
  s.pipeline_depth = pipeline_depths(s.dag);
  s.base_replicas = base_replication(request);
  const std::size_t jobs = s.dag.jobs.size();
  s.verified.assign(jobs, false);
  s.verified_path.assign(jobs, "");
  s.verified_ref_run.assign(jobs, std::nullopt);
  s.first_complete_run.assign(jobs, std::nullopt);
  s.job_timeout_s.assign(jobs, request.verifier_timeout_s);
  s.cache_key.assign(jobs, crypto::Digest256{});
  s.cache_ok.assign(jobs, false);
  s.wave_skip.assign(jobs, false);
  s.contributors.assign(jobs, {});
  s.verified_fp_hex.assign(jobs, "");
  s.ckpt_selected.assign(jobs, false);
  for (const MRJobSpec& j : s.dag.jobs) {
    s.job_by_output[j.output_path] = j.job_index;
  }

  if (request.adaptive_checkpoints) {
    // Cost-model checkpoint placement: only jobs whose digests gate
    // verification can checkpoint (unverifiable relations never become
    // restart boundaries), and the final store is promoted anyway.
    std::vector<bool> gating(jobs, false);
    for (std::size_t j = 0; j < jobs; ++j) {
      gating[j] =
          !s.dag.jobs[j].vps.empty() && !s.dag.jobs[j].is_final_store;
    }
    // Prior = the worst current suspicion in the pool (max-fold): one
    // strongly suspect node makes mid-chain rollback likely everywhere
    // it may be scheduled.
    double prior = 0.0;
    for (std::uint64_t n = 0; n < cp_.cluster_size(); ++n) {
      prior = std::max(prior, cp_.suspicion(n));
    }
    s.ckpt_selected = select_checkpoints(s.dag, input_sizes,
                                         s.pipeline_depth, gating, prior)
                          .selected;
  }

  s.id = sessions_.size() + 1;
  sessions_.push_back(std::move(owned));
  ScriptSession& ss = *sessions_.back();

  // Write-ahead: the session's existence is the first thing that survives
  // a crash (during replay this append is suppressed — the record is the
  // one being replayed).
  if (!journal_decision(static_cast<std::uint32_t>(ss.id),
                        RecordKind::kScriptStart,
                        std::vector<std::uint8_t>(request.name.begin(),
                                                  request.name.end()))) {
    return nullptr;
  }

  ss.start_time = now();
  audit_.record(now(), AuditEvent::Kind::kScriptSubmitted,
                request.name + " (f=" + std::to_string(request.f) +
                    ", r=" + std::to_string(request.r) +
                    ", n=" + std::to_string(request.n) + ", " +
                    std::to_string(ss.dag.jobs.size()) + " jobs)",
                "", {}, ss.scope);

  // Checkpoint keys are the cache keys: the checkpoint store is content-
  // addressed by the same "same sub-plan, same inputs, same policy"
  // digest even when the result cache itself is off.
  if (ss.request.use_result_cache || ss.request.adaptive_checkpoints) {
    compute_cache_keys(ss);
  }
  if (ss.request.use_result_cache) {
    adopt_cache_hits(ss);
    if (crashed_) return &ss;
    // A fully (or sufficiently) adopted script finishes with zero waves.
    check_completion(ss);
  }

  // Initial replication: the base chains (r under static assurance, f+1
  // under adaptive — escalation adds more only on fault evidence).
  for (std::size_t i = 0; !ss.finished && i < ss.base_replicas; ++i) {
    create_wave(ss);
    if (crashed_ || ss.finished) break;
  }
  return &ss;
}

void ClusterBft::mark_stalled(ScriptSession& s) {
  if (s.finished || crashed_) return;
  if (s.failure == FailureReason::kNone) s.failure = FailureReason::kStalled;
  // Diagnose WHY before declaring the failure: name the newest wave and
  // the first job in it that cannot make progress, and what it is
  // waiting on — the difference between "it hung" and a bug report.
  std::string why = "no wave was ever created";
  std::string sid;
  if (!s.waves.empty()) {
    const std::size_t wi = s.waves.size() - 1;
    const Wave& w = s.waves[wi];
    for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
      if (!w.includes[j] || s.verified[j]) continue;
      sid = s.dag.jobs[j].sid;
      const std::string at = "wave " + std::to_string(wi) + ": ";
      if (w.run_of[j] && !cp_.run_complete(*w.run_of[j])) {
        why = at + "run " + std::to_string(*w.run_of[j]) + " of " + sid +
              " never completed";
      } else if (!deps_ready(s, w, j)) {
        std::string dep_sid = "?";
        for (std::size_t d : s.dag.jobs[j].deps) {
          if (!wave_run_done(w, d) && !s.verified[d]) {
            dep_sid = s.dag.jobs[d].sid;
            break;
          }
        }
        why = at + sid + " waiting on unmet dependency " + dep_sid;
      } else if (wave_run_done(w, j)) {
        why = at + sid +
              " completed without f+1 agreement and no timer pending";
      } else {
        why = at + sid + " ready but never dispatched";
      }
      break;
    }
  }
  audit_.record(now(), AuditEvent::Kind::kStalled,
                s.scope + " stalled: " + why, sid, {}, s.scope);
  finish(s, false);
}

ScriptResult ClusterBft::collect_result(ScriptSession& s) {
  ScriptResult result;
  result.metrics = s.metrics;
  result.metrics.waves = s.waves.size();
  for (std::size_t run : s.my_runs) {
    const auto& m = cp_.run_metrics(run);
    result.metrics.cpu_seconds += m.cpu_seconds;
    result.metrics.file_read += m.file_read;
    result.metrics.file_write += m.file_write;
    result.metrics.hdfs_write += m.hdfs_write;
    result.metrics.digested += m.digested;
  }
  result.metrics.runs = s.my_runs.size();
  result.commission_faults_seen = s.commission_seen;
  result.omission_faults_seen = s.omission_seen;

  if (s.success) {
    for (const MRJobSpec& j : s.dag.jobs) {
      if (!j.is_final_store) continue;
      std::string from;
      if (s.verified[j.job_index]) {
        from = s.verified_path[j.job_index];
      } else {
        CBFT_CHECK(s.first_complete_run[j.job_index].has_value());
        from = cp_.run_output_path(*s.first_complete_run[j.job_index]);
      }
      if (!dfs_.exists(from)) {
        // The mirror believed the run complete but its output never
        // materialised (a corrupted frame's hostile path, or a worker
        // that died mid-write): fail honestly rather than promote.
        s.success = false;
        s.failure = FailureReason::kOutputMissing;
        result.outputs.clear();
        break;
      }
      dataflow::Relation rel = dfs_.read(from);
      dfs_.write(j.output_path, rel);
      result.outputs[j.output_path] = std::move(rel);
    }
  }
  result.verified = s.success;
  result.degraded = s.degraded;
  result.failure = s.success ? FailureReason::kNone : s.failure;
  result.metrics.latency_s = s.finish_time - s.start_time;
  for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
    if (s.verified[j] && !s.verified_fp_hex[j].empty()) {
      result.verified_digest_hex[s.dag.jobs[j].sid] = s.verified_fp_hex[j];
    }
  }
  if (fault_analyzer_) {
    for (NodeId n : fault_analyzer_->suspects()) {
      result.suspects.push_back(n);
    }
  }
  // No latency in the audit text: the audit transcript is part of the
  // serial-vs-concurrent bit-identity contract, and queueing shifts
  // latency without changing what was computed.
  audit_.record(s.finish_time, AuditEvent::Kind::kScriptCompleted,
                s.request.name + (s.success ? " verified" : " FAILED") +
                    ", " + std::to_string(result.metrics.runs) +
                    " job replicas",
                "", {}, s.scope);
  // The finish record closes this session's recovery window. A crash
  // between promotion and this append replays back to the finished
  // state and collects again — promotion is idempotent.
  if (!s.finish_journaled) {
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kScriptFinish, {})) {
      throw_if_crashed();  // a failed append is always a crash
    }
    s.finish_journaled = true;
  }
  s.collected = true;
  return result;
}

ScriptResult ClusterBft::recover(const ClientRequest& request) {
  std::vector<ScriptResult> results = recover_all({request});
  CBFT_CHECK(results.size() == 1);
  return std::move(results.front());
}

std::vector<ScriptResult> ClusterBft::recover_all(
    const std::vector<ClientRequest>& requests) {
  const common::RoleGuard held(common::scheduler_thread_role);
  CBFT_CHECK_MSG(journal_ != nullptr, "recover() requires a journal");
  CBFT_CHECK_MSG(!crashed_, "recover() on a crashed controller");
  CBFT_CHECK_MSG(!requests.empty(), "recover_all(): no requests");
  journal_->clear_crash();

  // The journal stores stimuli, not script text: the n-th kScriptStart
  // of each request NAME is matched to the n-th recovered request with
  // that name (names are per-tenant scripts, serials make them unique).
  std::map<std::string, std::vector<const ClientRequest*>> pending;
  for (const ClientRequest& r : requests) pending[r.name].push_back(&r);
  std::map<std::string, std::vector<std::size_t>> replayed_ids;

  // ---- replay: rebuild state, sends muted, appends suppressed ----
  journal_->begin_replay();
  replaying_ = true;
  cp_.mute(true);
  while (const JournalRecord* rec = journal_->peek()) {
    replay_now_ = rec->time;
    replay_record(*rec, pending, replayed_ids);
    journal_->advance();
  }
  journal_->end_replay();
  replaying_ = false;
  cp_.mute(false);

  if (sessions_.empty()) {
    // The crash predates the first durable record: nothing was ever
    // dispatched (every dispatch is journaled after kScriptStart), so
    // replay only rebuilt the membership mirror. Deliver whatever the
    // wire still holds and start from scratch — bit-identical to a run
    // that never crashed.
    cp_.stop_deferring();
  } else {
    // ---- resync the computation tier ----
    resync();
  }
  throw_if_crashed();

  // Begin every request the crashed life never durably started, in
  // request order, and map each request to its session (0: rejected).
  std::vector<std::size_t> session_for(requests.size(), 0);
  std::map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& name = requests[i].name;
    const std::size_t nth = seen[name]++;
    const auto it = replayed_ids.find(name);
    if (it != replayed_ids.end() && nth < it->second.size()) {
      session_for[i] = it->second[nth];
      continue;
    }
    ScriptSession* s = nullptr;
    try {
      s = begin_script(requests[i]);
    } catch (const InputError&) {
      continue;
    } catch (const dataflow::ParseError&) {
      continue;
    }
    throw_if_crashed();
    session_for[i] = s->id;
  }

  drive(nullptr);
  // Sessions that finished before the crash are collected here too; their
  // replayed kScriptFinish keeps collect_result from appending another.
  std::vector<ScriptResult> out(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (session_for[i] == 0) {
      out[i].failure = FailureReason::kRejected;
    } else {
      out[i] = collect_result(*sessions_[session_for[i] - 1]);
    }
  }
  return out;
}

void ClusterBft::replay_record(
    const JournalRecord& rec,
    std::map<std::string, std::vector<const ClientRequest*>>& pending,
    std::map<std::string, std::vector<std::size_t>>& replayed_ids) {
  common::WireReader rd(rec.payload.data(), rec.payload.size());
  switch (rec.kind) {
    case RecordKind::kScriptStart: {
      const std::string name(rec.payload.begin(), rec.payload.end());
      const auto it = pending.find(name);
      const std::size_t nth = replayed_ids[name].size();
      CBFT_CHECK_MSG(it != pending.end() && nth < it->second.size(),
                     "recover(): journal holds script '" + name +
                         "' with no matching recovered request");
      ScriptSession* s = begin_script(*it->second[nth]);
      CBFT_CHECK_MSG(s != nullptr, "recover(): replayed admission crashed");
      CBFT_CHECK_MSG(s->id == rec.session,
                     "recover(): replayed session id mismatch for '" + name +
                         "'");
      replayed_ids[name].push_back(s->id);
      break;
    }
    case RecordKind::kInbound: {
      const auto m = protocol::decode(rec.payload);
      CBFT_CHECK_MSG(m.has_value(), "journal: undecodable inbound frame");
      cp_.inject(*m);
      break;
    }
    case RecordKind::kTimerFired:
      fire_timer(static_cast<std::size_t>(rd.u64()));
      break;
    case RecordKind::kThresholdApplied:
      apply_threshold_internal(rd.f64());
      break;
    case RecordKind::kProbeStarted: {
      const auto m = protocol::decode(rec.payload);
      CBFT_CHECK_MSG(
          m.has_value() &&
              std::holds_alternative<protocol::ProbeRequest>(*m),
          "journal: bad probe frame");
      ++probe_counter_;
      // Keeps the mirror's run-id counter aligned; muted, nothing sent.
      cp_.submit_probe(std::get<protocol::ProbeRequest>(*m));  // lint:allow(journal-before-send)
      break;
    }
    case RecordKind::kProbeOutcome: {
      const std::uint64_t suspect = rd.u64();
      const std::uint8_t verdict = rd.u8();
      apply_probe_outcome(suspect, verdict);
      break;
    }
    case RecordKind::kScriptFinish: {
      // This session finished before the crash; its collect must not
      // append a second finish record.
      CBFT_CHECK_MSG(rec.session >= 1 && rec.session <= sessions_.size(),
                     "journal: finish record for unknown session");
      sessions_[rec.session - 1]->finish_journaled = true;
      break;
    }
    case RecordKind::kWaveCreated:
    case RecordKind::kRunDispatched:
    case RecordKind::kVerifyDecision:
    case RecordKind::kCacheHit:
    case RecordKind::kRollback:
    case RecordKind::kSuspicionUpdate:
    case RecordKind::kDegraded:
    case RecordKind::kPoolExhausted:
    case RecordKind::kCheckpoint:
    case RecordKind::kEscalation:
    case RecordKind::kCloudFailover:
      // Decision records: re-derived by the replayed handlers above
      // (their appends are suppressed in replay mode). kRunDispatched
      // frames are re-captured into the session's dispatch_frames by the
      // replayed submit_job, kCacheHit adoptions by the replayed
      // begin_script — bit-identical because the handlers are
      // deterministic.
      break;
  }
}

void ClusterBft::resync() {
  // Live again: everything that piled up while the dead instance was
  // detached flows through the journal tap now, before we re-send — a
  // completion that already arrived saves a redundant re-dispatch.
  cp_.stop_deferring();
  if (crashed_) return;

  // Re-assert membership decisions; both sides are idempotent.
  for (std::uint64_t n : cp_.excluded_nodes()) {
    cp_.resend(protocol::Message{protocol::DrainNode{n}});
    if (crashed_) return;
  }
  for (const auto& sp : sessions_) {
    for (NodeId n : sp->degraded_nodes) {
      cp_.resend(protocol::Message{protocol::ReadmitNode{n}});
      if (crashed_) return;
    }
  }

  // Re-send the journaled bytes of every dispatch whose completion was
  // never journaled: the service dedupes by run id and re-emits its
  // retained events (recovering anything swallowed by the crash), and it
  // executes dispatches it never saw. Rolled-back runs get their cancel
  // re-asserted instead. Iterating the run->session index walks every
  // session's runs in global dispatch (run-id) order.
  for (const auto& [run, sid] : session_of_run_) {
    ScriptSession& s = *sessions_[sid - 1];
    if (s.rolled_back_runs.count(run) != 0) {
      cp_.resend(protocol::Message{protocol::CancelRun{run}});
    } else if (!cp_.run_complete(run)) {
      const auto it = s.dispatch_frames.find(run);
      CBFT_CHECK_MSG(it != s.dispatch_frames.end(),
                     "recovery: no journaled frame for run " +
                         std::to_string(run));
      const auto m = protocol::decode(it->second);
      CBFT_CHECK_MSG(m.has_value(),
                     "recovery: journaled dispatch frame undecodable");
      cp_.resend(*m);
    }
    if (crashed_) return;
  }

  // Re-arm the timers that had not fired by the crash point. The old
  // life's scheduled firings target the crashed instance and no-op.
  for (const auto& entry : timers_) {
    const std::size_t id = entry.first;
    const cluster::SimTime at = std::max(entry.second.deadline, sim_.now());
    sim_.schedule_at(at, [this, id] {
      const common::RoleGuard held(common::scheduler_thread_role);
      fire_timer(id);
    });
  }

  // A dispatch the crash swallowed (journal append died inside pump())
  // has no stimulus left to trigger it; re-derive it now, session by
  // session in admission order.
  for (const auto& sp : sessions_) {
    if (crashed_) return;
    if (!sp->finished) pump(*sp);
  }
}

std::vector<NodeId> ClusterBft::apply_suspicion_threshold(double threshold) {
  const common::RoleGuard held(common::scheduler_thread_role);
  if (crashed_) return {};
  common::WireWriter w;
  w.f64(threshold);
  if (!journal_decision(0, RecordKind::kThresholdApplied, w.take())) {
    return {};
  }
  return apply_threshold_internal(threshold);
}

std::vector<NodeId> ClusterBft::apply_threshold_internal(double threshold) {
  // Journaled write-ahead as kThresholdApplied by the live caller, and
  // replayed as a stimulus record; the drains below re-derive from it.
  const auto drained = cp_.apply_suspicion_threshold(threshold);  // lint:allow(journal-before-send)
  const std::vector<NodeId> evicted(drained.begin(), drained.end());
  for (NodeId n : evicted) {
    audit_.record(now(), AuditEvent::Kind::kNodeEvicted,
                  "node " + std::to_string(n) + " excluded (suspicion > " +
                      std::to_string(threshold) + ")",
                  "", {n});
  }
  return evicted;
}

ClusterBft::ProbeReport ClusterBft::probe_suspects(
    const std::string& probe_input_path) {
  const common::RoleGuard held(common::scheduler_thread_role);
  ProbeReport report;
  if (crashed_ || !fault_analyzer_) return report;
  CBFT_CHECK_MSG(dfs_.exists(probe_input_path),
                 "probe input missing from DFS: " + probe_input_path);

  const FaultAnalyzer::NodeSet suspects = fault_analyzer_->suspects();
  for (NodeId suspect : suspects) {
    if (crashed_) return report;
    // Nodes already evicted from the inclusion list cannot run probes.
    if (cp_.node_excluded(suspect)) continue;
    ++probe_counter_;
    // The computation tier builds the pass-through probe job itself; the
    // request only names the input, the two output paths, the pinned
    // suspect, and the nodes the honest control replica must avoid.
    protocol::ProbeRequest msg;
    msg.probe = probe_counter_;
    msg.input_path = probe_input_path;
    msg.suspect_path = "probe/" + std::to_string(probe_counter_) + "/suspect";
    msg.control_path = "probe/" + std::to_string(probe_counter_) + "/control";
    msg.suspect = suspect;
    msg.avoid.assign(suspects.begin(), suspects.end());
    if (!journal_decision(0, RecordKind::kProbeStarted,
                          protocol::encode(protocol::Message{msg}))) {
      return report;
    }
    const auto [run_suspect, run_control] = cp_.submit_probe(std::move(msg));

    sim_.run();  // probes are the only outstanding work
    if (crashed_) return report;
    ++report.probes_run;

    std::uint8_t verdict = kProbeInconclusive;
    if (!cp_.run_complete(run_control)) {
      // The control could not be placed or finished — inconclusive.
      verdict = kProbeInconclusive;
    } else if (!cp_.run_complete(run_suspect)) {
      // The suspect swallowed the probe: omission, attributable exactly.
      verdict = kProbeOmission;
    } else {
      const auto& got = dfs_.read(cp_.run_output_path(run_suspect));
      const auto& want = dfs_.read(cp_.run_output_path(run_control));
      verdict = got.sorted_rows() == want.sorted_rows() ? kProbeCleared
                                                        : kProbeCommission;
    }
    common::WireWriter w;
    w.u64(suspect);
    w.u8(verdict);
    if (!journal_decision(0, RecordKind::kProbeOutcome, w.take())) {
      return report;
    }
    apply_probe_outcome(suspect, verdict);
    switch (verdict) {
      case kProbeOmission:
        report.confirmed_omission.insert(suspect);
        break;
      case kProbeCleared:
        report.cleared.insert(suspect);
        break;
      case kProbeCommission:
        report.confirmed_commission.insert(suspect);
        break;
      default:
        break;
    }
  }
  return report;
}

void ClusterBft::apply_probe_outcome(std::uint64_t suspect,
                                     std::uint8_t verdict) {
  if (verdict != kProbeOmission && verdict != kProbeCommission) return;
  // Journaled write-ahead as kProbeOutcome (live probe loop / replay).
  cp_.record_fault(suspect);  // lint:allow(journal-before-send)
  if (verdict == kProbeCommission) {
    audit_.record(now(), AuditEvent::Kind::kProbeConviction,
                  "probe convicted node " + std::to_string(suspect) +
                      " of commission",
                  "", {static_cast<NodeId>(suspect)});
    // The probe cluster is exactly {suspect}: the analyzer's set
    // containing it collapses to a singleton.
    if (fault_analyzer_) {
      fault_analyzer_->observe({static_cast<NodeId>(suspect)});
    }
    // Deterministic under replay: kProbeOutcome is a journaled stimulus.
    invalidate_convicted(static_cast<NodeId>(suspect));
  }
}

std::string ClusterBft::wave_scope(const ScriptSession& s,
                                   const Wave& w) const {
  return s.scope + "/w" + std::to_string(w.replica) + "/";
}

bool ClusterBft::ensure_capacity(ScriptSession& s) {
  const std::size_t need = s.base_replicas;
  // Fail honestly instead of spinning forever on an unplaceable wave.
  const auto exhausted = [&](const std::string& why) {
    if (journal_decision(static_cast<std::uint32_t>(s.id),
                         RecordKind::kPoolExhausted, {})) {
      audit_.record(now(), AuditEvent::Kind::kPoolExhausted,
                    s.request.name + ": " + why + "; failing honestly", "",
                    {}, s.scope);
      s.failure = FailureReason::kPoolExhausted;
      finish(s, false);
    }
    return false;
  };
  if (cp_.cloud_count() > 1 &&
      placement_candidates(s.request.placement).empty()) {
    // Every cloud the placement policy may use is down (or fully
    // excluded): no wave is placeable anywhere. Node-level degradation
    // cannot help — the clouds are unreachable, not suspect.
    return exhausted("no cloud available under " +
                     std::string(to_string(s.request.placement)) +
                     " placement");
  }
  std::vector<std::uint64_t> excluded = cp_.excluded_nodes();
  // Nodes already re-admitted this script but whose NodeReadmitted echo
  // has not arrived count as healthy — they were handed back already.
  std::size_t pending_readmits = 0;
  for (std::uint64_t n : excluded) {
    if (s.degraded_nodes.count(static_cast<NodeId>(n)) != 0) {
      ++pending_readmits;
    }
  }
  const std::size_t healthy =
      cp_.cluster_size() - excluded.size() + pending_readmits;
  if (healthy >= need) return true;

  if (s.request.degraded_mode == DegradedMode::kFail ||
      cp_.cluster_size() < need) {
    // Nothing to degrade onto, or the client refused degradation.
    return exhausted("healthy pool (" + std::to_string(healthy) +
                     " nodes) below replication factor " +
                     std::to_string(need));
  }

  // Graceful degradation: re-admit the least-suspect excluded nodes
  // (stable node-id order breaks suspicion ties deterministically).
  std::stable_sort(excluded.begin(), excluded.end(),
                   [this](std::uint64_t a, std::uint64_t b) {
                     return cp_.suspicion(a) < cp_.suspicion(b);
                   });
  std::vector<std::uint64_t> readmit;
  std::size_t have = healthy;
  for (std::uint64_t n : excluded) {
    if (have >= need) break;
    if (s.degraded_nodes.count(static_cast<NodeId>(n)) != 0) continue;
    readmit.push_back(n);
    ++have;
  }
  common::WireWriter w;
  w.u64(readmit.size());
  for (std::uint64_t n : readmit) w.u64(n);
  if (!journal_decision(static_cast<std::uint32_t>(s.id),
                        RecordKind::kDegraded, w.take())) {
    return false;
  }
  s.degraded = true;
  std::set<NodeId> nodes;
  for (std::uint64_t n : readmit) {
    s.degraded_nodes.insert(static_cast<NodeId>(n));
    nodes.insert(static_cast<NodeId>(n));
    cp_.readmit_node(n);
  }
  audit_.record(now(), AuditEvent::Kind::kDegraded,
                s.request.name + ": re-admitted " +
                    std::to_string(readmit.size()) +
                    " least-suspect node(s); every output must verify",
                "", nodes, s.scope);
  return true;
}

void ClusterBft::create_wave(ScriptSession& s,
                             std::optional<std::size_t> scope_job,
                             std::optional<std::size_t> disputed_job) {
  if (s.finished || crashed_) return;
  if (!ensure_capacity(s)) return;
  // Scoped restart waves only exist under adaptive checkpointing: without
  // durable verified boundaries a narrow wave could strand a job no wave
  // covers.
  if (!s.request.adaptive_checkpoints) scope_job = std::nullopt;

  // Multi-cloud placement (ISSUE 10). With at most one cloud attached
  // everything below resolves to cloud 0 and no failover — bit-identical
  // to the single-cloud controller.
  std::uint64_t cloud = 0;
  bool failover = false;
  std::uint64_t failover_from = 0;
  if (cp_.cloud_count() > 1) {
    const std::vector<std::uint64_t> order =
        placement_candidates(s.request.placement);
    CBFT_CHECK_MSG(!order.empty(), "create_wave past empty placement set");
    if (s.waves.size() < s.base_replicas) {
      // Initial replica chains: spread round-robins chain i into
      // order[i % n]; the other policies fill the preferred cloud.
      cloud = s.request.placement == Placement::kSpread
                  ? order[s.waves.size() % order.size()]
                  : order.front();
    } else {
      // Rerun/escalation wave: the disputed closure moves away from the
      // clouds whose replicas of the disputed job produced the failed
      // evidence (digest mismatch, timeout, or an unresponsive cloud).
      std::set<std::uint64_t> disputed;
      bool have_prev = false;
      std::uint64_t prev = 0;
      for (const Wave& pw : s.waves) {
        if (disputed_job && !pw.includes[*disputed_job]) continue;
        disputed.insert(pw.cloud);
        prev = pw.cloud;  // last covering wave = the one being replaced
        have_prev = true;
      }
      cloud = order.front();
      for (std::uint64_t c : order) {
        if (disputed.count(c) == 0) {
          cloud = c;
          break;
        }
      }
      if (have_prev && cloud != prev) {
        failover = true;
        failover_from = prev;
      }
    }
  }
  if (failover) {
    // Journaled write-ahead like every decision: replay re-derives the
    // same choice from the journaled stimuli, so recovery replays
    // failover decisions bit-identically.
    common::WireWriter fw;
    fw.u64(disputed_job ? static_cast<std::uint64_t>(*disputed_job)
                        : ~std::uint64_t{0});
    fw.u64(failover_from);
    fw.u64(cloud);
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kCloudFailover, fw.take())) {
      return;
    }
    ++s.metrics.cloud_failovers;
    const std::string what =
        disputed_job ? s.dag.jobs[*disputed_job].sid : s.request.name;
    audit_.record(now(), AuditEvent::Kind::kCloudFailover,
                  what + " re-executing in cloud " + std::to_string(cloud) +
                      " (was cloud " + std::to_string(failover_from) + ")",
                  disputed_job ? s.dag.jobs[*disputed_job].sid : "", {},
                  s.scope);
  }

  common::WireWriter wr;
  wr.u64(s.waves.size());
  wr.u64(scope_job ? static_cast<std::uint64_t>(*scope_job)
                   : ~std::uint64_t{0});
  wr.u64(cloud);
  if (!journal_decision(static_cast<std::uint32_t>(s.id),
                        RecordKind::kWaveCreated, wr.take())) {
    return;
  }
  Wave w;
  w.replica = s.waves.size();
  w.cloud = cloud;
  w.failover = failover;
  w.includes.resize(s.dag.jobs.size());
  if (scope_job) {
    // Restart from checkpoints: re-execute only the scope job's
    // unverified-ancestor closure. Verified (checkpointed or adopted)
    // relations are ground truth and resolve as inputs; unrelated
    // branches of the DAG are never re-run.
    std::vector<std::size_t> stack{*scope_job};
    std::set<std::size_t> seen{*scope_job};
    while (!stack.empty()) {
      const std::size_t j = stack.back();
      stack.pop_back();
      if (s.verified[j] || s.wave_skip[j]) continue;
      w.includes[j] = true;
      for (std::size_t d : s.dag.jobs[j].deps) {
        if (seen.insert(d).second) stack.push_back(d);
      }
    }
  } else {
    for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
      w.includes[j] = !s.verified[j] && !s.wave_skip[j];
    }
  }
  w.run_of.assign(s.dag.jobs.size(), std::nullopt);
  s.waves.push_back(std::move(w));
  CBFT_DEBUG("wave " << s.waves.size() - 1 << " of " << s.scope
                     << " created at " << now());
  pump(s);
}

bool ClusterBft::wave_run_done(const Wave& w, std::size_t job) const {
  return w.includes[job] && w.run_of[job] &&
         cp_.run_complete(*w.run_of[job]);
}

bool ClusterBft::deps_ready(const ScriptSession& s, const Wave& w,
                            std::size_t job) const {
  for (std::size_t d : s.dag.jobs[job].deps) {
    if (s.request.synchronous_verification) {
      // Naive BFT: wait for the verified upstream output (synchronisation
      // at every stage — the overhead C2 describes).
      if (!s.verified[d]) return false;
      continue;
    }
    if (wave_run_done(w, d) || s.verified[d]) continue;
    return false;
  }
  return true;
}

std::vector<std::string> ClusterBft::resolve_inputs(
    const ScriptSession& s, const Wave& w, std::size_t job,
    std::vector<std::size_t>* upstream) const {
  const MRJobSpec& spec = s.dag.jobs[job];
  std::vector<std::string> paths;
  for (const mapreduce::MapBranch& b : spec.branches) {
    if (s.plan.node(b.source_vertex).kind == dataflow::OpKind::kLoad) {
      paths.push_back(b.input_path);  // original, trusted input
      continue;
    }
    auto it = s.job_by_output.find(b.input_path);
    CBFT_CHECK_MSG(it != s.job_by_output.end(),
                   "unresolvable intermediate input: " + b.input_path);
    const std::size_t dep = it->second;
    if (s.request.synchronous_verification) {
      CBFT_CHECK_MSG(s.verified[dep], "sync mode: dependency not verified");
      paths.push_back(s.verified_path[dep]);
      continue;
    }
    if (wave_run_done(w, dep)) {
      paths.push_back(cp_.run_output_path(*w.run_of[dep]));
      // An unverified materialised input is a taint edge: if that run
      // later turns out deviant, this job's run is tainted too. A
      // verified input is ground truth and records no edge.
      if (upstream != nullptr) upstream->push_back(*w.run_of[dep]);
    } else {
      CBFT_CHECK_MSG(s.verified[dep],
                     "dependency neither done nor verified");
      paths.push_back(s.verified_path[dep]);
    }
  }
  return paths;
}

void ClusterBft::pump(ScriptSession& s) {
  if (s.finished || crashed_) return;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t wi = 0; wi < s.waves.size(); ++wi) {
      const Wave& w = s.waves[wi];
      // The pipeline budget counts runs submitted but not yet complete.
      std::size_t in_flight = 0;
      if (s.request.pipeline_width > 0) {
        for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
          if (w.run_of[j] && !cp_.run_complete(*w.run_of[j])) ++in_flight;
        }
      }
      // Every job whose inputs are materialised, deepest remaining chain
      // first: a bounded width is spent on the critical path, and with
      // unbounded width the order is still fixed — dispatch order (and
      // with it run-id assignment) never depends on timing.
      std::vector<std::size_t> ready;
      for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
        if (!w.includes[j] || w.run_of[j] || s.verified[j]) continue;
        if (!deps_ready(s, w, j)) continue;
        ready.push_back(j);
      }
      const std::vector<std::size_t>& depth = s.pipeline_depth;
      std::stable_sort(ready.begin(), ready.end(),
                       [&depth](std::size_t a, std::size_t b) {
                         return depth[a] > depth[b];
                       });
      for (const std::size_t j : ready) {
        if (s.request.pipeline_width > 0 &&
            in_flight >= s.request.pipeline_width) {
          break;
        }
        submit_job(s, wi, j);
        if (crashed_) return;
        ++in_flight;
        progress = true;
      }
    }
  }
}

void ClusterBft::submit_job(ScriptSession& s, std::size_t wave_index,
                            std::size_t job) {
  Wave& w = s.waves[wave_index];
  const std::size_t j = job;
  const MRJobSpec& spec = s.dag.jobs[j];
  // Rerun waves steer away from the current suspects (§3.3 smart
  // deployment): a node that corrupted one wave should not get the
  // chance to corrupt its replacement.
  std::set<NodeId> avoid;
  if (w.replica >= s.base_replicas) {
    if (fault_analyzer_) avoid = fault_analyzer_->suspects();
    // Nodes involved in timed-out (non-responding) replicas never
    // reach the commission-fault analyzer; steer around them too.
    avoid.insert(omission_suspects_.begin(), omission_suspects_.end());
  }
  // Degradation handed these nodes back to the scheduler on purpose;
  // avoiding them would re-create the exhaustion.
  for (NodeId n : s.degraded_nodes) avoid.erase(n);
  // Bound each replica's footprint so the base replicas plus a rerun
  // replica always fit on pairwise-disjoint node sets. Multi-cloud: the
  // footprint bound is per cloud — replicas placed in different clouds
  // are disjoint by construction, so only same-cloud replicas share a
  // pool.
  const std::size_t groups = s.base_replicas + 1;
  const std::size_t pool = cp_.cloud_count() > 1
                               ? cp_.cloud_size(w.cloud)
                               : cp_.cluster_size();
  const std::size_t max_nodes = std::max<std::size_t>(1, pool / groups);
  RunInfo info{wave_index, j, {}};
  protocol::SubmitRun msg;
  const std::size_t run = cp_.next_run_id();
  msg.run = run;
  msg.session = s.id;
  msg.program = s.program_id;
  msg.job_index = j;
  msg.replica = w.replica;
  for (std::string& p : resolve_inputs(s, w, j, &info.upstream_runs)) {
    msg.input_paths.emplace_back(std::move(p));
  }
  // Per-run output path (write-once discipline, like a per-attempt output
  // committer): a rolled-back run whose CancelRun frame the network lost
  // keeps executing in the computation tier and eventually writes its
  // output. If its replacement in the same wave slot shared the path, that
  // late write would silently replace bytes whose digests were already
  // agreed — a verified-but-wrong promotion. With the run id in the path,
  // a stale run can only ever write to its own dead location; correctness
  // never depends on cancellation actually being delivered.
  msg.output_path =
      wave_scope(s, w) + "r" + std::to_string(run) + "/" + spec.output_path;
  msg.avoid.assign(avoid.begin(), avoid.end());
  msg.max_nodes = max_nodes;
  msg.cloud = w.cloud;
  // Restart/escalation runs jump the tracker's pending queue: the whole
  // session is blocked on them, while first-wave work is bulk throughput.
  // Only the adaptive knobs set the flag so baseline scheduling is
  // bit-identical with them off.
  if (w.replica >= s.base_replicas &&
      (s.request.adaptive_checkpoints ||
       s.request.assurance == Assurance::kAdaptive)) {
    msg.urgent = 1;
  }
  // Failed-over runs always dispatch urgent: the destination cloud's
  // queue holds its own bulk work, and the service's wrong-cloud guard
  // plus run-id dedupe make the urgent resubmission safe even if the
  // original cloud comes back and its stale copy still executes.
  if (w.failover) msg.urgent = 1;
  // Write-ahead: the exact dispatch bytes (run id pre-assigned) go to the
  // journal first; resync() re-sends them for runs whose completion was
  // never journaled.
  std::vector<std::uint8_t> frame =
      protocol::encode(protocol::Message{msg});
  if (!journal_decision(static_cast<std::uint32_t>(s.id),
                        RecordKind::kRunDispatched, frame)) {
    return;
  }
  s.dispatch_frames[run] = std::move(frame);
  const std::size_t assigned = cp_.submit_run(std::move(msg));
  CBFT_CHECK(assigned == run);
  w.run_of[j] = run;
  s.run_info[run] = std::move(info);
  s.my_runs.push_back(run);
  session_of_run_[run] = s.id;
  const bool gating = !spec.vps.empty();
  s.verifier->expect_run(spec.sid, run, gating);
  if (gating) {
    TimerSpec spec_t;
    spec_t.kind = TimerSpec::Kind::kJobTimeout;
    spec_t.session = s.id;
    spec_t.job = j;
    spec_t.wave = wave_index;
    spec_t.run = run;
    arm_timer(spec_t, s.job_timeout_s[j]);
  }
}

std::size_t ClusterBft::arm_timer(TimerSpec spec, double delay) {
  const std::size_t id = ++timer_counter_;
  spec.deadline = now() + delay;
  timers_[id] = spec;
  // During recovery replay the sim is not touched: resync() re-arms
  // whatever is still pending once replay finished.
  if (!replaying_) {
    sim_.schedule_after(delay, [this, id] {
      const common::RoleGuard held(common::scheduler_thread_role);
      fire_timer(id);
    });
  }
  return id;
}

void ClusterBft::fire_timer(std::size_t id) {
  if (crashed_) return;
  const auto it = timers_.find(id);
  // Stale: already fired, or armed by a previous life whose scheduled
  // event outlived it.
  if (it == timers_.end()) return;
  const TimerSpec spec = it->second;
  common::WireWriter w;
  w.u64(id);
  if (!journal_decision(static_cast<std::uint32_t>(spec.session),
                        RecordKind::kTimerFired, w.take())) {
    return;
  }
  timers_.erase(id);
  CBFT_CHECK_MSG(spec.session >= 1 && spec.session <= sessions_.size(),
                 "timer without an owning session");
  ScriptSession& s = *sessions_[spec.session - 1];
  switch (spec.kind) {
    case TimerSpec::Kind::kJobTimeout:
      handle_timeout(s, spec.job, spec.wave, spec.run);
      break;
    case TimerSpec::Kind::kDecision:
      s.decision_paid.insert(spec.job);
      if (s.finished || s.verified[spec.job]) return;
      try_verify(s, spec.job);
      pump(s);
      check_completion(s);
      break;
  }
}

void ClusterBft::handle_digest(const mapreduce::DigestReport& report,
                               std::size_t run_id, NodeId /*node*/) {
  if (crashed_) return;
  note_cloud_alive(run_id);
  ScriptSession* sp = session_of_run(run_id);
  if (sp == nullptr) return;  // probe run or unknown straggler
  ScriptSession& s = *sp;
  const auto it = s.run_info.find(run_id);
  if (it == s.run_info.end()) return;
  if (s.rolled_back_runs.count(run_id)) return;  // forgotten by the verifier
  ++s.metrics.digest_reports;
  const MRJobSpec& spec = s.dag.jobs[it->second.job];
  s.verifier->add_report(spec.sid, run_id, report);
}

void ClusterBft::handle_run_complete(std::size_t run_id) {
  if (crashed_) return;
  note_cloud_alive(run_id);
  ScriptSession* sp = session_of_run(run_id);
  if (sp == nullptr) return;
  ScriptSession& s = *sp;
  const auto it = s.run_info.find(run_id);
  if (it == s.run_info.end()) return;
  if (s.rolled_back_runs.count(run_id)) return;
  const std::size_t j = it->second.job;
  const MRJobSpec& spec = s.dag.jobs[j];
  s.verifier->mark_run_complete(spec.sid, run_id);
  if (!s.first_complete_run[j]) s.first_complete_run[j] = run_id;
  if (s.finished) return;
  if (s.verified[j]) {
    // A replica completing after its job already verified: the decision
    // did not cover it, so compare against the verified reference now. A
    // mismatch is a commission fault discovered late — attribute it and
    // roll back whatever downstream work consumed this run's output.
    if (s.verified_ref_run[j] && s.verifier->is_gating(spec.sid) &&
        !s.verifier->run_agrees(spec.sid, *s.verified_ref_run[j], run_id)) {
      attribute_commission(s, {run_id});
      rollback_tainted(s, {run_id});
      pump(s);
      check_completion(s);
    }
    return;
  }
  try_verify(s, j);
  pump(s);
  check_completion(s);
}

ScriptSession* ClusterBft::session_of_run(std::size_t run_id) {
  const auto it = session_of_run_.find(run_id);
  if (it == session_of_run_.end()) return nullptr;
  return sessions_[it->second - 1].get();
}

void ClusterBft::try_verify(ScriptSession& s, std::size_t j) {
  if (crashed_ || s.verified[j]) return;
  const MRJobSpec& spec = s.dag.jobs[j];
  if (!s.verifier->is_gating(spec.sid)) return;

  const auto decision = s.verifier->try_decide(spec.sid);
  if (decision && decision->verified) {
    if (s.request.decision_latency_s > 0 && !s.decision_paid.count(j)) {
      // The decision itself costs a control-tier agreement round; commit
      // its effects after that latency (scheduled once per job).
      if (s.decision_pending.insert(j).second) {
        TimerSpec spec_t;
        spec_t.kind = TimerSpec::Kind::kDecision;
        spec_t.session = s.id;
        spec_t.job = j;
        arm_timer(spec_t, s.request.decision_latency_s);
      }
      return;
    }
    common::WireWriter wr;
    wr.u64(j);
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kVerifyDecision, wr.take())) {
      return;
    }
    s.verified[j] = true;
    s.verified_path[j] = cp_.run_output_path(decision->majority_runs.front());
    s.verified_ref_run[j] = decision->majority_runs.front();
    s.verified_fp_hex[j] = decision->fingerprint.hex();
    audit_.record(now(), AuditEvent::Kind::kJobVerified,
                  spec.sid + " (" +
                      std::to_string(decision->majority_runs.size()) +
                      " agreeing replicas)",
                  spec.sid, {}, s.scope);
    compute_contributors(s, j, decision->majority_runs);
    maybe_checkpoint(s, j, decision->fingerprint);
    if (crashed_) return;
    cache_store_verified(s, j, decision->fingerprint);
    attribute_commission(s, decision->deviant_runs);
    // Downstream jobs of a deviant chain may already be running on (or
    // have finished with) the corrupted output — the price of pipelining.
    // Cancel exactly those, leaving every untainted chain untouched.
    rollback_tainted(s, decision->deviant_runs);
    CBFT_DEBUG("job " << spec.sid << " verified with "
                      << decision->majority_runs.size() << " replicas");
    return;
  }
  // No verdict yet. If every expected replica has reported and they still
  // disagree, more replicas are needed (§4.2 step 6). Deviants are NOT
  // attributed yet: without an f+1 majority there is no ground truth, and
  // blaming the arbitrary loser of a 1-vs-1 tie would poison suspicion of
  // honest nodes. Attribution happens when the pooled majority decides.
  if (s.verifier->completed_runs(spec.sid) >=
      s.verifier->expected_runs(spec.sid)) {
    need_wave(s, j, /*force=*/false);
  }
}

void ClusterBft::handle_timeout(ScriptSession& s, std::size_t j,
                                std::size_t wave_index, std::size_t run_id) {
  if (s.finished || crashed_ || s.verified[j]) return;
  // Stale if the run this timeout was armed for is no longer the wave's
  // run for j (rolled back and re-dispatched: the fresh submission armed
  // a fresh timeout), or if a newer wave already covers the job.
  if (!s.waves[wave_index].run_of[j] ||
      *s.waves[wave_index].run_of[j] != run_id) {
    return;
  }
  for (std::size_t wi = wave_index + 1; wi < s.waves.size(); ++wi) {
    if (s.waves[wi].includes[j]) return;
  }
  // Cloud-down detection (ISSUE 10): a verifier timeout is one strike
  // against the wave's cloud; two strikes with no intervening traffic
  // from it mark the cloud unresponsive and exclude it from placement
  // until it speaks again (note_cloud_alive). Single-cloud runs never
  // strike, so their audit trail is unchanged.
  if (cp_.cloud_count() > 1) {
    const std::uint64_t wc = s.waves[wave_index].cloud;
    if (clouds_down_.count(wc) == 0 && ++cloud_timeout_strikes_[wc] >= 2) {
      clouds_down_.insert(wc);
      audit_.record(now(), AuditEvent::Kind::kCloudDown,
                    "cloud " + std::to_string(wc) +
                        " unresponsive (repeated verifier timeouts); "
                        "avoiding for new waves");
    }
  }
  const MRJobSpec& spec = s.dag.jobs[j];
  const auto incomplete = s.verifier->incomplete_runs(spec.sid);
  if (!incomplete.empty()) {
    attribute_omission(s, incomplete);
    if (crashed_) return;
  }
  // Escalate the timeout for the rerun (Table 3's "scheduled again with
  // higher timeout value").
  s.job_timeout_s[j] *= 2;
  CBFT_DEBUG("verifier timeout for " << spec.sid << ", rescheduling");
  need_wave(s, j, /*force=*/true);
}

void ClusterBft::need_wave(ScriptSession& s, std::size_t j, bool force) {
  if (s.finished || crashed_) return;
  if (!force) {
    // A wave whose run for j is still pending or in flight will deliver
    // more evidence; wait for it.
    for (const Wave& w : s.waves) {
      if (!w.includes[j]) continue;
      if (!w.run_of[j] || !cp_.run_complete(*w.run_of[j])) return;
    }
  }
  const bool scoped = s.request.adaptive_checkpoints;
  // Waves actually covering this job: under scoped restarts the global
  // wave count over-states how often a job ran, so the rerun budget (and
  // the adaptive degree cap) are per job.
  std::size_t covering = 0;
  for (const Wave& w : s.waves) {
    if (j < w.includes.size() && w.includes[j]) ++covering;
  }
  const std::size_t ran = scoped ? covering : s.waves.size();
  const std::size_t reruns = ran - std::min(ran, s.base_replicas);
  if (reruns >= s.request.max_rerun_waves) {
    CBFT_WARN("giving up after " << reruns << " rerun waves");
    s.failure = FailureReason::kRerunBudgetExhausted;
    finish(s, false);
    return;
  }
  if (s.request.assurance == Assurance::kAdaptive) {
    // Dynamic replication degree: f+1 chains ran; fault evidence on this
    // sub-graph (disagreement without majority, or a timeout) escalates
    // the degree one chain at a time, capped at 3f+1 — beyond that the
    // fault assumption itself is broken and we fail honestly.
    const std::size_t cap = 3 * s.request.f + 1;
    if (covering + 1 > cap) {
      CBFT_WARN("escalation for job " << j << " would exceed degree "
                                      << cap);
      s.failure = FailureReason::kRerunBudgetExhausted;
      finish(s, false);
      return;
    }
    common::WireWriter wr;
    wr.u64(j);
    wr.u64(covering + 1);
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kEscalation, wr.take())) {
      return;
    }
    ++s.metrics.escalations;
    audit_.record(now(), AuditEvent::Kind::kEscalation,
                  s.dag.jobs[j].sid + " escalated to replication degree " +
                      std::to_string(covering + 1) + " (cap " +
                      std::to_string(cap) + ")",
                  s.dag.jobs[j].sid, {}, s.scope);
  }
  create_wave(s, scoped ? std::optional<std::size_t>(j) : std::nullopt, j);
}

FaultAnalyzer::NodeSet ClusterBft::cluster_of(const ScriptSession& s,
                                              std::size_t run_id) const {
  FaultAnalyzer::NodeSet nodes;
  const RunInfo info = s.run_info.at(run_id);
  const Wave& w = s.waves[info.wave];

  // BFS back through dependencies, stopping at gating jobs (their own
  // verification points bound the corruption) and at verified inputs.
  std::vector<std::size_t> stack{info.job};
  std::set<std::size_t> seen{info.job};
  while (!stack.empty()) {
    const std::size_t j = stack.back();
    stack.pop_back();
    if (w.includes[j] && w.run_of[j]) {
      const auto& run_nodes = cp_.run_nodes(*w.run_of[j]);
      nodes.insert(run_nodes.begin(), run_nodes.end());
    }
    for (std::size_t d : s.dag.jobs[j].deps) {
      if (seen.count(d)) continue;
      if (s.verified[d]) continue;
      if (s.verifier->is_gating(s.dag.jobs[d].sid)) continue;
      seen.insert(d);
      stack.push_back(d);
    }
  }
  return nodes;
}

void ClusterBft::attribute_commission(
    ScriptSession& s, const std::vector<std::size_t>& deviant_runs) {
  for (std::size_t run : deviant_runs) {
    if (crashed_) return;
    if (!s.attributed_runs.insert(run).second) continue;
    ++s.commission_seen;
    const FaultAnalyzer::NodeSet nodes = cluster_of(s, run);
    if (nodes.empty()) continue;
    common::WireWriter wr;
    wr.u64(run);
    wr.u8(1);  // commission
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kSuspicionUpdate, wr.take())) {
      return;
    }
    audit_.record(now(), AuditEvent::Kind::kCommissionFault,
                  "deviant replica of " +
                      s.dag.jobs[s.run_info.at(run).job].sid,
                  s.dag.jobs[s.run_info.at(run).job].sid, nodes, s.scope);
    for (NodeId n : nodes) cp_.record_fault(n);
    if (!fault_analyzer_) {
      fault_analyzer_ = std::make_unique<FaultAnalyzer>(
          std::max<std::size_t>(1, s.request.f));
    }
    fault_analyzer_->set_f(std::max<std::size_t>(1, s.request.f));
    fault_analyzer_->observe(nodes);
    for (NodeId n : nodes) invalidate_convicted(n);
  }
}

void ClusterBft::attribute_omission(ScriptSession& s,
                                    const std::vector<std::size_t>& runs) {
  for (std::size_t run : runs) {
    if (crashed_) return;
    if (!s.attributed_runs.insert(run).second) continue;
    ++s.omission_seen;
    common::WireWriter wr;
    wr.u64(run);
    wr.u8(0);  // omission
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kSuspicionUpdate, wr.take())) {
      return;
    }
    audit_.record(now(), AuditEvent::Kind::kOmissionFault,
                  "replica of " + s.dag.jobs[s.run_info.at(run).job].sid +
                      " missed the verifier timeout",
                  s.dag.jobs[s.run_info.at(run).job].sid,
                  {cp_.run_nodes(run).begin(), cp_.run_nodes(run).end()},
                  s.scope);
    // Omission is detectable but not attributable to a specific node
    // (§2.1): raise suspicion on all involved nodes, but do not feed the
    // commission-fault analyzer.
    for (NodeId n : cp_.run_nodes(run)) {
      cp_.record_fault(n);
      omission_suspects_.insert(n);
    }
  }
}

void ClusterBft::rollback_tainted(
    ScriptSession& s, const std::vector<std::size_t>& deviant_runs) {
  if (deviant_runs.empty() || crashed_) return;
  // Transitive downstream closure over the recorded taint edges: a run is
  // tainted when it read the materialised output of a deviant or tainted
  // run. Edges only exist for unverified inputs, so verified prefixes
  // bound the blast radius exactly like they bound reruns.
  std::set<std::size_t> tainted(deviant_runs.begin(), deviant_runs.end());
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [run, info] : s.run_info) {
      if (tainted.count(run)) continue;
      for (const std::size_t up : info.upstream_runs) {
        if (tainted.count(up)) {
          tainted.insert(run);
          grew = true;
          break;
        }
      }
    }
  }
  const std::set<std::size_t> sources(deviant_runs.begin(),
                                      deviant_runs.end());
  for (const std::size_t run : tainted) {
    if (crashed_) return;
    const RunInfo& info = s.run_info.at(run);
    const std::size_t j = info.job;
    // A tainted run whose completed digest vector agrees with its job's
    // verified majority provably produced the correct output despite the
    // tainted input — keep it (and everything built on it).
    if (!sources.count(run) && s.verified[j] && s.verified_ref_run[j] &&
        *s.verified_ref_run[j] != run && cp_.run_complete(run) &&
        s.verifier->run_agrees(s.dag.jobs[j].sid, *s.verified_ref_run[j],
                               run)) {
      continue;
    }
    // Unhook the run from its wave slot so downstream dispatches in that
    // wave resolve the dependency from the verified output — and, for a
    // cancelled run, so pump() re-dispatches the job itself.
    Wave& w = s.waves[info.wave];
    if (w.run_of[j] && *w.run_of[j] == run) w.run_of[j] = std::nullopt;
    if (sources.count(run)) {
      // The deviant itself is complete and already attributed; its record
      // stays with the verifier as evidence. Only downstream victims are
      // cancelled.
      continue;
    }
    if (s.rolled_back_runs.count(run) != 0) continue;
    common::WireWriter wr;
    wr.u64(run);
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kRollback, wr.take())) {
      return;
    }
    s.rolled_back_runs.insert(run);
    ++s.metrics.rollbacks;
    cp_.cancel_run(run);
    s.verifier->forget_run(s.dag.jobs[j].sid, run);
    if (s.first_complete_run[j] && *s.first_complete_run[j] == run) {
      // Rescan: another (non-rolled-back) completed replica may exist.
      s.first_complete_run[j] = std::nullopt;
      for (const auto& [other, other_info] : s.run_info) {
        if (other_info.job != j || s.rolled_back_runs.count(other)) continue;
        if (!cp_.run_complete(other)) continue;
        s.first_complete_run[j] = other;
        break;
      }
    }
    audit_.record(now(), AuditEvent::Kind::kRollback,
                  "rolled back replica of " + s.dag.jobs[j].sid +
                      " tainted by a deviant upstream run",
                  s.dag.jobs[j].sid,
                  {cp_.run_nodes(run).begin(), cp_.run_nodes(run).end()},
                  s.scope);
  }
}

void ClusterBft::check_completion(ScriptSession& s) {
  if (s.finished || crashed_) return;
  for (const MRJobSpec& j : s.dag.jobs) {
    if (!j.is_final_store) continue;
    // A verified final (freshly decided or adopted from the result
    // cache) always suffices.
    if (s.verified[j.job_index]) continue;
    // Otherwise it must be verified when it is verifiable (it carries
    // verification points), when the client demanded output
    // verification, or when degradation re-admitted suspect nodes
    // (nothing a degraded script ran may be promoted unverified);
    // otherwise one completed replica suffices.
    const bool must_verify = s.request.verify_final_output ||
                             s.verifier->is_gating(j.sid) || s.degraded;
    if (must_verify) return;
    if (!s.first_complete_run[j.job_index]) return;
  }
  finish(s, true);
}

void ClusterBft::finish(ScriptSession& s, bool success) {
  if (s.finished) return;
  s.finished = true;
  s.success = success;
  s.finish_time = now();
}

// ---- verified-result cache ----------------------------------------------

crypto::Digest256 ClusterBft::input_digest(const std::string& path) {
  const std::uint64_t size = dfs_.size_of(path);
  const auto it = input_digest_memo_.find(path);
  if (it != input_digest_memo_.end() && it->second.first == size) {
    return it->second.second;
  }
  // Canonical content digest: sorted rows, canonical tuple serialisation.
  // peek() (not read()) — cache-key computation is control-tier metadata
  // access and must not perturb the Table 3 byte counters.
  const dataflow::Relation& rel = dfs_.peek(path);
  crypto::Sha256 h;
  std::string buf;
  for (const dataflow::Tuple& t : rel.sorted_rows()) {
    buf.clear();
    dataflow::serialize_tuple_into(t, buf);
    h.update(buf);
    h.update("\x1e");  // record separator
  }
  const crypto::Digest256 d{h.finalize()};
  input_digest_memo_[path] = {size, d};
  return d;
}

void ClusterBft::compute_cache_keys(ScriptSession& s) {
  // Jobs are emitted in topological order by the compiler, so dep keys
  // are ready when a job's own key is computed; composed recursively,
  // two equal keys mean "same logical sub-plan, same input content, same
  // verification policy" — and therefore the same verified result.
  for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
    const MRJobSpec& spec = s.dag.jobs[j];
    bool ok = true;
    for (std::size_t d : spec.deps) ok = ok && d < j && s.cache_ok[d];
    if (!ok) continue;
    crypto::Sha256 h;
    const auto feed = [&h](const std::string& t) {
      h.update(t);
      h.update("\n");
    };
    feed("cbft-result-cache-v1");
    // r-policy: what "verified" meant when the entry was created.
    feed("policy f=" + std::to_string(s.request.f) +
         " r=" + std::to_string(std::max<std::size_t>(1, s.request.r)) +
         " d=" + std::to_string(s.request.records_per_digest) +
         " adv=" +
         std::to_string(static_cast<int>(s.request.adversary)));
    for (const mapreduce::MapBranch& b : spec.branches) {
      feed("branch " + std::to_string(b.tag));
      feed(s.plan.node(b.source_vertex).to_string());
      for (dataflow::OpId op : b.map_ops) feed(s.plan.node(op).to_string());
      if (s.plan.node(b.source_vertex).kind == dataflow::OpKind::kLoad) {
        feed("input " + input_digest(b.input_path).hex());
      } else {
        const auto dep = s.job_by_output.find(b.input_path);
        if (dep == s.job_by_output.end()) {
          ok = false;
          break;
        }
        feed("dep " + s.cache_key[dep->second].hex());
      }
    }
    if (!ok) continue;
    if (spec.blocking) feed("blocking " + s.plan.node(*spec.blocking).to_string());
    for (dataflow::OpId op : spec.reduce_ops) {
      feed("reduce " + s.plan.node(op).to_string());
    }
    feed("reducers " + std::to_string(spec.num_reducers));
    for (const mapreduce::VerificationPoint& vp : spec.vps) {
      feed("vp " + s.plan.node(vp.vertex).to_string() + " @" +
           std::to_string(vp.records_per_digest));
    }
    feed(spec.is_final_store ? "final" : "mid");
    s.cache_key[j] = crypto::Digest256{h.finalize()};
    s.cache_ok[j] = true;
  }
}

void ClusterBft::adopt_cache_hits(ScriptSession& s) {
  for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
    if (!s.cache_ok[j]) continue;
    const VerifiedStore::Entry* e = result_cache_.lookup(s.cache_key[j]);
    if (e == nullptr) continue;
    // The materialised relation must still exist — a hit adopts data,
    // not just evidence.
    if (!dfs_.exists(e->path)) continue;
    common::WireWriter wr;
    wr.u64(j);
    wr.raw(s.cache_key[j].bytes.data(), s.cache_key[j].bytes.size());
    if (!journal_decision(static_cast<std::uint32_t>(s.id),
                          RecordKind::kCacheHit, wr.take())) {
      return;
    }
    s.verified[j] = true;
    s.verified_path[j] = e->path;
    s.verified_fp_hex[j] = e->fingerprint.hex();
    s.contributors[j] = e->contributors;
    ++s.metrics.cache_hits;
    audit_.record(now(), AuditEvent::Kind::kCacheHit,
                  s.dag.jobs[j].sid +
                      " adopted verified result from cache (key " +
                      s.cache_key[j].hex().substr(0, 12) + ")",
                  s.dag.jobs[j].sid, {}, s.scope);
  }
  // Prune: a job whose output is only needed by adopted (or transitively
  // unneeded) consumers never runs in any wave.
  std::vector<bool> needed(s.dag.jobs.size(), false);
  std::vector<std::size_t> stack;
  for (const MRJobSpec& j : s.dag.jobs) {
    if (j.is_final_store && !s.verified[j.job_index]) {
      needed[j.job_index] = true;
      stack.push_back(j.job_index);
    }
  }
  while (!stack.empty()) {
    const std::size_t j = stack.back();
    stack.pop_back();
    for (std::size_t d : s.dag.jobs[j].deps) {
      if (s.verified[d] || needed[d]) continue;
      needed[d] = true;
      stack.push_back(d);
    }
  }
  for (std::size_t j = 0; j < s.dag.jobs.size(); ++j) {
    s.wave_skip[j] = !s.verified[j] && !needed[j];
  }
}

void ClusterBft::compute_contributors(
    ScriptSession& s, std::size_t j,
    const std::vector<std::size_t>& majority_runs) {
  // Contributors: every node whose corruption could have influenced this
  // verified result — the majority runs' fault clusters plus the
  // contributors of every verified/adopted dependency. Both the result
  // cache and the checkpoint store key their invalidation on this set.
  std::set<NodeId> contrib;
  for (std::size_t run : majority_runs) {
    const FaultAnalyzer::NodeSet nodes = cluster_of(s, run);
    contrib.insert(nodes.begin(), nodes.end());
  }
  for (std::size_t d : s.dag.jobs[j].deps) {
    contrib.insert(s.contributors[d].begin(), s.contributors[d].end());
  }
  s.contributors[j] = std::move(contrib);
}

void ClusterBft::invalidate_convicted(NodeId node) {
  // The checkpoint bytes stay on the DFS (in-flight readers hold the old
  // paths); only the adoptable index entries go.
  result_cache_.invalidate_node(node);
  checkpoints_.invalidate_node(node);
}

void ClusterBft::cache_store_verified(ScriptSession& s, std::size_t j,
                                      const crypto::Digest256& fingerprint) {
  if (!s.request.use_result_cache || !s.cache_ok[j]) return;
  VerifiedStore::Entry entry;
  entry.fingerprint = fingerprint;
  entry.path = s.verified_path[j];
  entry.contributors = s.contributors[j];
  result_cache_.insert(s.cache_key[j], std::move(entry));
}

void ClusterBft::maybe_checkpoint(ScriptSession& s, std::size_t j,
                                  const crypto::Digest256& fingerprint) {
  if (!s.request.adaptive_checkpoints || crashed_) return;
  if (!s.ckpt_selected[j]) return;
  // The checkpoint key is the cache key: jobs whose key chain broke (an
  // unresolvable dependency) cannot be content-addressed.
  if (!s.cache_ok[j]) return;
  const crypto::Digest256& key = s.cache_key[j];
  const VerifiedStore::Entry* existing = checkpoints_.lookup(key);
  const bool adopt = existing != nullptr && dfs_.exists(existing->path);
  common::WireWriter wr;
  wr.u64(j);
  wr.u8(adopt ? 0 : 1);
  wr.raw(key.bytes.data(), key.bytes.size());
  if (!journal_decision(static_cast<std::uint32_t>(s.id),
                        RecordKind::kCheckpoint, wr.take())) {
    return;
  }
  if (adopt) {
    // The same logical relation was already materialised durably (by an
    // earlier session, or an earlier incarnation of this one): repoint
    // the verified path at the durable copy instead of rewriting it.
    s.verified_path[j] = existing->path;
    checkpoints_.adopted();
  } else {
    // Materialise the freshly verified relation at its content address.
    // Idempotent under replay: the same key always rewrites the same
    // bytes, so a crash anywhere around this write recovers cleanly.
    const std::string path = "ckpt/" + key.hex();
    dataflow::Relation rel = dfs_.read(s.verified_path[j]);
    dfs_.write(path, rel);
    VerifiedStore::Entry entry;
    entry.fingerprint = fingerprint;
    entry.path = path;
    entry.bytes = dfs_.size_of(path);
    entry.contributors = s.contributors[j];
    s.metrics.checkpoint_bytes += entry.bytes;
    s.verified_path[j] = path;
    checkpoints_.insert(key, std::move(entry));
  }
  ++s.metrics.checkpoints;
  audit_.record(now(), AuditEvent::Kind::kCheckpoint,
                s.dag.jobs[j].sid +
                    (adopt ? " adopted checkpoint (key "
                           : " checkpointed verified relation (key ") +
                    key.hex().substr(0, 12) + ")",
                s.dag.jobs[j].sid, {}, s.scope);
}

}  // namespace clusterbft::core
