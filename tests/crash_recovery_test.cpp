// Crash-recovery determinism: a controller that crashes after the k-th
// journal record and is recovered by a fresh instance over the same
// journal must finish the script with bit-identical final outputs,
// identical ScriptMetrics, and an identical audit history to the
// uninterrupted run — for EVERY k. The sweep covers crashes inside
// begin_script, mid-dispatch, between digest arrivals, around
// verification decisions and rollback, and right before the finish
// record.
//
// The scenario is a two-job weather chain with one commission-faulty
// node, so the recovered run must also reconstruct verifier evidence,
// fault attribution and suspicion bookkeeping — not just the happy path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "cluster/cloud.hpp"
#include "cluster/fault_plan.hpp"
#include "cluster/tracker.hpp"
#include "core/controller.hpp"
#include "core/journal.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "protocol/multicloud.hpp"
#include "protocol/seam.hpp"
#include "workloads/scripts.hpp"
#include "workloads/weather.hpp"

namespace clusterbft::core {
namespace {

using cluster::AdversaryPolicy;
using cluster::TrackerConfig;

constexpr const char* kInputPath = "weather/gsod";
constexpr const char* kOutputPath = "out/weather_hist";

/// One self-contained world: simulator, DFS with the weather input,
/// tracker with one commission-faulty node, loopback seam. Every run of
/// the sweep gets a fresh, identically-seeded world so the only varying
/// input is the crash point.
struct World {
  cluster::EventSim sim;
  mapreduce::Dfs dfs{16384};
  std::unique_ptr<cluster::ExecutionTracker> tracker;
  std::unique_ptr<protocol::LoopbackSeam> seam;

  World() {
    workloads::WeatherConfig w;
    w.num_stations = 40;
    w.readings_per_station = 4;
    dfs.write(kInputPath, workloads::generate_weather(w));
    TrackerConfig cfg;
    cfg.num_nodes = 8;
    cfg.seed = 7;
    cfg.policies[0] = AdversaryPolicy{.commission_prob = 1.0};
    tracker = std::make_unique<cluster::ExecutionTracker>(sim, dfs, cfg);
    seam = std::make_unique<protocol::LoopbackSeam>(*tracker);
  }
};

ClientRequest request() {
  return baseline::cluster_bft(workloads::weather_average_analysis(),
                               "recover", 1, 2, 1);
}

struct Outcome {
  ScriptResult result;
  std::string audit;
};

void expect_equal(const Outcome& got, const Outcome& want) {
  ASSERT_EQ(got.result.verified, want.result.verified);
  EXPECT_EQ(got.result.degraded, want.result.degraded);
  EXPECT_EQ(got.result.failure, want.result.failure);
  ASSERT_EQ(got.result.outputs.size(), want.result.outputs.size());
  for (const auto& [path, rel] : want.result.outputs) {
    ASSERT_TRUE(got.result.outputs.count(path)) << path;
    EXPECT_EQ(got.result.outputs.at(path).sorted_rows(), rel.sorted_rows())
        << "output diverged after recovery: " << path;
  }
  const ScriptMetrics& gm = got.result.metrics;
  const ScriptMetrics& wm = want.result.metrics;
  EXPECT_EQ(gm.latency_s, wm.latency_s);
  EXPECT_EQ(gm.cpu_seconds, wm.cpu_seconds);
  EXPECT_EQ(gm.file_read, wm.file_read);
  EXPECT_EQ(gm.file_write, wm.file_write);
  EXPECT_EQ(gm.hdfs_write, wm.hdfs_write);
  EXPECT_EQ(gm.digested, wm.digested);
  EXPECT_EQ(gm.runs, wm.runs);
  EXPECT_EQ(gm.waves, wm.waves);
  EXPECT_EQ(gm.rollbacks, wm.rollbacks);
  EXPECT_EQ(gm.digest_reports, wm.digest_reports);
  EXPECT_EQ(gm.cache_hits, wm.cache_hits);
  EXPECT_EQ(gm.checkpoints, wm.checkpoints);
  EXPECT_EQ(gm.checkpoint_bytes, wm.checkpoint_bytes);
  EXPECT_EQ(gm.escalations, wm.escalations);
  EXPECT_EQ(gm.cloud_failovers, wm.cloud_failovers);
  EXPECT_EQ(got.result.commission_faults_seen,
            want.result.commission_faults_seen);
  EXPECT_EQ(got.result.omission_faults_seen,
            want.result.omission_faults_seen);
  EXPECT_EQ(got.result.suspects, want.result.suspects);
  EXPECT_EQ(got.audit, want.audit) << "audit history diverged";
}

TEST(CrashRecoveryTest, JournalingItselfIsBehaviourTransparent) {
  // Same world, with and without a journal: identical results.
  World plain;
  ClusterBft a(plain.sim, plain.dfs, plain.seam->transport,
               plain.seam->programs);
  const auto ra = a.execute(request());

  World journaled;
  Journal j;
  ClusterBft b(journaled.sim, journaled.dfs, journaled.seam->transport,
               journaled.seam->programs, &j);
  const auto rb = b.execute(request());

  expect_equal({rb, b.audit_log().to_string()},
               {ra, a.audit_log().to_string()});
  ASSERT_TRUE(ra.verified);
  EXPECT_GT(j.size(), 0u);
  EXPECT_FALSE(j.recovery_pending());  // kScriptFinish closes the window
}

TEST(CrashRecoveryTest, RecoveryIsBitIdenticalAtEveryCrashPoint) {
  // ---- uninterrupted reference ----
  World ref_world;
  Journal ref_journal;
  ClusterBft ref(ref_world.sim, ref_world.dfs, ref_world.seam->transport,
                 ref_world.seam->programs, &ref_journal);
  const ClientRequest req = request();
  Outcome want{ref.execute(req), ref.audit_log().to_string()};
  ASSERT_TRUE(want.result.verified);
  ASSERT_GT(want.result.commission_faults_seen, 0u)
      << "the scenario must exercise fault attribution";

  // Golden output from the reference interpreter.
  const auto plan = dataflow::parse_script(req.script);
  const auto golden = dataflow::interpret(
      plan, {{kInputPath, ref_world.dfs.read(kInputPath)}});
  ASSERT_EQ(want.result.outputs.at(kOutputPath).sorted_rows(),
            golden.at(kOutputPath).sorted_rows());

  const std::size_t records = ref_journal.size();
  ASSERT_GT(records, 10u) << "journal suspiciously small";

  // ---- crash at every record index, recover, compare ----
  for (std::size_t k = 0; k < records; ++k) {
    SCOPED_TRACE("crash at journal record " + std::to_string(k));
    World w;
    Journal journal;
    journal.set_crash_at(k);
    // The crashed life. It must be kept alive while the recovered life
    // runs: the program registry and tracker hold pointers into its
    // compiled plan for runs dispatched before the crash.
    ClusterBft crashed(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                       &journal);
    ASSERT_THROW(crashed.execute(req), ControllerCrashed);
    ASSERT_TRUE(journal.crashed());
    ASSERT_EQ(journal.size(), k);  // the k-th record was never written

    ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
    const ScriptResult res = recovered.recover(req);
    expect_equal({res, recovered.audit_log().to_string()}, want);
    EXPECT_FALSE(journal.recovery_pending());
  }
}

TEST(CrashRecoveryTest, RecoveryWithTwoInFlightSessionsIsBitIdentical) {
  // Two weather sessions in flight at once (interleaved waves, shared
  // verifier and suspicion bookkeeping), crashed at EVERY journal record
  // and recovered as a set: both results and the full audit history must
  // match the uninterrupted concurrent run bit for bit.
  const ClientRequest req_a = baseline::cluster_bft(
      workloads::weather_average_analysis(), "multi-a", 1, 2, 1);
  const ClientRequest req_b = baseline::cluster_bft(
      workloads::weather_average_analysis(), "multi-b", 1, 2, 1);
  const std::vector<ClientRequest> reqs{req_a, req_b};

  // ---- uninterrupted concurrent reference ----
  World ref_world;
  Journal ref_journal;
  ClusterBft ref(ref_world.sim, ref_world.dfs, ref_world.seam->transport,
                 ref_world.seam->programs, &ref_journal);
  std::vector<Outcome> want;
  {
    for (const ClientRequest& r : reqs) (void)ref.begin_session(r);
    ref.drive_all();
    for (std::size_t s = 1; s <= reqs.size(); ++s) {
      want.push_back({ref.collect_session(s), {}});
      ASSERT_TRUE(want.back().result.verified) << s;
    }
  }
  const std::string want_audit = ref.audit_log().to_string();
  ASSERT_FALSE(ref_journal.recovery_pending());

  const std::size_t records = ref_journal.size();
  ASSERT_GT(records, 20u) << "journal suspiciously small";

  for (std::size_t k = 0; k < records; ++k) {
    SCOPED_TRACE("crash at journal record " + std::to_string(k));
    World w;
    Journal journal;
    journal.set_crash_at(k);
    ClusterBft crashed(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                       &journal);
    try {
      for (const ClientRequest& r : reqs) (void)crashed.begin_session(r);
      crashed.drive_all();
      for (std::size_t s = 1; s <= reqs.size(); ++s) {
        (void)crashed.collect_session(s);
      }
      FAIL() << "crash point never fired";
    } catch (const ControllerCrashed&) {
    }
    ASSERT_TRUE(journal.crashed());
    ASSERT_EQ(journal.size(), k);

    ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
    const std::vector<ScriptResult> got = recovered.recover_all(reqs);
    ASSERT_EQ(got.size(), reqs.size());
    const std::string got_audit = recovered.audit_log().to_string();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      SCOPED_TRACE(reqs[i].name);
      expect_equal({got[i], got_audit}, {want[i].result, want_audit});
    }
    EXPECT_FALSE(journal.recovery_pending());
  }
}

TEST(CrashRecoveryTest, RequestRejectedBeforeCrashIsRejectedAgainOnRecovery) {
  // A request refused at admission (its input is missing from the DFS)
  // never reaches kScriptStart, so recover_all begins it afresh. It must
  // come back kRejected — as the front end reports it — while the good
  // session it was submitted beside recovers bit-identically.
  const ClientRequest good = request();
  const ClientRequest absent = baseline::cluster_bft(
      workloads::weather_average_analysis("weather/absent"), "absent", 1, 2,
      1);

  World ref_world;
  Journal ref_journal;
  ClusterBft ref(ref_world.sim, ref_world.dfs, ref_world.seam->transport,
                 ref_world.seam->programs, &ref_journal);
  (void)ref.begin_session(good);
  EXPECT_THROW((void)ref.begin_session(absent), InputError);
  ref.drive_all();
  const Outcome want{ref.collect_session(1), ref.audit_log().to_string()};
  ASSERT_TRUE(want.result.verified);
  const std::size_t records = ref_journal.size();
  ASSERT_GT(records, 10u);

  for (const std::size_t k : {std::size_t{0}, std::size_t{10}, records - 1}) {
    SCOPED_TRACE("crash at journal record " + std::to_string(k));
    World w;
    Journal journal;
    journal.set_crash_at(k);
    ClusterBft crashed(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                       &journal);
    try {
      (void)crashed.begin_session(good);
      EXPECT_THROW((void)crashed.begin_session(absent), InputError);
      crashed.drive_all();
      (void)crashed.collect_session(1);
      FAIL() << "crash point never fired";
    } catch (const ControllerCrashed&) {
    }
    ASSERT_TRUE(journal.crashed());

    ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
    const std::vector<ScriptResult> got =
        recovered.recover_all({good, absent});
    ASSERT_EQ(got.size(), 2u);
    expect_equal({got[0], recovered.audit_log().to_string()}, want);
    EXPECT_FALSE(got[1].verified);
    EXPECT_EQ(got[1].failure, FailureReason::kRejected);
    EXPECT_TRUE(got[1].outputs.empty());
    EXPECT_FALSE(journal.recovery_pending());
  }
}

TEST(CrashRecoveryTest, AdaptiveCheckpointRecoveryIsBitIdentical) {
  // Adaptive knobs on: f+1-first chains (the commission fault forces a
  // journaled kEscalation), and the cost model checkpoints the mid-chain
  // verified relation (journaled kCheckpoint before the DFS write). The
  // crash sweep therefore straddles every checkpoint/escalation record —
  // including a crash between the kCheckpoint append and the verified
  // decision that follows, and crashes mid-rollback — and recovery must
  // re-derive adoption and escalation bit-identically.
  ClientRequest req = request();
  req.assurance = Assurance::kAdaptive;
  req.adaptive_checkpoints = true;

  World ref_world;
  Journal ref_journal;
  ClusterBft ref(ref_world.sim, ref_world.dfs, ref_world.seam->transport,
                 ref_world.seam->programs, &ref_journal);
  Outcome want{ref.execute(req), ref.audit_log().to_string()};
  ASSERT_TRUE(want.result.verified);
  ASSERT_GT(want.result.commission_faults_seen, 0u);
  ASSERT_GT(want.result.metrics.checkpoints, 0u)
      << "the scenario must exercise checkpoint materialisation";
  ASSERT_GT(want.result.metrics.escalations, 0u)
      << "the scenario must exercise degree escalation";

  std::size_t ckpt_records = 0;
  std::size_t esc_records = 0;
  for (std::size_t i = 0; i < ref_journal.size(); ++i) {
    if (ref_journal.at(i).kind == RecordKind::kCheckpoint) ++ckpt_records;
    if (ref_journal.at(i).kind == RecordKind::kEscalation) ++esc_records;
  }
  ASSERT_GT(ckpt_records, 0u);
  ASSERT_GT(esc_records, 0u);

  const auto plan = dataflow::parse_script(req.script);
  const auto golden = dataflow::interpret(
      plan, {{kInputPath, ref_world.dfs.read(kInputPath)}});
  ASSERT_EQ(want.result.outputs.at(kOutputPath).sorted_rows(),
            golden.at(kOutputPath).sorted_rows());

  const std::size_t records = ref_journal.size();
  for (std::size_t k = 0; k < records; ++k) {
    SCOPED_TRACE("crash at journal record " + std::to_string(k));
    World w;
    Journal journal;
    journal.set_crash_at(k);
    ClusterBft crashed(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                       &journal);
    ASSERT_THROW(crashed.execute(req), ControllerCrashed);
    ASSERT_TRUE(journal.crashed());
    ASSERT_EQ(journal.size(), k);

    ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
    const ScriptResult res = recovered.recover(req);
    expect_equal({res, recovered.audit_log().to_string()}, want);
    EXPECT_FALSE(journal.recovery_pending());
  }
}

TEST(CrashRecoveryTest, CloudFailoverRecoveryIsBitIdentical) {
  // Multi-cloud world: two clouds under kSpread with a permanent
  // whole-cloud outage killing cloud 1 mid-chain, so the reference run
  // journals a kCloudFailover decision. The crash sweep straddles every
  // record — in particular the crash that lands right ON the
  // kCloudFailover append (the record is lost, replay re-derives the
  // same failover from the journaled stimuli) and the crashes between
  // the failover and its urgent re-dispatches. Outputs, metrics and the
  // audit transcript must match the uninterrupted run bit for bit.
  struct CloudWorld {
    cluster::EventSim sim;
    mapreduce::Dfs dfs{16384};
    std::unique_ptr<cluster::Cloud> a;
    std::unique_ptr<cluster::Cloud> b;
    std::unique_ptr<protocol::MultiCloudSeam> seam;

    CloudWorld() {
      workloads::WeatherConfig w;
      w.num_stations = 40;
      w.readings_per_station = 4;
      dfs.write(kInputPath, workloads::generate_weather(w));
      cluster::CloudProfile alpha;
      alpha.name = "alpha";
      alpha.num_nodes = 8;
      alpha.seed = 7;
      cluster::CloudProfile beta = alpha;
      beta.name = "beta";
      beta.seed = 8;
      a = std::make_unique<cluster::Cloud>(0, sim, dfs, alpha);
      b = std::make_unique<cluster::Cloud>(1, sim, dfs, beta);
      seam = std::make_unique<protocol::MultiCloudSeam>(
          std::vector<cluster::Cloud*>{a.get(), b.get()});
      cluster::FaultPlan faults;
      faults.cloud_outages.push_back({0.05, 0 /* never heals */, 1});
      seam->arm(sim, faults);
    }
  };

  ClientRequest req = request();
  req.placement = Placement::kSpread;
  req.verifier_timeout_s = 5.0;
  req.max_rerun_waves = 4;

  // ---- uninterrupted reference ----
  CloudWorld ref_world;
  Journal ref_journal;
  ClusterBft ref(ref_world.sim, ref_world.dfs, ref_world.seam->transport,
                 ref_world.seam->programs, &ref_journal);
  Outcome want{ref.execute(req), ref.audit_log().to_string()};
  ASSERT_TRUE(want.result.verified);
  ASSERT_GT(want.result.metrics.cloud_failovers, 0u)
      << "the scenario must exercise cross-cloud failover";

  std::size_t failover_records = 0;
  for (std::size_t i = 0; i < ref_journal.size(); ++i) {
    if (ref_journal.at(i).kind == RecordKind::kCloudFailover) {
      ++failover_records;
    }
  }
  ASSERT_GT(failover_records, 0u);

  const auto plan = dataflow::parse_script(req.script);
  const auto golden = dataflow::interpret(
      plan, {{kInputPath, ref_world.dfs.read(kInputPath)}});
  ASSERT_EQ(want.result.outputs.at(kOutputPath).sorted_rows(),
            golden.at(kOutputPath).sorted_rows());

  // ---- crash at every record index, recover, compare ----
  const std::size_t records = ref_journal.size();
  ASSERT_GT(records, 10u) << "journal suspiciously small";
  for (std::size_t k = 0; k < records; ++k) {
    SCOPED_TRACE("crash at journal record " + std::to_string(k));
    CloudWorld w;
    Journal journal;
    journal.set_crash_at(k);
    ClusterBft crashed(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                       &journal);
    ASSERT_THROW(crashed.execute(req), ControllerCrashed);
    ASSERT_TRUE(journal.crashed());
    ASSERT_EQ(journal.size(), k);

    ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
    const ScriptResult res = recovered.recover(req);
    expect_equal({res, recovered.audit_log().to_string()}, want);
    EXPECT_FALSE(journal.recovery_pending());
  }
}

TEST(CrashRecoveryTest, CacheHitRecoveryIsBitIdentical) {
  // The same script executed twice with the result cache on: the second
  // execution adopts cached verified results (cache_hits > 0, journaled
  // as kCacheHit). Crash the pair at every record; recovery must replay
  // the adoption — same hits, same outputs, same audit — even when the
  // crash lands between the insert (first script) and the hit (second).
  //
  // The second input adds adaptive checkpoints and adaptive assurance,
  // so one controller runs both verified-relation stores: the cold
  // script checkpoints (journaled kCheckpoint), and the cache entry of a
  // checkpointed job points at the checkpoint path.
  ClientRequest cached = request();
  cached.use_result_cache = true;
  ClientRequest both = cached;
  both.adaptive_checkpoints = true;
  both.assurance = Assurance::kAdaptive;
  for (const ClientRequest& req : {cached, both}) {
    SCOPED_TRACE(req.adaptive_checkpoints ? "cache + checkpoints" : "cache");
    World ref_world;
    Journal ref_journal;
    ClusterBft ref(ref_world.sim, ref_world.dfs, ref_world.seam->transport,
                   ref_world.seam->programs, &ref_journal);
    // Audit comparison is per-session canonical transcript: recovery
    // collects sessions at the end, so the raw insertion order of the
    // script-completed lines differs from the serial reference even though
    // every event (and its timestamp) is identical.
    Outcome want_cold{ref.execute(req), {}};
    Outcome want_hit{ref.execute(req), {}};
    want_cold.audit = ref.audit_log().transcript("recover#1");
    want_hit.audit = ref.audit_log().transcript("recover#2");
    ASSERT_TRUE(want_cold.result.verified);
    ASSERT_TRUE(want_hit.result.verified);
    ASSERT_EQ(want_cold.result.metrics.cache_hits, 0u);
    ASSERT_GT(want_hit.result.metrics.cache_hits, 0u)
        << "the scenario must exercise cache adoption";
    if (req.adaptive_checkpoints) {
      ASSERT_GT(want_cold.result.metrics.checkpoints, 0u)
          << "the scenario must exercise checkpoint materialisation";
    }

    const std::size_t records = ref_journal.size();
    for (std::size_t k = 0; k < records; ++k) {
      SCOPED_TRACE("crash at journal record " + std::to_string(k));
      World w;
      Journal journal;
      journal.set_crash_at(k);
      ClusterBft crashed(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
      try {
        (void)crashed.execute(req);
        (void)crashed.execute(req);
        FAIL() << "crash point never fired";
      } catch (const ControllerCrashed&) {
      }
      ASSERT_TRUE(journal.crashed());

      // Only sessions whose kScriptStart reached the journal were in flight
      // at the crash; those are recovered. The rest were never submitted —
      // the client re-executes them on the recovered controller, whose
      // cache was rebuilt by replay (so the re-executed second script still
      // hits). A non-empty journal is always replayed (via recover_all with
      // one request) even when no script durably started: it can hold
      // membership announcements the wire already delivered.
      std::size_t started = 0;
      for (std::size_t i = 0; i < journal.size(); ++i) {
        if (journal.at(i).kind == RecordKind::kScriptStart) ++started;
      }
      ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                           &journal);
      std::vector<ScriptResult> got;
      if (journal.size() > 0) {
        got = recovered.recover_all(std::vector<ClientRequest>(
            std::max<std::size_t>(started, 1), req));
      }
      while (got.size() < 2) got.push_back(recovered.execute(req));
      expect_equal({got[0], recovered.audit_log().transcript("recover#1")},
                   want_cold);
      expect_equal({got[1], recovered.audit_log().transcript("recover#2")},
                   want_hit);
      EXPECT_FALSE(journal.recovery_pending());
    }
  }
}

TEST(CrashRecoveryTest, JournalSurvivesFileRoundTripIncludingTornTail) {
  World w;
  Journal journal;
  const std::string path = ::testing::TempDir() + "cbft_journal_test.bin";
  ASSERT_TRUE(journal.attach_file(path));
  ClusterBft c(w.sim, w.dfs, w.seam->transport, w.seam->programs, &journal);
  const auto res = c.execute(request());
  ASSERT_TRUE(res.verified);

  Journal loaded;
  ASSERT_TRUE(Journal::load_file(path, loaded));
  ASSERT_EQ(loaded.size(), journal.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.at(i).kind, journal.at(i).kind);
    EXPECT_EQ(loaded.at(i).time, journal.at(i).time);
    EXPECT_EQ(loaded.at(i).payload, journal.at(i).payload);
  }

  // Tear the tail mid-record: load keeps the intact prefix and reports
  // the torn write.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_GT(size, 8);
  ASSERT_EQ(ftruncate(fileno(f), size - 5), 0);
  std::fclose(f);
  Journal torn;
  EXPECT_FALSE(Journal::load_file(path, torn));
  EXPECT_EQ(torn.size(), journal.size() - 1);
  std::remove(path.c_str());
}

TEST(CrashRecoveryTest, PoolExhaustionFailsHonestlyInFailMode) {
  // One commission-faulty node in a 3-node cluster at r=3: the first
  // script convicts it, the threshold evicts it, and the second script
  // cannot place 3 replica chains on 2 healthy nodes.
  cluster::EventSim sim;
  mapreduce::Dfs dfs(16384);
  workloads::WeatherConfig wc;
  wc.num_stations = 40;
  wc.readings_per_station = 4;
  dfs.write(kInputPath, workloads::generate_weather(wc));
  TrackerConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 7;
  cfg.policies[1] = AdversaryPolicy{.commission_prob = 1.0};
  cluster::ExecutionTracker tracker(sim, dfs, cfg);
  protocol::LoopbackSeam seam(tracker);
  ClusterBft controller(sim, dfs, seam.transport, seam.programs);

  ClientRequest req = baseline::cluster_bft(
      workloads::weather_average_analysis(), "exhaust", 1, 3, 1);
  const auto first = controller.execute(req);
  ASSERT_TRUE(first.verified);
  // Suspicion is faults / jobs executed, so one conviction over several
  // runs is fractional; any nonzero suspicion marks the faulty node.
  const auto evicted = controller.apply_suspicion_threshold(0.0);
  ASSERT_FALSE(evicted.empty()) << "the faulty node must have been evicted";

  req.degraded_mode = DegradedMode::kFail;
  const auto second = controller.execute(req);
  EXPECT_FALSE(second.verified);
  EXPECT_EQ(second.failure, FailureReason::kPoolExhausted);
  EXPECT_TRUE(second.outputs.empty())
      << "a failed script must not promote outputs";
  EXPECT_NE(controller.audit_log().to_string().find("pool-exhausted"),
            std::string::npos);
}

TEST(CrashRecoveryTest, PoolExhaustionDegradesAndForcesVerification) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(16384);
  workloads::WeatherConfig wc;
  wc.num_stations = 40;
  wc.readings_per_station = 4;
  dfs.write(kInputPath, workloads::generate_weather(wc));
  TrackerConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 7;
  cfg.policies[1] = AdversaryPolicy{.commission_prob = 1.0};
  cluster::ExecutionTracker tracker(sim, dfs, cfg);
  protocol::LoopbackSeam seam(tracker);
  ClusterBft controller(sim, dfs, seam.transport, seam.programs);

  ClientRequest req = baseline::cluster_bft(
      workloads::weather_average_analysis(), "degrade", 1, 3, 1);
  const auto first = controller.execute(req);
  ASSERT_TRUE(first.verified);
  ASSERT_FALSE(controller.apply_suspicion_threshold(0.0).empty());

  req.degraded_mode = DegradedMode::kReadmit;  // the default, made explicit
  const auto second = controller.execute(req);
  EXPECT_TRUE(second.degraded) << "the run must be marked degraded";
  EXPECT_NE(controller.audit_log().to_string().find("degraded"),
            std::string::npos);
  if (second.verified) {
    // Degraded success is only ever a VERIFIED success, and the output
    // must still match the reference interpreter exactly.
    const auto plan = dataflow::parse_script(req.script);
    const auto golden =
        dataflow::interpret(plan, {{kInputPath, dfs.read(kInputPath)}});
    EXPECT_EQ(second.outputs.at(kOutputPath).sorted_rows(),
              golden.at(kOutputPath).sorted_rows());
  } else {
    // With the faulty node back in the pool agreement can stay out of
    // reach; the failure must be structured, never a promoted guess.
    EXPECT_NE(second.failure, FailureReason::kNone);
    EXPECT_TRUE(second.outputs.empty());
  }
}

}  // namespace
}  // namespace clusterbft::core
