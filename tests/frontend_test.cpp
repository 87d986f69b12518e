// Multi-tenant front end: per-script sessions, fair cross-request
// scheduling, and the digest-keyed verified-result cache.
//
// The load-bearing claims under test:
//  * a cache hit is byte-identical to a cold re-execution — outputs AND
//    the verified digest-vector fingerprint at every verification point;
//  * N concurrent sessions produce per-session outputs, metrics (minus
//    latency) and canonical audit transcripts bit-identical to the same
//    N requests executed serially — including after an injected
//    mid-flight controller crash and recover_all();
//  * a stalled session fails with diagnostics naming the session, wave,
//    and what it was waiting on;
//  * the front end's WRR admission respects tenant caps and reports
//    service metrics;
//  * a request the controller refuses at admission fails alone, as
//    kRejected, and leaves every other tenant's result unchanged.
#include "frontend/frontend.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "cluster/tracker.hpp"
#include "common/guarded.hpp"
#include "core/controller.hpp"
#include "core/journal.hpp"
#include "core/verified_store.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "protocol/seam.hpp"
#include "workloads/airline.hpp"
#include "workloads/mixed.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace clusterbft::frontend {
namespace {

using cluster::AdversaryPolicy;
using cluster::TrackerConfig;
using core::ClientRequest;
using core::ClusterBft;
using core::ScriptResult;

struct World {
  cluster::EventSim sim;
  mapreduce::Dfs dfs{16384};
  std::unique_ptr<cluster::ExecutionTracker> tracker;
  std::unique_ptr<protocol::LoopbackSeam> seam;
  std::unique_ptr<ClusterBft> controller;

  explicit World(TrackerConfig cfg = {}, core::Journal* journal = nullptr) {
    load_inputs(dfs);
    tracker = std::make_unique<cluster::ExecutionTracker>(sim, dfs, cfg);
    seam = std::make_unique<protocol::LoopbackSeam>(*tracker);
    controller = std::make_unique<ClusterBft>(sim, dfs, seam->transport,
                                              seam->programs, journal);
  }

  static void load_inputs(mapreduce::Dfs& dfs) {
    workloads::TwitterConfig tw;
    tw.num_edges = 800;
    tw.num_users = 120;
    dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
    workloads::WeatherConfig wc;
    wc.num_stations = 60;
    wc.readings_per_station = 4;
    dfs.write("weather/gsod", workloads::generate_weather(wc));
    workloads::AirlineConfig ac;
    ac.num_flights = 500;
    dfs.write("airline/flights", workloads::generate_flights(ac));
  }
};

ClientRequest make_request(const workloads::TenantRequest& tr,
                           bool use_cache) {
  ClientRequest req = baseline::cluster_bft(tr.script, tr.name, 1, 2, 2);
  req.verifier_timeout_s = 1e9;  // contention must never fake an omission
  req.use_result_cache = use_cache;
  return req;
}

/// Request-order scopes ("name#serial") for a request sequence.
std::vector<std::string> scopes_of(const std::vector<ClientRequest>& reqs) {
  std::map<std::string, std::size_t> serial;
  std::vector<std::string> out;
  for (const ClientRequest& r : reqs) {
    out.push_back(r.name + "#" + std::to_string(++serial[r.name]));
  }
  return out;
}

void expect_equal_modulo_latency(const ScriptResult& got,
                                 const ScriptResult& want,
                                 const std::string& scope) {
  SCOPED_TRACE(scope);
  ASSERT_EQ(got.verified, want.verified);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.failure, want.failure);
  ASSERT_EQ(got.outputs.size(), want.outputs.size());
  for (const auto& [path, rel] : want.outputs) {
    ASSERT_TRUE(got.outputs.count(path)) << path;
    EXPECT_EQ(got.outputs.at(path).sorted_rows(), rel.sorted_rows()) << path;
  }
  // Latency depends on queueing; everything else must match bit for bit.
  EXPECT_EQ(got.metrics.cpu_seconds, want.metrics.cpu_seconds);
  EXPECT_EQ(got.metrics.file_read, want.metrics.file_read);
  EXPECT_EQ(got.metrics.file_write, want.metrics.file_write);
  EXPECT_EQ(got.metrics.hdfs_write, want.metrics.hdfs_write);
  EXPECT_EQ(got.metrics.digested, want.metrics.digested);
  EXPECT_EQ(got.metrics.runs, want.metrics.runs);
  EXPECT_EQ(got.metrics.waves, want.metrics.waves);
  EXPECT_EQ(got.metrics.rollbacks, want.metrics.rollbacks);
  EXPECT_EQ(got.metrics.digest_reports, want.metrics.digest_reports);
  EXPECT_EQ(got.metrics.cache_hits, want.metrics.cache_hits);
  EXPECT_EQ(got.commission_faults_seen, want.commission_faults_seen);
  EXPECT_EQ(got.omission_faults_seen, want.omission_faults_seen);
  EXPECT_EQ(got.verified_digest_hex, want.verified_digest_hex)
      << "verification-point fingerprints diverged";
}

std::vector<ClientRequest> mixed_requests(std::size_t count, bool use_cache) {
  std::vector<ClientRequest> reqs;
  for (const auto& tr : workloads::mixed_tenant_workload(count, 11, 0.5)) {
    reqs.push_back(make_request(tr, use_cache));
  }
  return reqs;
}

// ---------------------------------------------------------------- cache

TEST(FrontendTest, CacheHitIsByteIdenticalToColdExecution) {
  World w;
  ClientRequest req = make_request(
      {.tenant = "t", .weight = 1, .priority = 0, .name = "cached",
       .script = workloads::weather_average_analysis()},
      /*use_cache=*/true);

  const ScriptResult cold = w.controller->execute(req);
  ASSERT_TRUE(cold.verified);
  EXPECT_EQ(cold.metrics.cache_hits, 0u);
  ASSERT_FALSE(cold.verified_digest_hex.empty())
      << "the scenario must exercise verification points";

  const ScriptResult hit = w.controller->execute(req);
  ASSERT_TRUE(hit.verified);
  EXPECT_GT(hit.metrics.cache_hits, 0u) << "second run must hit the cache";
  EXPECT_LT(hit.metrics.runs, cold.metrics.runs)
      << "adopted sub-graphs must not re-execute";

  // Byte-identical evidence: same relations, and the same verified
  // digest-vector fingerprint at every verification point. The sids
  // differ only in the scope prefix (cached#1 vs cached#2).
  ASSERT_EQ(hit.outputs.size(), cold.outputs.size());
  for (const auto& [path, rel] : cold.outputs) {
    EXPECT_EQ(hit.outputs.at(path).sorted_rows(), rel.sorted_rows()) << path;
  }
  ASSERT_EQ(hit.verified_digest_hex.size(), cold.verified_digest_hex.size());
  auto strip = [](const std::string& sid) {
    return sid.substr(sid.find(':') + 1);
  };
  std::map<std::string, std::string> cold_fp;
  std::map<std::string, std::string> hit_fp;
  for (const auto& [sid, fp] : cold.verified_digest_hex) {
    cold_fp[strip(sid)] = fp;
  }
  for (const auto& [sid, fp] : hit.verified_digest_hex) {
    hit_fp[strip(sid)] = fp;
  }
  EXPECT_EQ(hit_fp, cold_fp) << "adopted fingerprints diverged from cold";

  const auto stats = w.controller->cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.insertions, 0u);

  // Audit trail names every adoption.
  EXPECT_NE(w.controller->audit_log().to_string().find("cache-hit"),
            std::string::npos);
}

TEST(FrontendTest, ConvictionInvalidatesDependentCacheEntries) {
  // The cache's invalidation contract in isolation: entries remember
  // their contributor set, and convicting any contributor kills every
  // dependent entry (the controller wires invalidate_node into
  // attribute_commission and kProbeCommission outcomes).
  const common::RoleGuard held(common::scheduler_thread_role);
  core::VerifiedStore cache;
  const crypto::Digest256 ka = crypto::Digest256::of("subgraph-a");
  const crypto::Digest256 kb = crypto::Digest256::of("subgraph-b");
  const crypto::Digest256 kc = crypto::Digest256::of("subgraph-c");
  cache.insert(ka, {crypto::Digest256::of("fp-a"), "wave/a", 0, {0, 1, 2}});
  // A dependent entry inherits its dependency's contributors.
  cache.insert(kb, {crypto::Digest256::of("fp-b"), "wave/b", 0, {0, 1, 2, 3}});
  cache.insert(kc, {crypto::Digest256::of("fp-c"), "wave/c", 0, {4, 5}});
  // First insert wins: re-inserting under ka must not churn the path.
  cache.insert(ka, {crypto::Digest256::of("fp-a"), "wave/a2", 0, {7}});
  const core::VerifiedStore::Entry* got = cache.lookup(ka);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->path, "wave/a");
  EXPECT_EQ(got->fingerprint, crypto::Digest256::of("fp-a"));
  EXPECT_EQ(got->contributors, (std::set<cluster::NodeId>{0, 1, 2}));

  // Convict node 2: a and b (which depends on a) die, c survives.
  EXPECT_EQ(cache.invalidate_node(2), 2u);
  EXPECT_EQ(cache.lookup(ka), nullptr);
  EXPECT_EQ(cache.lookup(kb), nullptr);
  ASSERT_NE(cache.lookup(kc), nullptr);
  EXPECT_EQ(cache.lookup(kc)->path, "wave/c");
  // Convicting a node that no longer contributes to anything is a no-op.
  EXPECT_EQ(cache.invalidate_node(2), 0u);

  const core::VerifiedStore::Stats& stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u) << "duplicate insert must not count";
  EXPECT_EQ(stats.bytes_written, 0u);
  EXPECT_EQ(stats.invalidated, 2u);
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------- concurrent == serial

TEST(FrontendTest, SixteenConcurrentSessionsMatchSerialBitForBit) {
  const std::vector<ClientRequest> reqs =
      mixed_requests(16, /*use_cache=*/false);
  const std::vector<std::string> scopes = scopes_of(reqs);

  // Serial reference: one world, one controller, requests one at a time.
  World serial;
  std::vector<ScriptResult> want;
  for (const ClientRequest& r : reqs) {
    want.push_back(serial.controller->execute(r));
    ASSERT_TRUE(want.back().verified) << want.size() - 1;
  }

  // Concurrent: twin world, all sixteen sessions in flight at once.
  World conc;
  std::vector<std::size_t> session;
  for (const ClientRequest& r : reqs) {
    session.push_back(conc.controller->begin_session(r));
  }
  EXPECT_EQ(conc.controller->active_sessions(), reqs.size());
  conc.controller->drive_all();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ScriptResult got = conc.controller->collect_session(session[i]);
    expect_equal_modulo_latency(got, want[i], scopes[i]);
  }

  // Canonical per-session audit transcripts are bit-identical despite
  // the interleaving.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(conc.controller->audit_log().transcript(scopes[i]),
              serial.controller->audit_log().transcript(scopes[i]))
        << "audit transcript diverged for " << scopes[i];
  }
}

TEST(FrontendTest, ConcurrentSessionsRecoverBitIdenticalAfterCrash) {
  const std::vector<ClientRequest> reqs =
      mixed_requests(16, /*use_cache=*/false);
  const std::vector<std::string> scopes = scopes_of(reqs);

  // Serial reference (no journal, no crash).
  World serial;
  std::vector<ScriptResult> want;
  for (const ClientRequest& r : reqs) {
    want.push_back(serial.controller->execute(r));
  }

  // Record count of an uninterrupted concurrent run, to pick crash points.
  core::Journal ref_journal;
  {
    World ref({}, &ref_journal);
    for (const ClientRequest& r : reqs) {
      (void)ref.controller->begin_session(r);
    }
    ref.controller->drive_all();
    for (std::size_t s = 1; s <= reqs.size(); ++s) {
      (void)ref.controller->collect_session(s);
    }
  }
  const std::size_t records = ref_journal.size();
  ASSERT_GT(records, 32u);

  // A spread of mid-flight crash points (the exhaustive per-record sweep
  // lives in crash_recovery_test; this one proves the multi-session
  // recovery path at scale).
  for (const std::size_t k :
       {records / 5, records / 2, (records * 4) / 5, records - 1}) {
    SCOPED_TRACE("crash at journal record " + std::to_string(k));
    core::Journal journal;
    journal.set_crash_at(k);
    World w({}, &journal);
    ClusterBft& crashed = *w.controller;
    try {
      for (const ClientRequest& r : reqs) {
        (void)crashed.begin_session(r);
      }
      crashed.drive_all();
      for (std::size_t s = 1; s <= reqs.size(); ++s) {
        (void)crashed.collect_session(s);
      }
      FAIL() << "crash point never fired";
    } catch (const core::ControllerCrashed&) {
    }
    ASSERT_TRUE(journal.crashed());

    ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
    const std::vector<ScriptResult> got = recovered.recover_all(reqs);
    ASSERT_EQ(got.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      expect_equal_modulo_latency(got[i], want[i], scopes[i]);
      EXPECT_EQ(recovered.audit_log().transcript(scopes[i]),
                serial.controller->audit_log().transcript(scopes[i]))
          << "audit transcript diverged for " << scopes[i];
    }
    EXPECT_FALSE(journal.recovery_pending());
  }
}

// ------------------------------------------------------------- frontend

TEST(FrontendTest, MixedTenantStreamCompletesWithFairnessCaps) {
  World w;
  FrontendOptions opts;
  opts.max_concurrent = 4;
  opts.per_tenant_inflight = 2;
  Frontend fe(*w.controller, w.sim, opts);

  const auto workload = workloads::mixed_tenant_workload(12, 3, 0.5);
  std::vector<std::size_t> tickets;
  for (const auto& tr : workload) {
    Submission s;
    s.request = make_request(tr, /*use_cache=*/true);
    s.tenant = tr.tenant;
    s.weight = tr.weight;
    s.priority = tr.priority;
    tickets.push_back(fe.submit(s));
  }
  fe.run();

  const ServiceMetrics m = fe.metrics();
  EXPECT_EQ(m.submitted, workload.size());
  EXPECT_EQ(m.admitted, workload.size());
  EXPECT_EQ(m.completed, workload.size());
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.queued_peak, 0u) << "caps must actually queue something";
  EXPECT_GT(m.requests_per_s, 0.0);
  EXPECT_GE(m.p99_latency_s, m.p50_latency_s);
  EXPECT_GT(m.cache_hits, 0u)
      << "repeated sub-queries must hit the shared cache";

  for (std::size_t t : tickets) {
    const ScriptResult* res = fe.result(t);
    ASSERT_NE(res, nullptr);
    EXPECT_TRUE(res->verified);
  }
}

TEST(FrontendTest, PerRequestResultsMatchInterpreter) {
  World w;
  Frontend fe(*w.controller, w.sim, {});
  Submission s;
  s.request = make_request(
      {.tenant = "t", .weight = 1, .priority = 0, .name = "golden",
       .script = workloads::twitter_follower_analysis()},
      /*use_cache=*/false);
  const std::size_t t = fe.submit(s);
  fe.run();
  const ScriptResult* res = fe.result(t);
  ASSERT_NE(res, nullptr);
  ASSERT_TRUE(res->verified);
  const auto plan = dataflow::parse_script(s.request.script);
  const auto golden = dataflow::interpret(
      plan, {{"twitter/edges", w.dfs.read("twitter/edges")}});
  for (const auto& [path, rel] : golden) {
    EXPECT_EQ(res->outputs.at(path).sorted_rows(), rel.sorted_rows()) << path;
  }
}

// -------------------------------------------------------------- stalls

TEST(FrontendTest, StalledSessionDiagnosticsNameWaveAndDependency) {
  // Every node swallows every task, and the script carries no
  // verification points (pure Pig), so no verifier timeout is armed: the
  // event queue drains with the run incomplete. The session must fail as
  // kStalled with diagnostics, not hang or crash.
  TrackerConfig cfg;
  cfg.num_nodes = 4;
  for (cluster::NodeId n = 0; n < 4; ++n) {
    cfg.policies[n] = AdversaryPolicy{.omission_prob = 1.0};
  }
  World w(cfg);
  Frontend fe(*w.controller, w.sim, {});
  Submission s;
  s.request = baseline::pure_pig(workloads::twitter_follower_analysis(),
                                 "stuck");
  const std::size_t t = fe.submit(s);
  fe.run();

  const ScriptResult* res = fe.result(t);
  ASSERT_NE(res, nullptr);
  EXPECT_FALSE(res->verified);
  EXPECT_EQ(res->failure, core::FailureReason::kStalled);
  const std::string audit = w.controller->audit_log().to_string();
  EXPECT_NE(audit.find("stalled"), std::string::npos) << audit;
  EXPECT_NE(audit.find("stuck#1"), std::string::npos)
      << "diagnostics must name the session: " << audit;
  EXPECT_NE(audit.find("wave 0"), std::string::npos)
      << "diagnostics must name the wave: " << audit;
  EXPECT_NE(audit.find("never completed"), std::string::npos)
      << "diagnostics must say what it waited on: " << audit;
  const ServiceMetrics m = fe.metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed, 0u);
}

// ------------------------------------------------------- hostile input

TEST(FrontendTest, HostileTenantIsRejectedWithoutTakingOthersDown) {
  // One tenant submits scripts the controller must refuse: a LOAD of an
  // input the DFS lacks, a syntax error, and an explicit verification
  // point on an alias the script never defines. Each must finish as
  // kRejected; the other tenant's request must run exactly as it would
  // alone.
  const ClientRequest good = make_request(
      {.tenant = "good", .weight = 1, .priority = 0, .name = "good",
       .script = workloads::twitter_follower_analysis()},
      /*use_cache=*/false);
  const ClientRequest absent = baseline::cluster_bft(
      "a = LOAD 'absent' AS (x:long);\nSTORE a INTO 'o';\n", "absent", 1,
      2, 1);
  const ClientRequest garbled = baseline::cluster_bft(
      "a = LOAD 'twitter/edges' AS (;\nSTORE a INTO 'o';\n", "garbled", 1,
      2, 1);
  ClientRequest unknown_vp = baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "unknown-vp", 1, 2, 1);
  unknown_vp.explicit_vp_aliases = {"no_such_alias"};

  World w;
  Frontend fe(*w.controller, w.sim, {});
  std::vector<std::size_t> bad;
  for (const ClientRequest& req : {absent, garbled, unknown_vp}) {
    Submission s;
    s.request = req;
    s.tenant = "bad";
    bad.push_back(fe.submit(s));
  }
  Submission s;
  s.request = good;
  s.tenant = "good";
  const std::size_t t = fe.submit(s);
  ASSERT_NO_THROW(fe.run());

  for (std::size_t b : bad) {
    const ScriptResult* res = fe.result(b);
    ASSERT_NE(res, nullptr) << "ticket " << b;
    EXPECT_FALSE(res->verified);
    EXPECT_EQ(res->failure, core::FailureReason::kRejected);
    EXPECT_TRUE(res->outputs.empty());
  }
  const ScriptResult* res = fe.result(t);
  ASSERT_NE(res, nullptr);
  EXPECT_TRUE(res->verified);
  World solo;
  expect_equal_modulo_latency(*res, solo.controller->execute(good), "good");

  const ServiceMetrics m = fe.metrics();
  EXPECT_EQ(m.submitted, 4u);
  EXPECT_EQ(m.admitted, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.failed, 3u);
}

}  // namespace
}  // namespace clusterbft::frontend
