// Adaptive checkpointing + dynamic replication degree.
//
// Covers the checkpoint store in isolation (content-addressed entries,
// adoption, conviction invalidation) and the controller integration: the
// cost model materialises verified mid-chain relations, later sessions
// adopt them, scoped restart waves re-execute only the unverified
// ancestor closure, and adaptive assurance launches f+1 chains and
// escalates only on fault evidence — with every verified output
// bit-identical to the reference interpreter.
#include <gtest/gtest.h>

#include <cstdint>

#include "baseline/presets.hpp"
#include "common/guarded.hpp"
#include "core/controller.hpp"
#include "core/verified_store.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "protocol/seam.hpp"
#include "workloads/airline.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace clusterbft::core {
namespace {

using cluster::AdversaryPolicy;
using cluster::EventSim;
using cluster::ExecutionTracker;
using cluster::TrackerConfig;
using dataflow::Relation;

struct World {
  EventSim sim;
  mapreduce::Dfs dfs{16384};
  std::unique_ptr<ExecutionTracker> tracker;
  std::unique_ptr<protocol::LoopbackSeam> seam;
  std::unique_ptr<ClusterBft> controller;
  std::map<std::string, Relation> inputs;

  explicit World(TrackerConfig cfg = {}) {
    tracker = std::make_unique<ExecutionTracker>(sim, dfs, cfg);
    seam = std::make_unique<protocol::LoopbackSeam>(*tracker);
    controller = std::make_unique<ClusterBft>(sim, dfs, seam->transport,
                                              seam->programs);
  }

  void load_weather() {
    workloads::WeatherConfig w;
    w.num_stations = 150;
    w.readings_per_station = 10;
    Relation rel = workloads::generate_weather(w);
    inputs["weather/gsod"] = rel;
    dfs.write("weather/gsod", std::move(rel));
  }

  void load_airline(std::uint64_t flights = 3000) {
    workloads::AirlineConfig a;
    a.num_flights = flights;
    Relation rel = workloads::generate_flights(a);
    inputs["airline/flights"] = rel;
    dfs.write("airline/flights", std::move(rel));
  }

  void expect_outputs_match_interpreter(const ClientRequest& req,
                                        const ScriptResult& res) {
    const auto plan = dataflow::parse_script(req.script);
    const auto golden = dataflow::interpret(plan, inputs);
    ASSERT_EQ(res.outputs.size(), golden.size());
    for (const auto& [path, rel] : golden) {
      EXPECT_EQ(res.outputs.at(path).sorted_rows(), rel.sorted_rows())
          << path;
    }
  }
};

crypto::Digest256 key_of(std::uint8_t seed) {
  crypto::Digest256 d;
  d.bytes.fill(seed);
  return d;
}

TEST(CheckpointStoreTest, InsertLookupAdoptInvalidate) {
  const common::RoleGuard held(common::scheduler_thread_role);
  VerifiedStore store;
  EXPECT_EQ(store.lookup(key_of(1)), nullptr);

  VerifiedStore::Entry e;
  e.path = "ckpt/aa";
  e.bytes = 100;
  e.contributors = {2, 5};
  store.insert(key_of(1), e);
  e.path = "ckpt/bb";
  e.contributors = {7};
  store.insert(key_of(2), e);

  const VerifiedStore::Entry* got = store.lookup(key_of(1));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->path, "ckpt/aa");
  EXPECT_EQ(store.stats().insertions, 2u);
  EXPECT_EQ(store.stats().bytes_written, 200u);
  EXPECT_EQ(store.stats().lookups, 2u);
  EXPECT_EQ(store.stats().hits, 1u);

  // First insert wins: a re-derived entry for the same content address
  // must not clobber the original (same bytes by construction).
  VerifiedStore::Entry dup;
  dup.path = "ckpt/other";
  dup.bytes = 100;
  store.insert(key_of(1), dup);
  EXPECT_EQ(store.lookup(key_of(1))->path, "ckpt/aa");
  EXPECT_EQ(store.stats().insertions, 2u);
  EXPECT_EQ(store.stats().bytes_written, 200u);

  // Adoption is counted only once the caller commits to reusing an entry.
  EXPECT_EQ(store.stats().adoptions, 0u);
  store.adopted();
  EXPECT_EQ(store.stats().adoptions, 1u);

  // Convicting node 5 drops exactly the entries it contributed to.
  EXPECT_EQ(store.invalidate_node(5), 1u);
  EXPECT_EQ(store.lookup(key_of(1)), nullptr);
  ASSERT_NE(store.lookup(key_of(2)), nullptr);
  EXPECT_EQ(store.stats().invalidated, 1u);
  EXPECT_EQ(store.invalidate_node(5), 0u);
  EXPECT_EQ(store.size(), 1u);
}

ClientRequest checkpointed(ClientRequest req) {
  req.adaptive_checkpoints = true;
  return req;
}

ClientRequest adaptive(ClientRequest req) {
  req.assurance = Assurance::kAdaptive;
  return req;
}

TEST(CheckpointTest, FaultFreeRunMaterialisesSelectedRelations) {
  World w;
  w.load_weather();
  const auto req = checkpointed(baseline::cluster_bft(
      workloads::weather_average_analysis(), "ckpt", 1, 2, 2));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  w.expect_outputs_match_interpreter(req, res);
  // The cost model selected at least one mid-chain verification point and
  // the verified relation landed at its content address.
  EXPECT_GT(res.metrics.checkpoints, 0u);
  EXPECT_GT(res.metrics.checkpoint_bytes, 0u);
  const auto stats = w.controller->checkpoint_stats();
  EXPECT_EQ(stats.insertions, res.metrics.checkpoints);
  EXPECT_EQ(stats.adoptions, 0u);
}

TEST(CheckpointTest, SecondSessionAdoptsExistingCheckpoint) {
  World w;
  w.load_weather();
  const auto req = checkpointed(baseline::cluster_bft(
      workloads::weather_average_analysis(), "ckpt", 1, 2, 2));
  const auto first = w.controller->execute(req);
  ASSERT_TRUE(first.verified);
  const auto writes = w.controller->checkpoint_stats().insertions;
  ASSERT_GT(writes, 0u);

  // Same script, same inputs, same policy — same content address. The
  // second session re-verifies but adopts the durable bytes instead of
  // rewriting them.
  const auto second = w.controller->execute(req);
  EXPECT_TRUE(second.verified);
  w.expect_outputs_match_interpreter(req, second);
  const auto stats = w.controller->checkpoint_stats();
  EXPECT_EQ(stats.insertions, writes);
  EXPECT_GT(stats.adoptions, 0u);
}

TEST(CheckpointTest, CommissionFaultStillVerifiesWithScopedRestarts) {
  TrackerConfig cfg;
  cfg.policies[5] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.load_airline();
  const auto req = checkpointed(baseline::cluster_bft(
      workloads::airline_top20_analysis(), "ckpt", 1, 2, 2));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.commission_faults_seen, 0u);
  EXPECT_GT(res.metrics.waves, 2u);  // a restart wave was needed
  w.expect_outputs_match_interpreter(req, res);
}

TEST(CheckpointTest, ScopedRestartsRunNoMoreReplicasThanFullWaves) {
  // Same deterministic fault in both worlds; the only difference is
  // whether restart waves re-execute the whole unverified DAG or just
  // the disputed job's unverified-ancestor closure.
  TrackerConfig cfg;
  cfg.policies[5] = AdversaryPolicy{.commission_prob = 1.0};
  const auto base = baseline::cluster_bft(
      workloads::airline_top20_analysis(), "ckpt", 1, 2, 2);

  World off(cfg);
  off.load_airline();
  const auto res_off = off.controller->execute(base);
  ASSERT_TRUE(res_off.verified);

  World on(cfg);
  on.load_airline();
  const auto res_on = on.controller->execute(checkpointed(base));
  ASSERT_TRUE(res_on.verified);
  on.expect_outputs_match_interpreter(base, res_on);

  EXPECT_LE(res_on.metrics.runs, res_off.metrics.runs);
  for (const auto& [path, rel] : res_off.outputs) {
    EXPECT_EQ(res_on.outputs.at(path).sorted_rows(), rel.sorted_rows());
  }
}

TEST(CheckpointTest, AdaptiveAssuranceRunsStrictlyFewerReplicasFaultFree) {
  // Static 2f+1 pessimism vs adaptive f+1-first: with no faults the
  // adaptive session never escalates, so it executes strictly fewer job
  // replicas — and the verified outputs are bit-identical.
  const auto static_req = baseline::cluster_bft(
      workloads::weather_average_analysis(), "assur", 1, 3, 2);

  World st;
  st.load_weather();
  const auto res_static = st.controller->execute(static_req);
  ASSERT_TRUE(res_static.verified);

  World ad;
  ad.load_weather();
  const auto res_adaptive = ad.controller->execute(adaptive(static_req));
  ASSERT_TRUE(res_adaptive.verified);
  EXPECT_EQ(res_adaptive.metrics.escalations, 0u);
  EXPECT_LT(res_adaptive.metrics.runs, res_static.metrics.runs);
  ad.expect_outputs_match_interpreter(static_req, res_adaptive);
  for (const auto& [path, rel] : res_static.outputs) {
    EXPECT_EQ(res_adaptive.outputs.at(path).sorted_rows(),
              rel.sorted_rows());
  }
}

TEST(CheckpointTest, AdaptiveAssuranceEscalatesOnDisagreement) {
  TrackerConfig cfg;
  cfg.policies[3] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.load_weather();
  // f+1 = 2 initial chains; the deviant chain forces a 1-vs-1 tie, which
  // escalates the degree (journaled + audited) until a majority exists.
  const auto req = adaptive(baseline::cluster_bft(
      workloads::weather_average_analysis(), "assur", 1, 3, 2));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.metrics.escalations, 0u);
  EXPECT_GT(res.commission_faults_seen, 0u);
  w.expect_outputs_match_interpreter(req, res);
}

TEST(CheckpointTest, AdaptiveWithCheckpointsVerifiesUnderFault) {
  // Both knobs together: f+1-first chains, checkpointed boundaries, and
  // scoped escalation waves jumping the scheduler queue.
  TrackerConfig cfg;
  cfg.policies[5] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.load_airline();
  const auto req = adaptive(checkpointed(baseline::cluster_bft(
      workloads::airline_top20_analysis(), "both", 1, 3, 2)));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.metrics.escalations, 0u);
  w.expect_outputs_match_interpreter(req, res);
}

}  // namespace
}  // namespace clusterbft::core
