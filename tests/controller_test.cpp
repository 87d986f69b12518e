// End-to-end ClusterBFT integration tests: scripts run through parser,
// graph analyzer, compiler, the simulated cluster, and the verifier —
// with and without Byzantine nodes — and the verified outputs are checked
// against the reference interpreter.
#include "core/controller.hpp"
#include "protocol/seam.hpp"

#include <gtest/gtest.h>

#include "baseline/presets.hpp"
#include "common/check.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
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
    cfg.num_nodes = cfg.num_nodes == 16 ? 16 : cfg.num_nodes;
    tracker = std::make_unique<ExecutionTracker>(sim, dfs, cfg);
    seam = std::make_unique<protocol::LoopbackSeam>(*tracker);
    controller = std::make_unique<ClusterBft>(sim, dfs, seam->transport,
                                              seam->programs);
  }

  void load_twitter(std::uint64_t edges = 2000) {
    workloads::TwitterConfig tw;
    tw.num_edges = edges;
    tw.num_users = 300;
    Relation rel = workloads::generate_twitter_edges(tw);
    inputs["twitter/edges"] = rel;
    dfs.write("twitter/edges", std::move(rel));
  }

  void load_airline(std::uint64_t flights = 3000) {
    workloads::AirlineConfig a;
    a.num_flights = flights;
    Relation rel = workloads::generate_flights(a);
    inputs["airline/flights"] = rel;
    dfs.write("airline/flights", std::move(rel));
  }

  void load_weather() {
    workloads::WeatherConfig w;
    w.num_stations = 150;
    w.readings_per_station = 10;
    Relation rel = workloads::generate_weather(w);
    inputs["weather/gsod"] = rel;
    dfs.write("weather/gsod", std::move(rel));
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

TrackerConfig with_commission_node(cluster::NodeId nid, double p = 1.0) {
  TrackerConfig cfg;
  cfg.policies[nid] = AdversaryPolicy{.commission_prob = p};
  return cfg;
}

TEST(ControllerTest, FaultFreeClusterBftVerifiesAllScripts) {
  struct Case {
    std::string script;
    void (World::*loader)(void);
  };
  World w;
  w.load_twitter();
  w.load_airline();
  w.load_weather();
  for (const std::string& script :
       {workloads::twitter_follower_analysis(),
        workloads::twitter_two_hop_analysis(),
        workloads::airline_top20_analysis(),
        workloads::weather_average_analysis()}) {
    const auto req = baseline::cluster_bft(script, "cbft", 1, 2, 2);
    const auto res = w.controller->execute(req);
    EXPECT_TRUE(res.verified);
    EXPECT_EQ(res.commission_faults_seen, 0u);
    EXPECT_EQ(res.metrics.waves, 2u);  // just the initial replicas
    w.expect_outputs_match_interpreter(req, res);
  }
}

TEST(ControllerTest, PurePigRunsOnceWithoutDigests) {
  World w;
  w.load_twitter();
  const auto req =
      baseline::pure_pig(workloads::twitter_follower_analysis(), "pure");
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.metrics.waves, 1u);
  EXPECT_EQ(res.metrics.digested, 0u);
  w.expect_outputs_match_interpreter(req, res);
}

TEST(ControllerTest, SingleExecutionComputesDigestsWithoutReplication) {
  World w;
  w.load_twitter();
  const auto req = baseline::single_execution(
      workloads::twitter_follower_analysis(), "single", 2);
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.metrics.waves, 1u);
  EXPECT_GT(res.metrics.digested, 0u);
}

TEST(ControllerTest, CommissionFaultTriggersRerunAndStillVerifies) {
  World w(with_commission_node(3));
  w.load_twitter();
  const auto req = baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "cbft", 1, 2, 1);
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.metrics.waves, 2u);  // at least one rerun wave
  EXPECT_GT(res.commission_faults_seen, 0u);
  w.expect_outputs_match_interpreter(req, res);
  // The faulty node is among the suspects.
  EXPECT_NE(std::find(res.suspects.begin(), res.suspects.end(), 3u),
            res.suspects.end());
}

TEST(ControllerTest, ThreeReplicasMaskOneFaultWithoutRerun) {
  World w(with_commission_node(5));
  w.load_twitter();
  const auto req = baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "cbft", 1, 3, 1);
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  // 2f+1 = 3 replicas: the two honest ones agree immediately; no rerun.
  EXPECT_EQ(res.metrics.waves, 3u);
  w.expect_outputs_match_interpreter(req, res);
}

TEST(ControllerTest, OmissionNodeTimesOutAndReruns) {
  TrackerConfig cfg;
  cfg.policies[2] = AdversaryPolicy{.omission_prob = 1.0};
  World w(cfg);
  w.load_twitter(800);
  auto req = baseline::cluster_bft(workloads::twitter_follower_analysis(),
                                   "cbft", 1, 2, 1);
  req.verifier_timeout_s = 30.0;  // fail fast in the simulation
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  w.expect_outputs_match_interpreter(req, res);
}

TEST(ControllerTest, DigestLiarIsCaught) {
  TrackerConfig cfg;
  cfg.policies[1] = AdversaryPolicy{.commission_prob = 1.0,
                                    .lie_in_digest = true};
  World w(cfg);
  w.load_twitter();
  const auto req = baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "cbft", 1, 2, 1);
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.commission_faults_seen, 0u);
  w.expect_outputs_match_interpreter(req, res);
}

TEST(ControllerTest, FullOutputBftAlsoSurvivesButReExecutesEverything) {
  // "P" reruns whole scripts; ClusterBFT reuses verified prefixes. On a
  // multi-job chain with an always-faulty node, C must run no more job
  // replicas than P.
  const auto script = workloads::weather_average_analysis();

  World wp(with_commission_node(3));
  wp.load_weather();
  auto preq = baseline::full_output_bft(script, "p", 1, 2);
  const auto pres = wp.controller->execute(preq);
  EXPECT_TRUE(pres.verified);
  wp.expect_outputs_match_interpreter(preq, pres);

  World wc(with_commission_node(3));
  wc.load_weather();
  auto creq = baseline::cluster_bft(script, "c", 1, 2, 2);
  const auto cres = wc.controller->execute(creq);
  EXPECT_TRUE(cres.verified);
  wc.expect_outputs_match_interpreter(creq, cres);

  EXPECT_LE(cres.metrics.runs, pres.metrics.runs + 1);
}

TEST(ControllerTest, ChunkedDigestsStillVerify) {
  World w;
  w.load_weather();
  auto req = baseline::cluster_bft(workloads::weather_average_analysis(),
                                   "cbft", 1, 2, 2, /*records_per_digest=*/100);
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  w.expect_outputs_match_interpreter(req, res);
}

TEST(ControllerTest, IndividualModeDigestsEveryVertex) {
  World w;
  w.load_twitter();
  const auto single_req = baseline::single_execution(
      workloads::twitter_follower_analysis(), "s1", 1);
  const auto res1 = w.controller->execute(single_req);
  const auto indiv_req = baseline::individual(
      workloads::twitter_follower_analysis(), "ind", 1, 2);
  const auto res2 = w.controller->execute(indiv_req);
  EXPECT_TRUE(res2.verified);
  // Individual digests strictly more data per replica than 1 point.
  EXPECT_GT(res2.metrics.digested / 2, res1.metrics.digested);
}

TEST(ControllerTest, GiveUpAfterMaxWavesWhenMajorityImpossible) {
  // Every node commission-faulty: no two replicas ever agree.
  TrackerConfig cfg;
  cfg.num_nodes = 16;
  for (cluster::NodeId n = 0; n < 16; ++n) {
    cfg.policies[n] = AdversaryPolicy{.commission_prob = 1.0};
  }
  World w(cfg);
  w.load_twitter(300);
  auto req = baseline::cluster_bft(workloads::twitter_follower_analysis(),
                                   "doomed", 1, 2, 1);
  req.max_rerun_waves = 2;
  const auto res = w.controller->execute(req);
  EXPECT_FALSE(res.verified);
  EXPECT_TRUE(res.outputs.empty());
}

TEST(ControllerTest, MissingInputFailsFast) {
  World w;
  const auto req = baseline::cluster_bft("a = LOAD 'absent' AS (x:long);\n"
                                         "STORE a INTO 'o';\n",
                                         "x", 1, 2, 1);
  EXPECT_THROW(w.controller->execute(req), InputError);
}

TEST(ControllerTest, SuspicionThresholdEvictsByzantineNode) {
  TrackerConfig cfg;
  cfg.num_nodes = 6;
  cfg.policies[2] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.load_twitter(2000);
  auto req = baseline::cluster_bft(workloads::twitter_follower_analysis(),
                                   "evict", 1, 2, 1);
  // Run a few scripts; the faulty node accumulates suspicion.
  for (int i = 0; i < 3; ++i) {
    const auto res = w.controller->execute(req);
    EXPECT_TRUE(res.verified);
  }
  const auto evicted = w.controller->apply_suspicion_threshold(0.5);
  EXPECT_NE(std::find(evicted.begin(), evicted.end(), 2u), evicted.end());
  // Once evicted, scripts verify with no further commission faults (node
  // 2 no longer receives tasks).
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.commission_faults_seen, 0u);
}

TEST(ControllerTest, BackToBackExecutionsAreIndependent) {
  World w;
  w.load_twitter();
  w.load_weather();
  const auto r1 = w.controller->execute(baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "a", 1, 2, 1));
  const auto r2 = w.controller->execute(baseline::cluster_bft(
      workloads::weather_average_analysis(), "b", 1, 2, 1));
  EXPECT_TRUE(r1.verified);
  EXPECT_TRUE(r2.verified);
  EXPECT_GT(r2.metrics.latency_s, 0.0);
}

TEST(ControllerTest, OptimizedPlanVerifiesIdentically) {
  World w;
  w.load_twitter();
  auto req = baseline::cluster_bft(
      "edges = LOAD 'twitter/edges' AS (user:long, follower:long);\n"
      "p = FOREACH edges GENERATE user, follower;\n"  // identity: elided
      "f1 = FILTER p BY follower IS NOT NULL;\n"
      "f2 = FILTER f1 BY user > 0 + 0;\n"             // merged + folded
      "g = GROUP f2 BY user;\n"
      "c = FOREACH g GENERATE group, COUNT(f2);\n"
      "STORE c INTO 'out/counts';\n",
      "opt", 1, 2, 1);
  req.optimize_plan = true;
  const auto res = w.controller->execute(req);
  ASSERT_TRUE(res.verified);
  auto plain = req;
  plain.optimize_plan = false;
  plain.name = "plain";
  const auto ref = w.controller->execute(plain);
  ASSERT_TRUE(ref.verified);
  EXPECT_EQ(res.outputs.at("out/counts").sorted_rows(),
            ref.outputs.at("out/counts").sorted_rows());
}

TEST(ControllerTest, MetricsScaleWithReplication) {
  World w;
  w.load_twitter();
  const auto r1 = w.controller->execute(
      baseline::pure_pig(workloads::twitter_follower_analysis(), "p1"));
  const auto r4 = w.controller->execute(baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "p4", 1, 4, 1));
  // 4 replicas cost ~4x the CPU, but wall latency far less than 4x.
  EXPECT_GT(r4.metrics.cpu_seconds, 3.0 * r1.metrics.cpu_seconds);
  EXPECT_LT(r4.metrics.latency_s, 2.5 * r1.metrics.latency_s);
  EXPECT_GE(r4.metrics.hdfs_write, 3 * r1.metrics.hdfs_write);
}

}  // namespace
}  // namespace clusterbft::core
