// Multi-cloud execution and cross-cloud failover: the Fig. 9 Twitter
// Follower Analysis workload on two independent clouds, fault-free as a
// reference, then under an injected whole-cloud outage. Two bars are
// enforced (nonzero exit fails the sweep and the `bench_multicloud`
// ctest):
//
//   * under a permanent outage of the home cloud, kSingleCloud must
//     fail honestly with pool-exhausted — the pinned policy never
//     silently migrates — while kSpread over the same two clouds and
//     the same fault must COMPLETE the workload via at least one
//     journaled cross-cloud failover;
//   * every verified cell must reproduce the reference interpreter's
//     outputs bit for bit, fault or no fault.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cloud.hpp"
#include "cluster/fault_plan.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "protocol/multicloud.hpp"

namespace clusterbft::bench {
namespace {

constexpr std::uint64_t kEdges = 30000;
constexpr std::uint64_t kUsers = 2000;

/// One multi-cloud deployment: n clouds of 16 nodes each sharing the
/// simulator and DFS, the Fig. 9 twitter edges preloaded.
struct CloudWorld {
  cluster::EventSim sim;
  mapreduce::Dfs dfs{256 << 10};
  std::vector<std::unique_ptr<cluster::Cloud>> clouds;
  std::unique_ptr<protocol::MultiCloudSeam> seam;
  std::unique_ptr<core::ClusterBft> controller;

  explicit CloudWorld(std::size_t n) {
    workloads::TwitterConfig tw;
    tw.num_edges = kEdges;
    tw.num_users = kUsers;
    dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
    std::vector<cluster::Cloud*> raw;
    for (std::size_t i = 0; i < n; ++i) {
      cluster::CloudProfile p;
      p.name = "cloud" + std::to_string(i);
      p.num_nodes = 16;
      p.slots_per_node = 3;
      p.seed = 7 + i;
      clouds.push_back(
          std::make_unique<cluster::Cloud>(i, sim, dfs, std::move(p)));
      raw.push_back(clouds.back().get());
    }
    seam = std::make_unique<protocol::MultiCloudSeam>(raw);
    controller = std::make_unique<core::ClusterBft>(
        sim, dfs, seam->transport, seam->programs);
  }

  core::ScriptResult run(const core::ClientRequest& req) {
    return controller->execute(req);
  }
};

core::ClientRequest fig9_request(const std::string& name,
                                 core::Placement placement) {
  core::ClientRequest req = baseline::cluster_bft(
      workloads::twitter_follower_analysis(), name, /*f=*/1, /*r=*/2, 1);
  req.placement = placement;
  return req;
}

void check_golden(const core::ScriptResult& res, const char* cell) {
  const auto plan =
      dataflow::parse_script(workloads::twitter_follower_analysis());
  workloads::TwitterConfig tw;
  tw.num_edges = kEdges;
  tw.num_users = kUsers;
  const auto golden = dataflow::interpret(
      plan, {{"twitter/edges", workloads::generate_twitter_edges(tw)}});
  for (const auto& [path, grel] : golden) {
    const auto it = res.outputs.find(path);
    if (it == res.outputs.end() ||
        it->second.sorted_rows() != grel.sorted_rows()) {
      std::fprintf(stderr, "bench_multicloud: %s output %s diverges from "
                   "the reference interpreter\n", cell, path.c_str());
      std::exit(1);
    }
  }
}

int bench_main() {
  print_header("Multi-cloud placement and cross-cloud failover",
               "ISSUE 10: Fig. 9 workload across independent clouds");
  BenchJson sink("multicloud");

  // ---- fault-free reference ---------------------------------------
  // The deployment of the outage cells below without the fault: what the
  // failover costs over. (Every cloud count and placement policy gave
  // the same latency and run count on this workload, so one row.)
  CloudWorld ref(2);
  const auto ref_res =
      ref.run(fig9_request("mc", core::Placement::kSpread));
  if (!ref_res.verified || ref_res.metrics.cloud_failovers != 0) {
    std::fprintf(stderr, "bench_multicloud: fault-free reference did not "
                 "verify cleanly (verified=%d failovers=%zu)\n",
                 ref_res.verified ? 1 : 0, ref_res.metrics.cloud_failovers);
    return 1;
  }
  check_golden(ref_res, "fault_free");
  std::printf("\nfault-free, 2 clouds x 16 nodes, spread: latency %.2f "
              "sim_s, %zu runs\n",
              ref_res.metrics.latency_s, ref_res.metrics.runs);
  sink.add("fault_free_latency", ref_res.metrics.latency_s, "sim_s");
  sink.add("fault_free_runs", static_cast<double>(ref_res.metrics.runs),
           "count");

  // ---- whole-cloud outage: the exit-code bar ----------------------
  // The same fault for both cells: cloud 0 (the home cloud of the
  // pinned policy) partitions permanently at t=0.2s, mid-chain.
  auto outage = [] {
    cluster::FaultPlan faults;
    faults.cloud_outages.push_back({0.2, 0 /* never heals */, 0});
    return faults;
  };
  auto tighten = [](core::ClientRequest req) {
    // Under a dead cloud the verifier timeout is the failover latency
    // floor; the default 300 s would dominate the latency column.
    req.verifier_timeout_s = 10.0;
    req.max_rerun_waves = 4;
    return req;
  };

  std::printf("\npermanent outage of cloud 0 at t=0.2s, 2 clouds:\n");

  CloudWorld pinned(2);
  pinned.seam->arm(pinned.sim, outage());
  const auto pinned_res = pinned.run(
      tighten(fig9_request("mc-pinned", core::Placement::kSingleCloud)));
  std::printf("  %-16s verified=%d failure=%s\n", "single_cloud",
              pinned_res.verified ? 1 : 0, to_string(pinned_res.failure));
  if (pinned_res.verified ||
      pinned_res.failure != core::FailureReason::kPoolExhausted ||
      !pinned_res.outputs.empty()) {
    std::fprintf(stderr, "bench_multicloud: BAR FAILED — kSingleCloud "
                 "under a dead home cloud must report pool-exhausted and "
                 "promote nothing (got verified=%d failure=%s)\n",
                 pinned_res.verified ? 1 : 0,
                 to_string(pinned_res.failure));
    return 1;
  }

  CloudWorld spread(2);
  spread.seam->arm(spread.sim, outage());
  const auto spread_res = spread.run(
      tighten(fig9_request("mc-failover", core::Placement::kSpread)));
  std::printf("  %-16s verified=%d latency %.2f sim_s failovers %zu\n",
              "spread", spread_res.verified ? 1 : 0,
              spread_res.metrics.latency_s,
              spread_res.metrics.cloud_failovers);
  if (!spread_res.verified || spread_res.metrics.cloud_failovers == 0) {
    std::fprintf(stderr, "bench_multicloud: BAR FAILED — kSpread must "
                 "complete the workload over the surviving cloud via "
                 "failover (verified=%d failovers=%zu)\n",
                 spread_res.verified ? 1 : 0,
                 spread_res.metrics.cloud_failovers);
    return 1;
  }
  check_golden(spread_res, "spread_outage");
  sink.add("outage_spread_latency", spread_res.metrics.latency_s, "sim_s");
  sink.add("outage_spread_failovers",
           static_cast<double>(spread_res.metrics.cloud_failovers), "count");
  sink.add("outage_pinned_pool_exhausted", 1.0, "bool");

  std::printf("\nbench_multicloud: both bars hold — failover completes "
              "the workload where the pinned policy reports pool "
              "exhaustion\n");
  return 0;
}

}  // namespace
}  // namespace clusterbft::bench

int main() { return clusterbft::bench::bench_main(); }
