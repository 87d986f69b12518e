// ThreadSanitizer smoke: exercises the parallel task-execution engine —
// the ThreadPool itself and the execution tracker with a worker pool (the
// one pool in src/) — and checks that the tracker's parallel
// results are bit-identical to its sequential engine's.
//
// Built as `tsan_smoke` in every configuration; the `tsan_smoke` ctest
// (label: analysis) runs it under -fsanitize=thread so a data race in the
// pool hand-off or the ordered result-commit aborts the suite even when
// the main build is unsanitized.
#include <cstdio>
#include <future>
#include <vector>

#include "baseline/presets.hpp"
#include "cluster/tracker.hpp"
#include "common/thread_pool.hpp"
#include "core/controller.hpp"
#include "protocol/seam.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"

namespace {

using namespace clusterbft;

constexpr std::size_t kThreads = 4;

bool pool_basics() {
  common::ThreadPool pool(kThreads);
  std::vector<std::future<std::size_t>> futures;
  futures.reserve(256);
  for (std::size_t i = 0; i < 256; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].get() != i * i) {
      std::fprintf(stderr, "tsan_smoke: FAIL: pool result %zu wrong\n", i);
      return false;
    }
  }
  return true;
}

core::ScriptResult tracker_run(std::size_t threads) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(4096);
  cluster::TrackerConfig cfg;
  cfg.num_nodes = 10;
  cfg.seed = 7;
  cfg.threads = threads;
  cfg.policies[2] = cluster::AdversaryPolicy{.commission_prob = 0.5};
  cluster::ExecutionTracker tracker(sim, dfs, cfg);
  workloads::TwitterConfig tw;
  tw.num_edges = 1500;
  tw.num_users = 200;
  dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
  protocol::LoopbackSeam seam(tracker);
  core::ClusterBft controller(sim, dfs, seam.transport, seam.programs);
  return controller.execute(baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "smoke", 1, 2, 1));
}

bool tracker_parallel_matches_sequential() {
  const auto seq = tracker_run(0);
  const auto par = tracker_run(kThreads);
  if (seq.metrics.latency_s != par.metrics.latency_s ||
      seq.metrics.cpu_seconds != par.metrics.cpu_seconds ||
      seq.metrics.digest_reports != par.metrics.digest_reports ||
      seq.suspects != par.suspects || seq.verified != par.verified) {
    std::fprintf(stderr,
                 "tsan_smoke: FAIL: tracker diverged under the pool\n");
    return false;
  }
  for (const auto& [path, rel] : seq.outputs) {
    if (!(par.outputs.at(path).rows() == rel.rows())) {
      std::fprintf(stderr, "tsan_smoke: FAIL: tracker output %s diverged\n",
                   path.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  if (!pool_basics()) return 1;
  if (!tracker_parallel_matches_sequential()) return 1;
  std::printf("tsan_smoke: OK: parallel engine bit-identical at %zu threads\n",
              kThreads);
  return 0;
}
