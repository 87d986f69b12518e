// Figure 9: latency of the Twitter Follower Analysis under Pure Pig,
// Single Execution (1 replica, digests computed) and BFT Execution
// (4 replicas, f=1, digests compared), for 1-3 verification points.
//
// Paper result: minimal overhead of 8%; worst case 9% / 14% / 19% for
// 1 / 2 / 3 verification points. We reproduce the shape: single-digit
// overhead for Single Execution, growing mildly with the number of
// points; BFT Execution costs ~4x CPU but its latency overhead over a
// single run stays bounded because the replicas run in parallel.
//
// A second section measures real wall-clock time (not simulated time) of
// the r=4 BFT run with a 1-thread vs. a 4-thread worker pool, as
// interleaved pairs reported by their medians: the parallel backend must
// change nothing but the wall clock.
#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_util.hpp"

using namespace clusterbft;
using namespace clusterbft::bench;

int main() {
  print_header("Twitter Follower Analysis latency", "Fig. 9");
  BenchJson sink("fig9");

  const std::string script = workloads::twitter_follower_analysis();

  auto fresh = [] {
    World w(paper_cluster());
    load_twitter(w);
    return w;
  };

  // Baseline: Pure Pig (no digests, no replication).
  double pure_latency = 0;
  {
    World w = fresh();
    const auto res = w.run(baseline::pure_pig(script, "pure"));
    pure_latency = res.metrics.latency_s;
    std::printf("%-28s latency %7.2f s   (baseline)\n", "Pure Pig",
                pure_latency);
    sink.add("pure_pig_latency", pure_latency, "sim_s");
  }

  std::printf("%-28s %10s %10s %12s %10s\n", "configuration", "latency(s)",
              "overhead", "cpu(s)", "replicas");
  for (std::size_t n : {1u, 2u, 3u}) {
    {
      World w = fresh();
      // Like the paper's bars: digests exactly at the n points (final
      // output digesting is the n-th point, not an extra implicit one).
      auto req = baseline::single_execution(script, "single", n);
      req.verify_final_output = false;
      const auto res = w.run(req);
      const double over = 100.0 * (res.metrics.latency_s / pure_latency - 1.0);
      std::printf("Single Execution, n=%zu       %10.2f %9.1f%% %12.2f %10d\n",
                  n, res.metrics.latency_s, over, res.metrics.cpu_seconds, 1);
      sink.add("single_n" + std::to_string(n) + "_latency",
               res.metrics.latency_s, "sim_s");
      sink.add("single_n" + std::to_string(n) + "_overhead", over, "percent");
    }
    {
      World w = fresh();
      auto req = baseline::cluster_bft(script, "bft", /*f=*/1, /*r=*/4, n);
      req.verify_final_output = false;
      const auto res = w.run(req);
      const double over = 100.0 * (res.metrics.latency_s / pure_latency - 1.0);
      std::printf("BFT Execution,    n=%zu       %10.2f %9.1f%% %12.2f %10d\n",
                  n, res.metrics.latency_s, over, res.metrics.cpu_seconds, 4);
      sink.add("bft_n" + std::to_string(n) + "_latency",
               res.metrics.latency_s, "sim_s");
      sink.add("bft_n" + std::to_string(n) + "_overhead", over, "percent");
      sink.add("bft_n" + std::to_string(n) + "_cpu", res.metrics.cpu_seconds,
               "sim_s");
    }
  }
  std::printf(
      "\npaper: Single Execution overhead ~8%%; worst case 9%%/14%%/19%% for\n"
      "1/2/3 verification points; BFT Execution latency stays close to\n"
      "Single Execution because replicas run in parallel.\n");

  // ------------------------------------------------------------------
  // Parallel task-execution engine: wall-clock speedup at r=4. Same
  // deployment, same request, same (bit-identical) results — only the
  // number of worker threads differs. Larger input than the sim section
  // so the run is dominated by map/reduce payload compute. One sample of
  // each side swings with the host's load, so the two pool sizes run as
  // interleaved pairs and the medians are reported.
  print_header("Parallel engine wall-clock, BFT r=4", "ISSUE 2 tentpole");

  auto pool_of = [](std::size_t threads) {
    cluster::TrackerConfig cfg = paper_cluster();
    cfg.threads = threads;
    return cfg;
  };
  auto par_req = baseline::cluster_bft(script, "par", /*f=*/1, /*r=*/4, 1);
  par_req.verify_final_output = false;
  auto timed_run = [&par_req](World& w) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)w.run(par_req);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  auto median = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
  };

  constexpr int kPairs = 5;
  World one(pool_of(1));
  World four(pool_of(4));
  load_twitter(one, /*edges=*/240000, /*users=*/16000);
  load_twitter(four, /*edges=*/240000, /*users=*/16000);
  std::vector<double> walls_one, walls_four, speedups;
  for (int pair = 0; pair < kPairs; ++pair) {
    walls_one.push_back(timed_run(one));
    walls_four.push_back(timed_run(four));
    speedups.push_back(walls_one.back() / walls_four.back());
    std::printf("pair %d  threads=1 wall %7.3f s   threads=4 wall %7.3f s\n",
                pair + 1, walls_one.back(), walls_four.back());
  }
  const double wall_one = median(walls_one);
  const double wall_four = median(walls_four);
  const double speedup = median(speedups);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("median of %d pairs: threads=1 %.3f s, threads=4 %.3f s, "
              "speedup %.2fx  (%u core(s) available)\n",
              kPairs, wall_one, wall_four, speedup, cores);
  if (cores < 2) {
    std::printf(
        "note: this machine exposes a single core; wall-clock speedup\n"
        "requires >=2 cores — the recorded figure measures pool overhead\n"
        "only. Re-run on multi-core hardware for the scaling result.\n");
  }
  sink.add("wall_clock_1thread", wall_one, "s", 0, 1);
  sink.add("wall_clock_4threads", wall_four, "s", 0, 4);
  sink.add("speedup_4threads", speedup, "x", 0, 4);
  sink.add("speedup_pairs", kPairs, "pairs");
  sink.add("hardware_concurrency", static_cast<double>(cores), "cores");

  // ------------------------------------------------------------------
  // Pipelined DAG execution: serial dispatch (pipeline_width=1, one job
  // per replica chain at a time) vs pipelined dispatch (unbounded width)
  // on the multi-store airline DAG, whose three branches give the scheduler
  // real job-level parallelism. Digests, outputs and every verification
  // decision are bit-identical between the two (asserted by
  // parallel_exec_test); only simulated latency and wall clock move.
  print_header("Pipelined DAG execution, BFT r=2", "ISSUE 4 tentpole");

  const std::string airline = workloads::airline_top20_analysis();
  auto piped_run = [&airline](std::size_t width, double* wall) {
    World w(paper_cluster());
    load_airline(w);
    auto req = baseline::cluster_bft(airline, "pipe", /*f=*/1, /*r=*/2, 2);
    req.pipeline_width = width;
    req.decision_latency_s = 2.0;  // one control-tier agreement round
    double best_wall = 1e300;
    double latency = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = w.run(req);
      const auto t1 = std::chrono::steady_clock::now();
      best_wall =
          std::min(best_wall, std::chrono::duration<double>(t1 - t0).count());
      latency = res.metrics.latency_s;
    }
    *wall = best_wall;
    return latency;
  };

  double wall_serial = 0;
  double wall_piped = 0;
  const double lat_serial = piped_run(/*width=*/1, &wall_serial);
  const double lat_piped = piped_run(/*width=*/0, &wall_piped);
  std::printf("serial    (width 1)  latency %7.2f sim_s   wall %7.3f s\n",
              lat_serial, wall_serial);
  std::printf("pipelined (width 0)  latency %7.2f sim_s   wall %7.3f s\n",
              lat_piped, wall_piped);
  std::printf("pipelining gain: %.2fx sim latency, %.2fx wall clock\n",
              lat_serial / lat_piped, wall_serial / wall_piped);
  sink.add("pipeline_serial_latency", lat_serial, "sim_s");
  sink.add("pipeline_piped_latency", lat_piped, "sim_s");
  sink.add("pipeline_serial_wall", wall_serial, "s", 0, 0);
  sink.add("pipeline_piped_wall", wall_piped, "s", 0, 0);
  sink.add("pipeline_sim_speedup", lat_serial / lat_piped, "x");
  return 0;
}
