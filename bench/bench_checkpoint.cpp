// Adaptive checkpointing + dynamic replication ablation (ISSUE 9):
// sim-time latency and replica-run counts under an injected commission
// fault, 2x2 over {checkpointing off/on} x {static r / adaptive
// f+1-first}, plus the fault-free escalation pair. Two bars are
// enforced here (the harness exits non-zero when either regresses, so
// the `bench_checkpoint` ctest and tools/run_all_benches.sh fail):
//
//   * with the commission fault injected, checkpointing ON must beat
//     OFF by >= 1.3x sim latency at static r — restart waves rerun
//     only the disputed job's unverified-ancestor closure instead of
//     the whole chain;
//   * with no fault, adaptive assurance (f+1 chains first, escalate on
//     evidence) must execute strictly fewer job replicas than the
//     static 2f+1 configuration, with zero escalations.
//
// Every verified cell is additionally checked bit-for-bit against the
// reference interpreter, so a cell that gets faster by promoting
// unverified bytes fails the bench rather than flattering it.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"

namespace clusterbft::bench {
namespace {

// The scenario is deliberately small and fully deterministic: the
// default 16-node / 3-slot testbed and a 3000-flight airline_top20 run,
// with node 5 committing on every task it executes. Node 5 sits on the
// scheduling path of the mid-chain joins, so the fault always fires
// after downstream pipelined work has started — the late-mismatch case
// checkpointed rollback is designed for.
constexpr std::uint64_t kFlights = 3000;
constexpr std::size_t kFaultyNode = 5;

struct Outcome {
  double latency_s = 0;
  std::size_t runs = 0;
  std::size_t waves = 0;
  std::size_t checkpoints = 0;
  std::size_t escalations = 0;
  std::size_t faults = 0;
};

Outcome run_cell(bool faulty, bool checkpoints_on, bool adaptive_r,
                 std::size_t static_r) {
  cluster::TrackerConfig cfg;  // default 16-node / 3-slot testbed
  if (faulty) {
    cfg.policies[kFaultyNode] =
        cluster::AdversaryPolicy{.commission_prob = 1.0};
  }
  // 16 KiB blocks: enough map fan-out that every node in the default
  // testbed lands on the scheduling path, so the adversarial node's
  // faults actually fire mid-chain.
  World w(cfg, 16384);

  workloads::AirlineConfig a;
  a.num_flights = kFlights;
  dataflow::Relation rel = workloads::generate_flights(a);
  std::map<std::string, dataflow::Relation> inputs{{"airline/flights", rel}};
  w.dfs.write("airline/flights", std::move(rel));

  core::ClientRequest req = baseline::cluster_bft(
      workloads::airline_top20_analysis(), "ckpt_bench", 1, static_r, 2);
  req.adaptive_checkpoints = checkpoints_on;
  if (adaptive_r) req.assurance = core::Assurance::kAdaptive;

  const core::ScriptResult res = w.run(req);
  if (!res.verified) {
    std::fprintf(stderr, "bench_checkpoint: cell (faulty=%d ckpt=%d "
                 "adaptive=%d r=%zu) did not verify\n",
                 faulty ? 1 : 0, checkpoints_on ? 1 : 0, adaptive_r ? 1 : 0,
                 static_r);
    std::exit(1);
  }

  // Bit-identity bar: every ablation cell must reproduce the reference
  // interpreter's outputs exactly, fault or no fault.
  const auto plan = dataflow::parse_script(req.script);
  const auto golden = dataflow::interpret(plan, inputs);
  if (res.outputs.size() != golden.size()) {
    std::fprintf(stderr, "bench_checkpoint: output count mismatch\n");
    std::exit(1);
  }
  for (const auto& [path, grel] : golden) {
    const auto it = res.outputs.find(path);
    if (it == res.outputs.end() ||
        it->second.sorted_rows() != grel.sorted_rows()) {
      std::fprintf(stderr, "bench_checkpoint: output %s diverges from the "
                   "reference interpreter\n", path.c_str());
      std::exit(1);
    }
  }

  Outcome o;
  o.latency_s = res.metrics.latency_s;
  o.runs = res.metrics.runs;
  o.waves = res.metrics.waves;
  o.checkpoints = res.metrics.checkpoints;
  o.escalations = res.metrics.escalations;
  o.faults = res.commission_faults_seen;
  return o;
}

void report_cell(BenchJson& sink, const char* tag, const Outcome& o) {
  std::printf("  %-26s lat %6.2f sim_s  runs %3zu  waves %2zu  "
              "ckpts %2zu  esc %zu  faults %zu\n",
              tag, o.latency_s, o.runs, o.waves, o.checkpoints,
              o.escalations, o.faults);
  const std::string t(tag);
  sink.add(t + "_latency", o.latency_s, "sim_s");
  sink.add(t + "_runs", static_cast<double>(o.runs), "count");
  sink.add(t + "_checkpoints", static_cast<double>(o.checkpoints), "count");
  sink.add(t + "_escalations", static_cast<double>(o.escalations), "count");
}

int bench_main() {
  print_header("ClusterBFT adaptive checkpointing + dynamic replication",
               "ISSUE 9: restart-from-checkpoint rollback, f+1-first "
               "escalation");
  BenchJson sink("checkpoint");

  std::printf("\ninjected commission fault (node %zu, p=1.0), f=1:\n",
              kFaultyNode);
  const Outcome f_off_static = run_cell(true, false, false, 2);
  const Outcome f_on_static = run_cell(true, true, false, 2);
  const Outcome f_off_adapt = run_cell(true, false, true, 2);
  const Outcome f_on_adapt = run_cell(true, true, true, 2);
  report_cell(sink, "fault_static_ckpt_off", f_off_static);
  report_cell(sink, "fault_static_ckpt_on", f_on_static);
  report_cell(sink, "fault_adaptive_ckpt_off", f_off_adapt);
  report_cell(sink, "fault_adaptive_ckpt_on", f_on_adapt);

  std::printf("\nfault-free, static 2f+1 vs adaptive f+1-first:\n");
  const Outcome ff_static = run_cell(false, false, false, 3);
  const Outcome ff_adapt = run_cell(false, false, true, 3);
  report_cell(sink, "faultfree_static_2f1", ff_static);
  report_cell(sink, "faultfree_adaptive", ff_adapt);

  const double speedup = f_off_static.latency_s / f_on_static.latency_s;
  const std::size_t saved =
      ff_static.runs - std::min(ff_static.runs, ff_adapt.runs);
  std::printf("\n  checkpoint speedup under fault: %.2fx "
              "(bar: >= 1.30x)\n", speedup);
  std::printf("  adaptive runs saved fault-free: %zu of %zu "
              "(bar: strictly fewer)\n", saved, ff_static.runs);
  sink.add("fault_ckpt_speedup", speedup, "x");
  sink.add("faultfree_runs_saved", static_cast<double>(saved), "count");

  if (f_on_static.checkpoints == 0) {
    std::fprintf(stderr, "bench_checkpoint: BAR FAILED — the faulted "
                 "checkpointing cell materialised nothing\n");
    return 1;
  }
  if (speedup < 1.3) {
    std::fprintf(stderr, "bench_checkpoint: BAR FAILED — checkpointing "
                 "speedup %.2fx under the injected fault is below the "
                 "1.30x bar\n", speedup);
    return 1;
  }
  if (ff_adapt.runs >= ff_static.runs) {
    std::fprintf(stderr, "bench_checkpoint: BAR FAILED — adaptive "
                 "assurance ran %zu replicas fault-free, static 2f+1 ran "
                 "%zu (must be strictly fewer)\n",
                 ff_adapt.runs, ff_static.runs);
    return 1;
  }
  if (ff_adapt.escalations != 0) {
    std::fprintf(stderr, "bench_checkpoint: BAR FAILED — adaptive "
                 "assurance escalated %zu times with no fault injected\n",
                 ff_adapt.escalations);
    return 1;
  }
  std::printf("\nbench_checkpoint: both bars hold\n");
  return 0;
}

}  // namespace
}  // namespace clusterbft::bench

int main() { return clusterbft::bench::bench_main(); }
