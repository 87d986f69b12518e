#include "core/graph_analyzer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "workloads/scripts.hpp"

namespace clusterbft::core {
namespace {

using dataflow::LogicalPlan;
using dataflow::OpId;
using dataflow::OpKind;
using dataflow::parse_script;

/// The Fig. 4 shape: three loads of different sizes feeding filters, two
/// joins funnelling into one store.
LogicalPlan fig4_like() {
  return parse_script(
      "l1 = LOAD 'in1' AS (k:long, a:long);\n"
      "l2 = LOAD 'in2' AS (k:long, b:long);\n"
      "l3 = LOAD 'in3' AS (k:long, c:long);\n"
      "f1 = FILTER l1 BY a > 0;\n"
      "f2 = FILTER l2 BY b > 0;\n"
      "f3 = FILTER l3 BY c > 0;\n"
      "j1 = JOIN f2 BY k, f3 BY k;\n"
      "j2 = JOIN f1 BY k, j1 BY f2::k;\n"
      "STORE j2 INTO 'out';\n");
}

std::map<std::string, std::uint64_t> fig4_sizes() {
  // 10G : 20G : 30G, like the paper's annotations (scaled down).
  return {{"in1", 10ull << 20}, {"in2", 20ull << 20}, {"in3", 30ull << 20}};
}

TEST(InputRatioTest, LoadsSplitTotalInput) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  EXPECT_NEAR(ir[0], 10.0 / 60.0, 1e-9);
  EXPECT_NEAR(ir[1], 20.0 / 60.0, 1e-9);
  EXPECT_NEAR(ir[2], 30.0 / 60.0, 1e-9);
}

TEST(InputRatioTest, FiltersInheritParentRatio) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  // Level-1 ratios sum to 1, so each filter's normalised ratio equals its
  // parent's.
  EXPECT_NEAR(ir[3], ir[0], 1e-9);
  EXPECT_NEAR(ir[4], ir[1], 1e-9);
  EXPECT_NEAR(ir[5], ir[2], 1e-9);
}

TEST(InputRatioTest, JoinAccumulatesParents) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  // j1 merges f2 (.33) and f3 (.5); denominator is the whole level (1.0).
  EXPECT_NEAR(ir[6], (20.0 + 30.0) / 60.0, 1e-9);
  EXPECT_GT(ir[7], ir[6]);  // j2 funnels everything
}

TEST(InputRatioTest, MissingSizesFallBackToDeclared) {
  auto plan = fig4_like();
  for (OpId v : plan.loads()) plan.node(v).declared_input_bytes = 100;
  const auto ir = compute_input_ratios(plan, {});
  EXPECT_NEAR(ir[0], 1.0 / 3.0, 1e-9);
}

TEST(MarkerTest, PicksRequestedNumberOfDistinctPoints) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  for (std::size_t n : {1u, 2u, 3u}) {
    const auto marked =
        mark_verification_points(plan, ir, n, AdversaryModel::kWeak);
    EXPECT_EQ(marked.size(), n);
    std::set<OpId> unique(marked.begin(), marked.end());
    EXPECT_EQ(unique.size(), n);
  }
}

TEST(MarkerTest, NeverMarksLoadsOrStores) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 100, AdversaryModel::kWeak);
  for (OpId v : marked) {
    EXPECT_NE(plan.node(v).kind, OpKind::kLoad);
    EXPECT_NE(plan.node(v).kind, OpKind::kStore);
  }
}

TEST(MarkerTest, FirstPickIsAMidpointNotTheSink) {
  // The sink-feeding join duplicates the always-verified final output, so
  // the first marked point must sit strictly above it — the "mid point"
  // behaviour the paper's Fig. 4 walkthrough describes.
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 1, AdversaryModel::kWeak);
  ASSERT_EQ(marked.size(), 1u);
  // Not the sink-adjacent join (j2, too expensive to recompute, and its
  // digest duplicates the final output) and not a top-of-graph filter on
  // the smallest input (f1, too little data flows through it).
  EXPECT_NE(plan.node(marked[0]).alias, "j2");
  EXPECT_NE(plan.node(marked[0]).alias, "f1");
  const auto stores = plan.stores();
  EXPECT_GE(plan.distance(marked[0], stores[0]), 2u);
}

TEST(MarkerTest, StrongAdversaryRestrictsToJobBoundaries) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 100, AdversaryModel::kStrong);
  for (OpId v : marked) {
    EXPECT_TRUE(dataflow::is_blocking(plan.node(v).kind))
        << plan.node(v).to_string();
  }
  // Weak adversary has strictly more candidates (the filters).
  const auto weak =
      mark_verification_points(plan, ir, 100, AdversaryModel::kWeak);
  EXPECT_GT(weak.size(), marked.size());
}

TEST(MarkerTest, SecondPointSpreadsAwayFromFirst) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 2, AdversaryModel::kWeak);
  ASSERT_EQ(marked.size(), 2u);
  // The two points never sit adjacent to each other.
  EXPECT_GE(plan.distance(marked[0], marked[1]), 1u);
}

TEST(AnalyzeTest, AddsFinalOutputPoints) {
  const auto plan = parse_script(workloads::airline_top20_analysis());
  std::map<std::string, std::uint64_t> sizes{{"airline/flights", 1 << 20}};
  ClientRequest req;
  req.n = 2;
  req.records_per_digest = 123;
  const auto vps = analyze(plan, sizes, req);
  // 2 internal + 3 stores.
  EXPECT_EQ(vps.size(), 5u);
  for (const auto& vp : vps) EXPECT_EQ(vp.records_per_digest, 123u);
}

TEST(AnalyzeTest, PurePigHasNoPoints) {
  const auto plan = parse_script(workloads::twitter_follower_analysis());
  ClientRequest req;
  req.n = 0;
  req.verify_final_output = false;
  EXPECT_TRUE(analyze(plan, {{"twitter/edges", 1 << 20}}, req).empty());
}

TEST(AnalyzeTest, NCappedByCandidateCount) {
  const auto plan = parse_script(workloads::twitter_follower_analysis());
  ClientRequest req;
  req.n = 1000;  // "individual" mode asks for everything
  req.verify_final_output = false;
  const auto vps = analyze(plan, {{"twitter/edges", 1 << 20}}, req);
  EXPECT_GT(vps.size(), 0u);
  EXPECT_LT(vps.size(), plan.size());
}

// ---- checkpoint cost model -----------------------------------------------

struct CompiledDag {
  mapreduce::JobDag dag;
  std::vector<bool> gating;
};

CompiledDag compile_fig4(const std::map<std::string, std::uint64_t>& sizes) {
  const auto plan = fig4_like();
  ClientRequest req;
  req.n = 2;
  const auto vps = analyze(plan, sizes, req);
  mapreduce::CompileOptions copts;
  copts.sid_prefix = "ckpt";
  CompiledDag out{mapreduce::compile(plan, vps, copts), {}};
  out.gating.assign(out.dag.jobs.size(), false);
  for (std::size_t j = 0; j < out.dag.jobs.size(); ++j) {
    out.gating[j] = !out.dag.jobs[j].vps.empty() &&
                    !out.dag.jobs[j].is_final_store;
  }
  return out;
}

TEST(CheckpointModelTest, EstimatesPassInputBytesThrough) {
  const auto sizes = fig4_sizes();
  const auto c = compile_fig4(sizes);
  const auto est = estimate_job_output_bytes(c.dag, sizes);
  ASSERT_EQ(est.size(), c.dag.jobs.size());
  std::uint64_t total_in = 0;
  for (const auto& [path, bytes] : sizes) total_in += bytes;
  // Pass-through upper bound: every estimate is positive and no job can
  // exceed the total input volume (the fig4 DAG is a funnel).
  for (std::size_t j = 0; j < est.size(); ++j) {
    EXPECT_GT(est[j], 0u) << "job " << j;
    EXPECT_LE(est[j], total_in) << "job " << j;
  }
  // The final store consumes everything: its estimate is the total.
  for (const mapreduce::MRJobSpec& spec : c.dag.jobs) {
    if (spec.is_final_store) {
      EXPECT_EQ(est[spec.job_index], total_in);
    }
  }
}

TEST(CheckpointModelTest, SelectsOnlyGatingJobsAndIsDeterministic) {
  const auto sizes = fig4_sizes();
  const auto c = compile_fig4(sizes);
  const auto depth = pipeline_depths(c.dag);
  const auto a = select_checkpoints(c.dag, sizes, depth, c.gating, 0.0);
  const auto b = select_checkpoints(c.dag, sizes, depth, c.gating, 0.0);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.est_bytes, b.est_bytes);
  bool any = false;
  for (std::size_t j = 0; j < a.selected.size(); ++j) {
    if (!a.selected[j]) continue;
    any = true;
    EXPECT_TRUE(c.gating[j]) << "non-gating job " << j << " selected";
  }
  // Even at zero suspicion the 0.25 risk floor beats the 0.1 write cost
  // for mid-chain points, so something is checkpointed.
  EXPECT_TRUE(any);
}

TEST(CheckpointModelTest, HigherSuspicionNeverSelectsLess) {
  const auto sizes = fig4_sizes();
  const auto c = compile_fig4(sizes);
  const auto depth = pipeline_depths(c.dag);
  const auto calm = select_checkpoints(c.dag, sizes, depth, c.gating, 0.0);
  const auto hot = select_checkpoints(c.dag, sizes, depth, c.gating, 1.0);
  for (std::size_t j = 0; j < calm.selected.size(); ++j) {
    if (calm.selected[j]) {
      EXPECT_TRUE(hot.selected[j])
          << "job " << j << " dropped when risk rose";
    }
  }
}

}  // namespace
}  // namespace clusterbft::core
