// Tests that the distributed task runtime computes the same function as
// the reference interpreter, partition by partition, and that its digests
// behave as the verifier requires.
#include "mapreduce/task.hpp"

#include <gtest/gtest.h>

#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/dfs.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"

namespace clusterbft::mapreduce {
namespace {

using dataflow::LogicalPlan;
using dataflow::Relation;
using dataflow::Tuple;
using dataflow::parse_script;

struct Compiled {
  LogicalPlan plan;
  JobDag dag;
};

Compiled compile_with_vps(const std::string& script,
                          std::vector<VerificationPoint> vps = {}) {
  Compiled c{parse_script(script), {}};
  CompileOptions opts;
  opts.sid_prefix = "t";
  c.dag = compile(c.plan, vps, opts);
  return c;
}

/// Run one job fully in-process: all map tasks over DFS splits, shuffle,
/// all reduce tasks; returns the concatenated output.
Relation run_job(const LogicalPlan& plan, const MRJobSpec& job, Dfs& dfs,
                 std::vector<DigestReport>* digests = nullptr) {
  std::vector<std::vector<Relation>> shuffle(job.num_reducers);
  int max_tag = 0;
  for (const MapBranch& b : job.branches) max_tag = std::max(max_tag, b.tag);
  for (auto& p : shuffle) p.resize(static_cast<std::size_t>(max_tag) + 1);

  Relation direct;
  bool direct_init = false;
  for (std::size_t bi = 0; bi < job.branches.size(); ++bi) {
    const MapBranch& b = job.branches[bi];
    for (std::size_t s = 0; s < dfs.num_splits(b.input_path); ++s) {
      auto res = run_map_task(plan, job, bi, s, dfs.read_split(b.input_path, s));
      if (digests) {
        digests->insert(digests->end(), res.digests.begin(),
                        res.digests.end());
      }
      if (job.map_only()) {
        if (!direct_init) {
          direct = Relation(res.direct_output.schema());
          direct_init = true;
        }
        for (Tuple& t : res.direct_output.rows()) direct.add(std::move(t));
      } else {
        for (std::size_t p = 0; p < res.partitions.size(); ++p) {
          auto& bucket = shuffle[p][static_cast<std::size_t>(b.tag)];
          if (bucket.schema().size() == 0) {
            bucket = Relation(res.partitions[p].schema());
          }
          for (Tuple& t : res.partitions[p].rows()) bucket.add(std::move(t));
        }
      }
    }
  }
  if (job.map_only()) return direct;

  Relation out;
  bool out_init = false;
  for (std::size_t p = 0; p < job.num_reducers; ++p) {
    for (auto& bucket : shuffle[p]) {
      if (bucket.schema().size() == 0) {
        // Give schema-less (empty) buckets the map-side schema of tag 0.
        bucket = Relation(plan.node(job.branches[0].map_ops.empty()
                                        ? job.branches[0].source_vertex
                                        : job.branches[0].map_ops.back())
                              .schema);
      }
    }
    auto res = run_reduce_task(plan, job, p, shuffle[p]);
    if (digests) {
      digests->insert(digests->end(), res.digests.begin(), res.digests.end());
    }
    if (!out_init) {
      out = Relation(res.output.schema());
      out_init = true;
    }
    for (Tuple& t : res.output.rows()) out.add(std::move(t));
  }
  return out;
}

/// Execute the whole DAG through the task runtime.
std::map<std::string, Relation> run_dag(const Compiled& c, Dfs& dfs) {
  std::map<std::string, Relation> stores;
  for (const MRJobSpec& job : c.dag.jobs) {
    Relation out = run_job(c.plan, job, dfs);
    dfs.write(job.output_path, out);
    if (job.is_final_store) stores[job.output_path] = std::move(out);
  }
  return stores;
}

TEST(TaskTest, ShufflePartitionIsDeterministicAndInRange) {
  dataflow::OpNode group;
  group.kind = dataflow::OpKind::kGroup;
  group.group_keys = {0};
  RowBytes buf;
  for (std::int64_t k = 0; k < 100; ++k) {
    const Tuple t({dataflow::Value(k)});
    const std::size_t p = shuffle_partition(group, 0, t, 7, buf);
    EXPECT_LT(p, 7u);
    RowBytes fresh;
    EXPECT_EQ(p, shuffle_partition(group, 0, t, 7, fresh));
  }
}

TEST(TaskTest, OrderAlwaysPartitionZero) {
  dataflow::OpNode order;
  order.kind = dataflow::OpKind::kOrder;
  RowBytes buf;
  EXPECT_EQ(shuffle_partition(order, 0, Tuple({dataflow::Value("x")}), 1, buf),
            0u);
}

TEST(TaskTest, EveryScriptMatchesInterpreter) {
  workloads::TwitterConfig tw;
  tw.num_edges = 3000;
  tw.num_users = 500;
  const Relation edges = workloads::generate_twitter_edges(tw);

  for (const std::string& script :
       {workloads::twitter_follower_analysis(),
        workloads::twitter_two_hop_analysis()}) {
    Dfs dfs(4096);
    dfs.write("twitter/edges", edges);
    const Compiled c = compile_with_vps(script);
    const auto distributed = run_dag(c, dfs);
    const auto golden =
        dataflow::interpret(c.plan, {{"twitter/edges", edges}});
    ASSERT_EQ(distributed.size(), golden.size());
    for (const auto& [path, rel] : golden) {
      EXPECT_EQ(distributed.at(path).sorted_rows(), rel.sorted_rows())
          << path << " in " << script.substr(0, 30);
    }
  }
}

TEST(TaskTest, ReplicaDigestsIdenticalRegardlessOfShuffleOrder) {
  workloads::TwitterConfig tw;
  tw.num_edges = 2000;
  const Relation edges = workloads::generate_twitter_edges(tw);
  Dfs dfs(2048);
  dfs.write("twitter/edges", edges);

  const Compiled c0 = compile_with_vps(workloads::twitter_follower_analysis());
  // Place a verification point on the job's output vertex.
  Compiled c = compile_with_vps(workloads::twitter_follower_analysis(),
                                {{c0.dag.jobs[0].output_vertex, 0}});

  std::vector<DigestReport> d1, d2;
  run_job(c.plan, c.dag.jobs[0], dfs, &d1);
  run_job(c.plan, c.dag.jobs[0], dfs, &d2);
  ASSERT_FALSE(d1.empty());
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].key, d2[i].key);
    EXPECT_EQ(d1[i].digest, d2[i].digest);
  }
}

TEST(TaskTest, CorruptInputChangesDigest) {
  workloads::TwitterConfig tw;
  tw.num_edges = 500;
  Relation edges = workloads::generate_twitter_edges(tw);
  Dfs honest(1 << 20), corrupt(1 << 20);
  honest.write("twitter/edges", edges);
  edges.rows()[7].at(0) = dataflow::Value(std::int64_t{999999});
  corrupt.write("twitter/edges", edges);

  const Compiled c0 = compile_with_vps(workloads::twitter_follower_analysis());
  Compiled c = compile_with_vps(workloads::twitter_follower_analysis(),
                                {{c0.dag.jobs[0].output_vertex, 0}});
  std::vector<DigestReport> dh, dc;
  run_job(c.plan, c.dag.jobs[0], honest, &dh);
  run_job(c.plan, c.dag.jobs[0], corrupt, &dc);
  bool any_differs = false;
  ASSERT_EQ(dh.size(), dc.size());
  for (std::size_t i = 0; i < dh.size(); ++i) {
    if (!(dh[i].digest == dc[i].digest)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(TaskTest, ChunkedDigestsLocaliseCorruption) {
  // With d = 50 records per digest, corrupting one record flips only the
  // digests of the chunk(s) containing it — the approximation-accuracy
  // mechanism of §6.4.
  workloads::TwitterConfig tw;
  tw.num_edges = 400;
  tw.malformed_rate = 0;
  Relation edges = workloads::generate_twitter_edges(tw);
  Dfs honest(1 << 20), corrupt(1 << 20);
  honest.write("twitter/edges", edges);
  edges.rows()[5].at(0) = dataflow::Value(std::int64_t{424242});
  corrupt.write("twitter/edges", edges);

  const std::string script =
      "a = LOAD 'twitter/edges' AS (user:long, follower:long);\n"
      "STORE a INTO 'out/copy';\n";
  const Compiled c0 = compile_with_vps(script);
  Compiled c = compile_with_vps(script, {{0, 50}});

  std::vector<DigestReport> dh, dc;
  run_job(c.plan, c.dag.jobs[0], honest, &dh);
  run_job(c.plan, c.dag.jobs[0], corrupt, &dc);
  ASSERT_EQ(dh.size(), dc.size());
  ASSERT_GT(dh.size(), 2u);  // multiple chunks
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < dh.size(); ++i) {
    if (!(dh[i].digest == dc[i].digest)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 1u);
}

TEST(TaskTest, MetricsAccountBytesAndRecords) {
  workloads::TwitterConfig tw;
  tw.num_edges = 200;
  const Relation edges = workloads::generate_twitter_edges(tw);
  Dfs dfs(1 << 20);
  dfs.write("twitter/edges", edges);
  const Compiled c = compile_with_vps(workloads::twitter_follower_analysis());
  const MRJobSpec& job = c.dag.jobs[0];
  auto res = run_map_task(c.plan, job, 0, 0, dfs.read_split("twitter/edges", 0));
  EXPECT_EQ(res.metrics.records_in, 200u);
  EXPECT_GT(res.metrics.input_bytes, 0u);
  EXPECT_GT(res.metrics.output_bytes, 0u);
  EXPECT_EQ(res.metrics.digested_bytes, 0u);  // no VPs requested
  std::size_t shuffled = 0;
  for (const Relation& p : res.partitions) shuffled += p.size();
  EXPECT_EQ(shuffled, res.metrics.records_out);
}

}  // namespace
}  // namespace clusterbft::mapreduce
