// Shuffle-boundary parity: each side of the shuffle reads each row once,
// and must produce exactly what the separate passes it replaced produced.
//
// - Map side: run_map_task serialises each output row once, and feeds the
//   tail vertex's digest, the partition hash and the partition byte count
//   from those bytes. It is held to a reference built from the separate
//   pieces — shuffle_partition on the tuple, serialize_tuple_into and a
//   ChunkedDigester over the same rows — for every blocking kind (GROUP,
//   JOIN and COGROUP on both tags, DISTINCT, ORDER, LIMIT), 1, 2 and 4
//   reducers, and random scripts. The partition index is also checked
//   against the key hash taken on a separately built key serialisation
//   (tuple_cols_hash / tuple_key_hash).
// - Reduce side: the packed GROUP (two long columns) against a test-side
//   GROUP that groups by canonical key bytes and sorts each bag fully in
//   canonical order; extreme longs, duplicates, one giant bag, one row per
//   bag, and a row that forces the generic path first, in the middle and
//   last.
// - DISTINCT collapses only byte-identical rows, so the interpreter and
//   the MapReduce runner agree whatever the reducer count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/digest.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/ops_eval.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/local_runner.hpp"
#include "mapreduce/task.hpp"
#include "random_script.hpp"

namespace clusterbft::mapreduce {
namespace {

using dataflow::LogicalPlan;
using dataflow::OpId;
using dataflow::OpKind;
using dataflow::OpNode;
using dataflow::Relation;
using dataflow::Tuple;
using dataflow::Value;
using L = std::int64_t;

/// The partition index from a key serialisation built on its own: the key
/// columns' bytes concatenated in key-column order (the whole row for
/// DISTINCT), hashed with tuple_cols_hash / tuple_key_hash.
std::size_t key_hash_partition(const OpNode& blocking, int tag, const Tuple& t,
                               std::size_t reducers) {
  if (reducers == 1) return 0;
  std::string buf;
  switch (blocking.kind) {
    case OpKind::kGroup:
      return dataflow::tuple_cols_hash(t, blocking.group_keys, buf) % reducers;
    case OpKind::kJoin:
    case OpKind::kCogroup:
      return dataflow::tuple_cols_hash(
                 t, tag == 0 ? blocking.left_keys : blocking.right_keys, buf) %
             reducers;
    case OpKind::kDistinct:
      return dataflow::tuple_key_hash(t, 0) % reducers;
    default:
      return 0;
  }
}

/// What one map task must report, from the separate passes.
struct Reference {
  std::vector<std::vector<std::string>> rows;  ///< [partition] row bytes
  std::vector<std::uint64_t> bytes;            ///< [partition]
  std::vector<DigestReport> digests;
  std::uint64_t digested_bytes = 0;
};

Reference reference_map_task(const LogicalPlan& plan, const MRJobSpec& job,
                             std::size_t branch, std::size_t split,
                             const Relation& split_rows) {
  const MapBranch& br = job.branches[branch];
  Reference ref;
  const auto digest = [&](OpId vertex, const Relation& stream) {
    for (const VerificationPoint& vp : job.vps) {
      if (vp.vertex != vertex) continue;
      crypto::ChunkedDigester digester(vp.records_per_digest);
      std::string buf;
      for (const Tuple& t : stream.rows()) {
        dataflow::serialize_tuple_into(t, buf);
        ref.digested_bytes += buf.size();
        digester.add_record(buf);
      }
      for (const crypto::ChunkDigest& cd : digester.finish()) {
        DigestReport r;
        r.key = DigestKey{job.sid, vertex, false, branch, split,
                          cd.chunk_index};
        r.digest = cd.digest;
        r.record_count = cd.record_count;
        ref.digests.push_back(r);
      }
    }
  };
  Relation cur = split_rows;
  digest(br.source_vertex, cur);
  for (const OpId op : br.map_ops) {
    if (plan.node(op).kind != OpKind::kUnion) {
      std::vector<Relation> ins;
      ins.push_back(cur);
      cur = dataflow::eval_op(plan.node(op), std::move(ins));
    }
    digest(op, cur);
  }
  const OpNode& blocking = plan.node(*job.blocking);
  ref.rows.resize(job.num_reducers);
  ref.bytes.assign(job.num_reducers, 0);
  RowBytes buf;
  for (const Tuple& t : cur.rows()) {
    const std::size_t p =
        shuffle_partition(blocking, br.tag, t, job.num_reducers, buf);
    EXPECT_EQ(p, key_hash_partition(blocking, br.tag, t, job.num_reducers));
    std::string bytes;
    dataflow::serialize_tuple_into(t, bytes);
    ref.bytes[p] += bytes.size();
    ref.rows[p].push_back(std::move(bytes));
  }
  return ref;
}

/// Map task `branch`/`split` of `job` against the reference.
void expect_map_task_matches(const LogicalPlan& plan, const MRJobSpec& job,
                             std::size_t branch, std::size_t split,
                             const Relation& split_rows) {
  const Reference ref = reference_map_task(plan, job, branch, split, split_rows);
  const MapTaskResult got = run_map_task(plan, job, branch, split, split_rows);
  ASSERT_EQ(got.partitions.size(), job.num_reducers);
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < job.num_reducers; ++p) {
    const Relation& part = got.partitions[p];
    ASSERT_EQ(part.size(), ref.rows[p].size()) << "partition " << p;
    for (std::size_t i = 0; i < part.size(); ++i) {
      ASSERT_EQ(dataflow::serialize_tuple(part.rows()[i]), ref.rows[p][i]);
    }
    EXPECT_EQ(part.byte_size(), ref.bytes[p]);
    total += ref.bytes[p];
  }
  EXPECT_EQ(got.metrics.output_bytes, total);
  EXPECT_EQ(got.digests, ref.digests);
  EXPECT_EQ(got.metrics.digested_bytes, ref.digested_bytes);
}

/// Every map task of every shuffle job whose branches read a LOAD of 'ta',
/// over `table` cut into three splits, against the reference; every
/// consumed vertex carries a point. Returns the number of tasks checked.
std::size_t expect_fused_boundary_matches(const LogicalPlan& plan,
                                          const Relation& table,
                                          std::size_t reducers,
                                          std::uint64_t records_per_digest) {
  std::vector<VerificationPoint> vps;
  for (const OpNode& n : plan.nodes()) {
    const bool consumed = std::any_of(
        plan.nodes().begin(), plan.nodes().end(), [&n](const OpNode& m) {
          return std::find(m.inputs.begin(), m.inputs.end(), n.id) !=
                 m.inputs.end();
        });
    if (consumed) vps.push_back({n.id, records_per_digest});
  }
  CompileOptions opts;
  opts.default_reducers = reducers;
  const JobDag dag = compile(plan, vps, opts);
  std::size_t checked = 0;
  for (const MRJobSpec& job : dag.jobs) {
    if (job.map_only()) continue;
    for (std::size_t b = 0; b < job.branches.size(); ++b) {
      if (plan.node(job.branches[b].source_vertex).kind != OpKind::kLoad) {
        continue;
      }
      for (std::size_t split = 0; split < 3; ++split) {
        SCOPED_TRACE("job " + std::to_string(job.job_index) + " branch " +
                     std::to_string(b) + " split " + std::to_string(split));
        std::vector<Tuple> rows;
        for (std::size_t r = split; r < table.size(); r += 3) {
          rows.push_back(table.rows()[r]);
        }
        expect_map_task_matches(plan, job, b, split,
                                Relation(table.schema(), std::move(rows)));
        ++checked;
      }
    }
  }
  return checked;
}

TEST(ShuffleParityTest, FusedMapBoundaryMatchesSeparatePassesForEveryBlockingKind) {
  const std::string load =
      "a = LOAD 'ta' AS (k:long, v:long, s:chararray);\n"
      "fa = FILTER a BY v IS NOT NULL;\n";
  const std::string right =
      "b = LOAD 'ta' AS (k2:long, v2:long, s2:chararray);\n"
      "fb = FILTER b BY k2 > 2;\n";
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"GROUP", "x = GROUP fa BY k;\n"
                "y = FOREACH x GENERATE group, COUNT(fa);\n"},
      // Key columns out of field order: the hash follows key order.
      {"GROUP (s, k)", "x = GROUP fa BY (s, k);\n"
                       "y = FOREACH x GENERATE FLATTEN(group), COUNT(fa);\n"},
      {"GROUP on LOAD", "x = GROUP a BY v;\n"
                        "y = FOREACH x GENERATE group, COUNT(a);\n"},
      {"JOIN", right + "y = JOIN fa BY k, fb BY v2;\n"},
      {"JOIN (s, k)", right + "y = JOIN fa BY (s, k), fb BY (s2, k2);\n"},
      {"COGROUP", right + "x = COGROUP fa BY k, fb BY v2;\n"
                  "y = FOREACH x GENERATE group, COUNT(fa), COUNT(fb);\n"},
      {"DISTINCT", "y = DISTINCT fa;\n"},
      {"DISTINCT on LOAD", "y = DISTINCT a;\n"},
      {"ORDER", "y = ORDER fa BY v DESC;\n"},
      {"LIMIT", "y = LIMIT fa 17;\n"},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Relation table = testgen::random_table(rng, 120 + 40 * seed);
    for (const auto& [name, body] : shapes) {
      const LogicalPlan plan =
          dataflow::parse_script(load + body + "STORE y INTO 'out';\n");
      for (const std::size_t reducers : {1u, 2u, 4u}) {
        for (const std::uint64_t d : {0u, 1u, 7u}) {
          SCOPED_TRACE(name + " reducers " + std::to_string(reducers) +
                       " d " + std::to_string(d));
          EXPECT_GT(expect_fused_boundary_matches(plan, table, reducers, d),
                    0u);
        }
      }
    }
  }
}

class FusedBoundaryRandomScript
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusedBoundaryRandomScript, MatchesSeparatePasses) {
  Rng rng(GetParam());
  const Relation table = testgen::random_table(rng, 200);
  const std::string script = testgen::random_script(rng);
  SCOPED_TRACE(script);
  const LogicalPlan plan = dataflow::parse_script(script);
  for (const std::size_t reducers : {1u, 2u, 4u}) {
    SCOPED_TRACE("reducers " + std::to_string(reducers));
    expect_fused_boundary_matches(plan, table, reducers, 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedBoundaryRandomScript,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(ShuffleParityTest, RowBytesAreTheCanonicalBytesWithFieldSpans) {
  const Tuple t({Value(L{-12}), Value::null(), Value("a:b"), Value(2.5),
                 Value::tuple_of({Value(L{1}), Value("x")})});
  RowBytes row;
  row.assign(Tuple({Value("stale contents")}));
  row.assign(t);
  EXPECT_EQ(row.bytes, dataflow::serialize_tuple(t));
  ASSERT_EQ(row.fields(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::string field;
    t.at(i).serialize(field);
    EXPECT_EQ(row.field(i), field);
  }
  row.assign(Tuple());
  EXPECT_EQ(row.fields(), 0u);
  EXPECT_TRUE(row.bytes.empty());
}

}  // namespace
}  // namespace clusterbft::mapreduce

namespace clusterbft::dataflow {
namespace {

using L = std::int64_t;
constexpr L kMin = std::numeric_limits<L>::min();
constexpr L kMax = std::numeric_limits<L>::max();

std::string bytes(const Relation& r) {
  std::string out;
  for (const Tuple& t : r.rows()) {
    out += serialize_tuple(t);
    out += '\n';
  }
  return out;
}

OpNode group_op(std::size_t key) {
  OpNode op;
  op.kind = OpKind::kGroup;
  op.group_keys = {key};
  op.schema = Schema::of({{"group", ValueType::kLong},
                          {"bag", ValueType::kBag}});
  return op;
}

/// GROUP by canonical key bytes, groups in canonical key order, each bag
/// fully sorted by canonical_order: the bytes any GROUP path must emit.
std::string reference_group(const Relation& in, std::size_t key) {
  std::map<std::string, std::vector<Tuple>> by_bytes;
  for (const Tuple& t : in.rows()) {
    std::string k;
    t.at(key).serialize(k);
    by_bytes[k].push_back(t);
  }
  std::vector<std::vector<Tuple>*> groups;
  for (auto& [k, rows] : by_bytes) groups.push_back(&rows);
  std::sort(groups.begin(), groups.end(), [key](const auto* a, const auto* b) {
    return canonical_order(a->front().at(key), b->front().at(key)) < 0;
  });
  std::string out;
  for (std::vector<Tuple>* rows : groups) {
    std::sort(rows->begin(), rows->end(), [](const Tuple& a, const Tuple& b) {
      return canonical_order(a, b) < 0;
    });
    const Value k = rows->front().at(key);
    out += serialize_tuple(Tuple(
        {k, Value(std::make_shared<const std::vector<Tuple>>(*rows))}));
    out += '\n';
  }
  return out;
}

Relation long_pairs(const std::vector<std::pair<L, L>>& pairs) {
  Relation r(Schema::of({{"k", ValueType::kLong}, {"v", ValueType::kLong}}));
  for (const auto& [k, v] : pairs) r.add(Tuple({Value(k), Value(v)}));
  return r;
}

void expect_reference_group(const Relation& in, Rng& rng) {
  for (const std::size_t key : {0u, 1u}) {
    SCOPED_TRACE("key column " + std::to_string(key));
    const std::string want = reference_group(in, key);
    EXPECT_EQ(bytes(eval_group(group_op(key), in)), want);
    std::vector<Tuple> rows = in.rows();
    rng.shuffle(rows);
    EXPECT_EQ(bytes(eval_group(group_op(key), Relation(in.schema(), rows))),
              want);
  }
}

TEST(PackedGroupTest, MatchesReferenceOnExtremeAndDuplicateLongs) {
  const std::vector<L> extremes = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<L, L>> pairs;
    for (std::size_t i = 0; i < 300 + 100 * seed; ++i) {
      const auto pick = [&] {
        return rng.chance(0.3) ? extremes[rng.next_below(extremes.size())]
                               : rng.uniform_int(-20, 20);
      };
      pairs.emplace_back(pick(), pick());
      if (rng.chance(0.2)) pairs.push_back(pairs.back());  // duplicate row
    }
    expect_reference_group(long_pairs(pairs), rng);
  }
}

TEST(PackedGroupTest, OneGiantBagAndOneRowPerBag) {
  Rng rng(5);
  std::vector<std::pair<L, L>> giant;
  std::vector<std::pair<L, L>> singles;
  for (L i = 0; i < 5000; ++i) {
    giant.emplace_back(kMin, static_cast<L>(rng.next()));
    singles.emplace_back(i * 7919 - 10'000'000, -i);
  }
  giant.emplace_back(kMin, kMin);
  giant.emplace_back(kMin, kMax);
  singles.emplace_back(kMax, kMax);
  singles.emplace_back(kMin, kMin);
  expect_reference_group(long_pairs(giant), rng);
  expect_reference_group(long_pairs(singles), rng);
  expect_reference_group(long_pairs({}), rng);
  expect_reference_group(long_pairs({{kMax, kMin}}), rng);
}

TEST(PackedGroupTest, ARowThatIsNotTwoLongsForcesTheGenericPath) {
  Rng rng(9);
  std::vector<std::pair<L, L>> pairs;
  for (std::size_t i = 0; i < 400; ++i) {
    pairs.emplace_back(rng.uniform_int(-5, 5), rng.uniform_int(-3, 3));
  }
  const Relation base = long_pairs(pairs);
  const std::vector<Tuple> odd_rows = {
      Tuple({Value(L{1}), Value(1.0)}),          // a double equal to a long
      Tuple({Value(1.0), Value(L{2})}),          // a double key
      Tuple({Value(L{2}), Value::null()}),       // a null value
      Tuple({Value::null(), Value(L{2})}),       // a null key
      Tuple({Value(L{3}), Value("3")}),          // a chararray
      Tuple({Value(L{3}), Value(L{1}), Value(L{0})}),  // wider
      Tuple({Value(L{3})}),                      // narrower
  };
  for (const Tuple& odd : odd_rows) {
    for (const std::size_t at : {std::size_t{0}, base.size() / 2, base.size()}) {
      SCOPED_TRACE(serialize_tuple(odd) + " at " + std::to_string(at));
      std::vector<Tuple> rows = base.rows();
      rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(at), odd);
      const Relation in(base.schema(), std::move(rows));
      if (odd.size() < 2) {
        // Grouping by column 1 needs a row that has one.
        EXPECT_EQ(bytes(eval_group(group_op(0), in)), reference_group(in, 0));
      } else {
        expect_reference_group(in, rng);
      }
    }
  }
}

TEST(DistinctParityTest, CollapsesOnlyByteIdenticalRows) {
  OpNode distinct;
  distinct.kind = OpKind::kDistinct;
  distinct.schema = Schema::of({{"x", ValueType::kLong}});
  Relation in(distinct.schema);
  for (const Value& v : {Value(L{1}), Value(1.0), Value(L{1}), Value(-0.0),
                         Value(0.0), Value(1.0)}) {
    in.add(Tuple({v}));
  }
  const Relation out = eval_distinct(distinct, in);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(bytes(out), bytes(Relation(distinct.schema,
                                       {Tuple({Value(-0.0)}),
                                        Tuple({Value(0.0)}),
                                        Tuple({Value(L{1})}),
                                        Tuple({Value(1.0)})})));
}

TEST(DistinctParityTest, InterpreterAndMapReduceAgreeOnMixedLongsAndDoubles) {
  const LogicalPlan plan = parse_script(
      "a = LOAD 'mixed' AS (x:long);\n"
      "d = DISTINCT a;\n"
      "STORE d INTO 'out';\n");
  Relation mixed(Schema::of({{"x", ValueType::kLong}}));
  for (L i = 0; i < 8; ++i) {
    mixed.add(Tuple({Value(i)}));
    mixed.add(Tuple({Value(static_cast<double>(i))}));
  }
  const Relation golden =
      interpret(plan, {{"mixed", mixed}}).at("out");
  EXPECT_EQ(golden.size(), 16u);
  for (const std::size_t reducers : {1u, 4u}) {
    SCOPED_TRACE("reducers " + std::to_string(reducers));
    mapreduce::CompileOptions opts;
    opts.default_reducers = reducers;
    mapreduce::Dfs dfs(64);  // several map splits
    dfs.write("mixed", mixed);
    const mapreduce::LocalRunResult run = mapreduce::run_job_dag_local(
        plan, mapreduce::compile(plan, {}, opts), dfs);
    EXPECT_EQ(bytes(Relation(golden.schema(), run.outputs.at("out").sorted_rows())),
              bytes(Relation(golden.schema(), golden.sorted_rows())));
  }
}

}  // namespace
}  // namespace clusterbft::dataflow
