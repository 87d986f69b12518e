// GROUP parity: the three ways GROUP pays for its bags must agree byte for
// byte with the plain bag path, and the canonical sorts must not depend on
// input row order.
//
// - The aggregate fold (fold_group_aggregates) against
//   eval_foreach(eval_group(...)): on random tables and random scripts,
//   and on mixed-type, null-heavy and wide rows where its guard must fall
//   back to the bag path.
// - The packed GROUP (two long columns) against the canonical full-tuple
//   sort: duplicate keys, negative and extreme longs; and the generic
//   path on the same rows made wider, of mixed arity, or holding a null
//   or a double.
// - run_reduce_task: a GROUP carrying a verification point reports the
//   bag path's digests; without one, the consumer's digests are unchanged.
// - canonical_order: values `<=>` equates but that serialise differently
//   (long 1 vs double 1.0, -0.0 vs 0.0) sort the same in either row order.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/digest.hpp"
#include "dataflow/ops_eval.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/local_runner.hpp"
#include "mapreduce/task.hpp"
#include "random_script.hpp"

namespace clusterbft::dataflow {
namespace {

using L = std::int64_t;

/// Every row's canonical bytes, in order, one row per line.
std::string bytes(const Relation& r) {
  std::string out;
  for (const Tuple& t : r.rows()) {
    out += serialize_tuple(t);
    out += '\n';
  }
  return out;
}

const OpNode& first_of(const LogicalPlan& plan, OpKind kind) {
  for (const OpNode& n : plan.nodes()) {
    if (n.kind == kind) return n;
  }
  ADD_FAILURE() << "no such vertex";
  return plan.nodes().front();
}

/// The bag path the fold must reproduce.
Relation bag_path(const OpNode& group, const OpNode& consumer,
                  const Relation& in) {
  return eval_foreach(consumer, eval_group(group, in));
}

Relation shuffled(const Relation& in, Rng& rng) {
  std::vector<Tuple> rows = in.rows();
  rng.shuffle(rows);
  return Relation(in.schema(), std::move(rows));
}

/// A GROUP script over the random table 'ta' (k:long, v:long, s:chararray).
LogicalPlan group_plan(const std::string& by, const std::string& generate) {
  return parse_script(
      "a = LOAD 'ta' AS (k:long, v:long, s:chararray);\n"
      "g = GROUP a BY " + by + ";\n"
      "f = FOREACH g GENERATE " + generate + ";\n"
      "STORE f INTO 'out';\n");
}

TEST(GroupParityTest, FoldMatchesBagPathOnRandomTables) {
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"k", "group AS k, COUNT(a) AS n, SUM(a.v) AS total"},
      {"k", "group, COUNT(a.v), SUM(a.v), MIN(a.v), MAX(a.v), MIN(a.s), "
            "MAX(a.s)"},
      {"s", "COUNT(a), group"},
      {"(k, s)", "FLATTEN(group), COUNT(a), MAX(a.v)"},
      {"(k, s)", "group, SUM(a.v)"},
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const Relation in = testgen::random_table(rng, 40 + 30 * seed);
    for (const auto& [by, generate] : shapes) {
      SCOPED_TRACE(by + " / " + generate);
      const LogicalPlan plan = group_plan(by, generate);
      const OpNode& g = first_of(plan, OpKind::kGroup);
      const OpNode& f = first_of(plan, OpKind::kForeach);
      const std::string want = bytes(bag_path(g, f, in));
      const auto folded = fold_group_aggregates(g, f, in);
      ASSERT_TRUE(folded.has_value());
      EXPECT_EQ(bytes(*folded), want);
      const auto refolded = fold_group_aggregates(g, f, shuffled(in, rng));
      ASSERT_TRUE(refolded.has_value());
      EXPECT_EQ(bytes(*refolded), want);
    }
  }
}

TEST(GroupParityTest, ConsumersTheFoldDoesNotComputeAreLeftToTheBagPath) {
  Rng rng(3);
  const Relation in = testgen::random_table(rng, 100);
  for (const char* generate :
       {"group, AVG(a.v)", "group, TRUNC(AVG(a.v))", "group, COUNT(a) + 1",
        "group, a"}) {
    SCOPED_TRACE(generate);
    const LogicalPlan plan = group_plan("k", generate);
    EXPECT_FALSE(fold_group_aggregates(first_of(plan, OpKind::kGroup),
                                       first_of(plan, OpKind::kForeach), in)
                     .has_value());
  }
  // A consumer that is not a FOREACH.
  const LogicalPlan plan = group_plan("k", "group");
  OpNode filter = first_of(plan, OpKind::kForeach);
  filter.kind = OpKind::kFilter;
  EXPECT_FALSE(fold_group_aggregates(first_of(plan, OpKind::kGroup), filter, in)
                   .has_value());
}

/// Rows of (k:long, x, y:long) where x mixes longs, doubles, chararrays and
/// nulls, some groups hold only nulls, and some rows are wider.
Relation mixed_rows(Rng& rng, std::size_t n, double p_double, double p_string,
                    double p_null) {
  Relation r(Schema::of({{"k", ValueType::kLong},
                         {"x", ValueType::kLong},
                         {"y", ValueType::kLong}}));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t;
    const L k = rng.uniform_int(0, 6);
    t.fields.push_back(Value(k));
    const double u = rng.uniform();
    if (k == 6 || u < p_null) {
      t.fields.push_back(Value::null());
    } else if (u < p_null + p_double) {
      t.fields.push_back(Value(static_cast<double>(rng.uniform_int(-3, 3))));
    } else if (u < p_null + p_double + p_string) {
      t.fields.push_back(Value(std::string(1, static_cast<char>('a' + rng.next_below(3)))));
    } else {
      t.fields.push_back(Value(rng.uniform_int(-3, 3)));
    }
    t.fields.push_back(Value(rng.uniform_int(-1000, 1000)));
    if (rng.chance(0.05)) t.fields.push_back(Value(L{7}));  // wider row
    r.add(std::move(t));
  }
  return r;
}

TEST(GroupParityTest, GuardFallsBackOnMixedNullHeavyAndWideRows) {
  const LogicalPlan plan = parse_script(
      "a = LOAD 'ta' AS (k:long, x:long, y:long);\n"
      "g = GROUP a BY k;\n"
      "f = FOREACH g GENERATE group, COUNT(a), COUNT(a.x), SUM(a.x), "
      "MIN(a.x), MAX(a.x), SUM(a.y);\n"
      "STORE f INTO 'out';\n");
  const OpNode& g = first_of(plan, OpKind::kGroup);
  const OpNode& f = first_of(plan, OpKind::kForeach);
  std::size_t folded_runs = 0;
  std::size_t fallbacks = 0;
  struct Mix {
    double p_double, p_string, p_null;
  };
  for (const Mix m : {Mix{0, 0, 0.9}, Mix{0, 0, 0.3}, Mix{0.02, 0, 0.2},
                      Mix{0, 0.02, 0.2}, Mix{0.3, 0.3, 0.2}}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed);
      const Relation in = mixed_rows(rng, 30 + 20 * seed, m.p_double,
                                     m.p_string, m.p_null);
      const auto folded = fold_group_aggregates(g, f, in);
      if (!folded) {
        ++fallbacks;
        continue;
      }
      ++folded_runs;
      EXPECT_EQ(bytes(*folded), bytes(bag_path(g, f, in)));
    }
  }
  // Both sides of the guard are exercised.
  EXPECT_GT(folded_runs, 0u);
  EXPECT_GT(fallbacks, 0u);

  // The guard, row by row.
  const auto one_group = [&](std::vector<Value> xs) {
    Relation in(Schema::of({{"k", ValueType::kLong},
                            {"x", ValueType::kLong},
                            {"y", ValueType::kLong}}));
    for (Value& x : xs) in.add(Tuple({Value(L{1}), std::move(x), Value(L{2})}));
    return fold_group_aggregates(g, f, in);
  };
  EXPECT_TRUE(one_group({Value(L{1}), Value::null(), Value(L{-4})}).has_value());
  EXPECT_TRUE(one_group({Value::null(), Value::null()}).has_value());
  // SUM over a double; MIN/MAX over two types; doubles never fold.
  EXPECT_FALSE(one_group({Value(L{1}), Value(1.0)}).has_value());
  EXPECT_FALSE(one_group({Value(L{1}), Value("a")}).has_value());
  EXPECT_FALSE(one_group({Value(-0.0), Value(0.0)}).has_value());
  // A row too short for the aggregated column leaves it to the bag path.
  Relation short_row(Schema::of({{"k", ValueType::kLong},
                                 {"x", ValueType::kLong},
                                 {"y", ValueType::kLong}}));
  short_row.add(Tuple({Value(L{1}), Value(L{2}), Value(L{3})}));
  short_row.add(Tuple({Value(L{1}), Value(L{2})}));
  EXPECT_FALSE(fold_group_aggregates(g, f, short_row).has_value());
}

TEST(GroupParityTest, FoldedSumWrapsLikeTheBagPath) {
  const LogicalPlan plan = group_plan("k", "group, SUM(a.v), MIN(a.v), MAX(a.v)");
  const OpNode& g = first_of(plan, OpKind::kGroup);
  const OpNode& f = first_of(plan, OpKind::kForeach);
  Relation in(first_of(plan, OpKind::kLoad).schema);
  constexpr L kMax = std::numeric_limits<L>::max();
  constexpr L kMin = std::numeric_limits<L>::min();
  for (const L v : {kMax, kMax, L{5}, kMin, kMin, L{-1}}) {
    in.add(Tuple({Value(L{0}), Value(v), Value("s")}));
  }
  const auto folded = fold_group_aggregates(g, f, in);
  ASSERT_TRUE(folded.has_value());
  EXPECT_EQ(bytes(*folded), bytes(bag_path(g, f, in)));
}

/// Every bag of a single-key GROUP on column 0 must be its rows sorted by
/// canonical_order, and the output must not depend on input row order.
void expect_canonical_bags(const Relation& in, Rng& rng) {
  OpNode op;
  op.kind = OpKind::kGroup;
  op.group_keys = {0};
  op.schema = Schema::of({{"group", ValueType::kLong},
                          {"bag", ValueType::kBag}});
  const Relation out = eval_group(op, in);
  std::map<std::string, std::vector<Tuple>> want;
  for (const Tuple& t : in.rows()) {
    std::string key;
    t.at(0).serialize(key);
    want[key].push_back(t);
  }
  ASSERT_EQ(out.size(), want.size());
  for (const Tuple& o : out.rows()) {
    std::string key;
    o.at(0).serialize(key);
    std::vector<Tuple> rows = want.at(key);
    std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
      return canonical_order(a, b) < 0;
    });
    const auto& bag = *o.at(1).as_bag();
    ASSERT_EQ(bag.size(), rows.size());
    for (std::size_t i = 0; i < bag.size(); ++i) {
      ASSERT_EQ(serialize_tuple(bag[i]), serialize_tuple(rows[i]));
    }
  }
  EXPECT_EQ(bytes(eval_group(op, shuffled(in, rng))), bytes(out));
}

TEST(GroupParityTest, BagSortKernelMatchesTheCanonicalSort) {
  constexpr L kMax = std::numeric_limits<L>::max();
  constexpr L kMin = std::numeric_limits<L>::min();
  const std::vector<L> extremes = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    for (const std::size_t width : {2u, 4u}) {
      SCOPED_TRACE("width " + std::to_string(width));
      // All-long rows of one arity: the packed GROUP at width 2, the
      // generic path at width 4. Few distinct values, so bags hold many duplicate
      // rows.
      Relation longs(Schema{});
      for (std::size_t i = 0; i < 400; ++i) {
        Tuple t;
        t.fields.push_back(Value(rng.uniform_int(0, 5)));
        for (std::size_t c = 1; c < width; ++c) {
          t.fields.push_back(
              rng.chance(0.3)
                  ? Value(extremes[rng.next_below(extremes.size())])
                  : Value(rng.uniform_int(-2, 2)));
        }
        longs.add(std::move(t));
      }
      expect_canonical_bags(longs, rng);

      // The same rows with mixed arity, a null, or a double equal to a
      // long: the generic comparator.
      for (int variant = 0; variant < 3; ++variant) {
        Relation mixed = longs;
        Tuple& t = mixed.rows()[rng.next_below(mixed.size())];
        if (variant == 0) t.fields.push_back(Value(L{0}));
        if (variant == 1) t.fields[1] = Value::null();
        if (variant == 2) {
          t.fields[1] = Value(1.0);
          mixed.add(Tuple(std::vector<Value>(t.fields.size(), Value(L{1}))));
        }
        expect_canonical_bags(mixed, rng);
      }
    }
  }
}

TEST(GroupParityTest, CanonicalOrderDoesNotDependOnRowOrderOnTies) {
  // GROUP over (1,7) and (1.0,8): two groups whose keys `<=>` equates.
  OpNode grp;
  grp.kind = OpKind::kGroup;
  grp.group_keys = {0};
  grp.schema = Schema::of({{"group", ValueType::kLong}, {"bag", ValueType::kBag}});
  const Schema two = Schema::of({{"a", ValueType::kLong}, {"b", ValueType::kLong}});
  const Relation fwd(two, {Tuple({Value(L{1}), Value(L{7})}),
                           Tuple({Value(1.0), Value(L{8})})});
  const Relation rev(two, {fwd.rows()[1], fwd.rows()[0]});
  EXPECT_EQ(bytes(eval_group(grp, fwd)), bytes(eval_group(grp, rev)));
  EXPECT_EQ(eval_group(grp, fwd).rows()[0].at(0).type(), ValueType::kLong);

  // Bags: rows that tie under `<=>` in a non-key column, both orders.
  const Relation bag_fwd(two, {Tuple({Value(L{1}), Value(L{2})}),
                               Tuple({Value(L{1}), Value(2.0)}),
                               Tuple({Value(L{1}), Value(0.0)}),
                               Tuple({Value(L{1}), Value(-0.0)})});
  Relation bag_rev(two, {});
  for (auto it = bag_fwd.rows().rbegin(); it != bag_fwd.rows().rend(); ++it) {
    bag_rev.add(*it);
  }
  EXPECT_EQ(bytes(eval_group(grp, bag_fwd)), bytes(eval_group(grp, bag_rev)));

  // sorted_rows, DISTINCT, ORDER and JOIN's canonical match lists.
  EXPECT_EQ(Relation(two, bag_fwd.sorted_rows()),
            Relation(two, bag_rev.sorted_rows()));
  EXPECT_EQ(bytes(Relation(two, bag_fwd.sorted_rows())),
            bytes(Relation(two, bag_rev.sorted_rows())));
  OpNode distinct;
  distinct.kind = OpKind::kDistinct;
  distinct.schema = two;
  EXPECT_EQ(bytes(eval_distinct(distinct, bag_fwd)),
            bytes(eval_distinct(distinct, bag_rev)));
  OpNode order;
  order.kind = OpKind::kOrder;
  order.schema = two;
  order.sort_keys = {SortKey{1, true}};
  EXPECT_EQ(bytes(eval_order(order, bag_fwd)), bytes(eval_order(order, bag_rev)));
  OpNode join;
  join.kind = OpKind::kJoin;
  join.left_keys = {0};
  join.right_keys = {0};
  join.schema = Schema::of({{"a", ValueType::kLong}, {"b", ValueType::kLong},
                            {"c", ValueType::kLong}, {"d", ValueType::kLong}});
  const Relation probe(two, {Tuple({Value(L{1}), Value(L{0})})});
  EXPECT_EQ(bytes(eval_join(join, probe, bag_fwd, /*canonical_matches=*/true)),
            bytes(eval_join(join, probe, bag_rev, /*canonical_matches=*/true)));

  // `<=>`, `==` and so FILTER semantics are unchanged.
  EXPECT_EQ(Value(L{1}) <=> Value(1.0), std::strong_ordering::equal);
  EXPECT_EQ(Value(-0.0), Value(0.0));
  EXPECT_EQ(canonical_order(Value(L{1}), Value(1.0)), std::strong_ordering::less);
  EXPECT_EQ(canonical_order(Value(-0.0), Value(0.0)), std::strong_ordering::less);
  EXPECT_EQ(canonical_order(Value::tuple_of({Value(L{1}), Value(0.0)}),
                            Value::tuple_of({Value(L{1}), Value(-0.0)})),
            std::strong_ordering::greater);
}

}  // namespace
}  // namespace clusterbft::dataflow

namespace clusterbft::mapreduce {
namespace {

using dataflow::LogicalPlan;
using dataflow::OpKind;
using dataflow::Relation;

/// Per-vertex digest reports, for comparing two runs' streams.
std::map<dataflow::OpId, std::vector<DigestReport>> by_vertex(
    const std::vector<DigestReport>& reports) {
  std::map<dataflow::OpId, std::vector<DigestReport>> out;
  for (const DigestReport& r : reports) out[r.key.vertex].push_back(r);
  return out;
}

TEST(GroupParityTest, ReduceTaskDigestsMatchTheBagPathWithOrWithoutGroupPoint) {
  const LogicalPlan plan = dataflow::parse_script(
      "a = LOAD 'ta' AS (k:long, v:long, s:chararray);\n"
      "g = GROUP a BY k;\n"
      "f = FOREACH g GENERATE group AS k, COUNT(a) AS n, SUM(a.v) AS t;\n"
      "STORE f INTO 'out';\n");
  const dataflow::OpId g = dataflow::first_of(plan, OpKind::kGroup).id;
  const dataflow::OpId f = dataflow::first_of(plan, OpKind::kForeach).id;
  CompileOptions opts;
  opts.sid_prefix = "parity";
  const JobDag marked = compile(plan, {{g, 7}, {f, 5}}, opts);
  const JobDag unmarked = compile(plan, {{f, 5}}, opts);
  ASSERT_EQ(marked.jobs.size(), 1u);
  ASSERT_EQ(unmarked.jobs.size(), 1u);

  Rng rng(11);
  const Relation in = testgen::random_table(rng, 300);
  const auto run = [&](const JobDag& dag) {
    std::vector<Relation> inputs;
    inputs.push_back(in);
    return run_reduce_task(plan, dag.jobs[0], 2, std::move(inputs));
  };
  const ReduceTaskResult with_point = run(marked);
  const ReduceTaskResult without_point = run(unmarked);

  // The marked GROUP's digests are those of the bag path's bytes.
  const Relation groups =
      dataflow::eval_group(plan.node(g), Relation(in));
  crypto::ChunkedDigester digester(7);
  for (const dataflow::Tuple& t : groups.rows()) {
    digester.add_record(dataflow::serialize_tuple(t));
  }
  const auto want = digester.finish();
  const auto got = by_vertex(with_point.digests);
  ASSERT_EQ(got.at(g).size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.at(g)[i].digest, want[i].digest);
    EXPECT_EQ(got.at(g)[i].record_count, want[i].record_count);
  }
  // The consumer's digests, output and byte counts do not depend on
  // whether the GROUP was folded.
  EXPECT_EQ(got.at(f), by_vertex(without_point.digests).at(f));
  EXPECT_EQ(without_point.digests.size(), got.at(f).size());
  EXPECT_EQ(dataflow::serialize_tuple(with_point.output.rows().front()),
            dataflow::serialize_tuple(without_point.output.rows().front()));
  EXPECT_EQ(with_point.output, without_point.output);
  EXPECT_EQ(with_point.metrics.output_bytes, without_point.metrics.output_bytes);
  EXPECT_EQ(with_point.metrics.records_out, without_point.metrics.records_out);
}

class RandomScriptParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomScriptParity, FoldedRunMatchesBagPathRun) {
  // The same random script run twice through the local runner: once as
  // compiled (a GROUP→aggregate job folds), once with a verification
  // point on every GROUP (its bags are built and sorted). Final outputs
  // and final-output digests must be byte-identical.
  Rng rng(GetParam());
  const Relation input = testgen::random_table(rng, 300);
  const std::string script = testgen::random_script(rng);
  SCOPED_TRACE(script);
  const LogicalPlan plan = dataflow::parse_script(script);
  const dataflow::OpId out = plan.stores().front();
  const dataflow::OpId tail = plan.node(out).inputs.front();
  std::vector<VerificationPoint> plain{{tail, 16}};
  std::vector<VerificationPoint> bagged = plain;
  for (const dataflow::OpNode& n : plan.nodes()) {
    if (n.kind == OpKind::kGroup) bagged.push_back({n.id, 0});
  }
  CompileOptions opts;
  opts.default_reducers = 3;
  const auto run = [&](const std::vector<VerificationPoint>& vps) {
    Dfs dfs(2048);
    dfs.write("ta", input);
    return run_job_dag_local(plan, compile(plan, vps, opts), dfs);
  };
  const LocalRunResult folded = run(plain);
  const LocalRunResult bag = run(bagged);
  const Relation& a = folded.outputs.at("out");
  const Relation& b = bag.outputs.at("out");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(dataflow::serialize_tuple(a.rows()[i]),
              dataflow::serialize_tuple(b.rows()[i]));
  }
  EXPECT_EQ(by_vertex(folded.digests).at(tail), by_vertex(bag.digests).at(tail));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScriptParity,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace clusterbft::mapreduce
