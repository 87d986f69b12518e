#include "dataflow/ops_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace clusterbft::dataflow {
namespace {

Relation table(std::vector<std::vector<Value>> rows,
               std::vector<Field> fields) {
  Relation r(Schema(std::move(fields)));
  for (auto& row : rows) r.add(Tuple(std::move(row)));
  return r;
}

std::int64_t L(std::int64_t x) { return x; }

TEST(OpsEvalTest, Filter) {
  const Relation in = table({{Value(L(1))}, {Value(L(5))}, {Value::null()}},
                            {{"x", ValueType::kLong}});
  OpNode op;
  op.kind = OpKind::kFilter;
  op.schema = in.schema();
  op.predicate = Expr::binary(BinOp::kGt, Expr::column_ref(0, "x"),
                              Expr::literal_of(Value(L(2))));
  const Relation out = eval_filter(op, in);
  ASSERT_EQ(out.size(), 1u);  // null comparison is falsy, 1 fails, 5 passes
  EXPECT_EQ(out.rows()[0].at(0).as_long(), 5);
}

TEST(OpsEvalTest, ForeachProjects) {
  const Relation in = table({{Value(L(2)), Value(L(3))}},
                            {{"x", ValueType::kLong}, {"y", ValueType::kLong}});
  OpNode op;
  op.kind = OpKind::kForeach;
  op.schema = Schema::of({{"s", ValueType::kLong}});
  op.gen.push_back({Expr::binary(BinOp::kMul, Expr::column_ref(0, "x"),
                                 Expr::column_ref(1, "y")),
                    "s"});
  const Relation out = eval_foreach(op, in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows()[0].at(0).as_long(), 6);
}

OpNode group_op(const Relation& in, std::size_t key) {
  OpNode op;
  op.kind = OpKind::kGroup;
  op.group_keys = {key};
  op.schema = Schema::of({{"group", in.schema().at(key).type},
                          {"bag", ValueType::kBag}});
  return op;
}

TEST(OpsEvalTest, GroupCollectsAndSortsBags) {
  const Relation in = table(
      {{Value(L(1)), Value(L(9))}, {Value(L(2)), Value(L(5))},
       {Value(L(1)), Value(L(3))}},
      {{"k", ValueType::kLong}, {"v", ValueType::kLong}});
  const Relation out = eval_group(group_op(in, 0), in);
  ASSERT_EQ(out.size(), 2u);
  // Groups come out in key order.
  EXPECT_EQ(out.rows()[0].at(0).as_long(), 1);
  const auto& bag = *out.rows()[0].at(1).as_bag();
  ASSERT_EQ(bag.size(), 2u);
  // Bags are canonically sorted (replica determinism): (1,3) before (1,9).
  EXPECT_EQ(bag[0].at(1).as_long(), 3);
  EXPECT_EQ(bag[1].at(1).as_long(), 9);
}

TEST(OpsEvalTest, GroupIsInputOrderInsensitive) {
  const std::vector<std::vector<Value>> rows{
      {Value(L(1)), Value(L(9))}, {Value(L(2)), Value(L(5))},
      {Value(L(1)), Value(L(3))}};
  auto make = [&](std::vector<std::size_t> order) {
    Relation r(Schema::of({{"k", ValueType::kLong}, {"v", ValueType::kLong}}));
    for (std::size_t i : order) r.add(Tuple(rows[i]));
    return r;
  };
  const Relation a = make({0, 1, 2});
  const Relation b = make({2, 0, 1});
  EXPECT_EQ(eval_group(group_op(a, 0), a).rows(),
            eval_group(group_op(b, 0), b).rows());
}

/// Rows of mixed-type values from small domains, so bags hold ties the
/// canonical order must break the same way every time: 1 vs 1.0 (equal
/// under <=>, different bytes), nulls, equal strings, a few wider rows.
Relation mixed_rows(Rng& rng, std::size_t n) {
  Relation r(Schema::of({{"a", ValueType::kLong},
                         {"b", ValueType::kLong},
                         {"c", ValueType::kLong},
                         {"d", ValueType::kLong}}));
  const auto value = [&rng]() -> Value {
    switch (rng.next_below(4)) {
      case 0:
        return Value::null();
      case 1:
        return Value(rng.uniform_int(0, 2));
      case 2:
        return Value(static_cast<double>(rng.uniform_int(0, 2)));
      default:
        return Value(rng.chance(0.5) ? "x" : "y");
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t;
    t.fields.resize(rng.chance(0.1) ? 5 : 4);
    for (Value& v : t.fields) v = value();
    r.add(std::move(t));
  }
  return r;
}

std::string key_bytes(const Tuple& t, const std::vector<std::size_t>& keys) {
  std::string out;
  for (const std::size_t k : keys) t.at(k).serialize(out);
  return out;
}

/// Every bag must be byte-for-byte the full-tuple canonical_order sort of
/// its rows, whichever columns the bag sort may skip as keys. (The rows mix
/// longs and doubles of equal value, which `<=>` alone leaves in input
/// order.)
void expect_full_tuple_sorted_bags(const Relation& in,
                                   const std::vector<std::size_t>& keys,
                                   const Relation& out, std::size_t bag_col) {
  std::map<std::string, std::vector<Tuple>> expected;
  for (const Tuple& t : in.rows()) expected[key_bytes(t, keys)].push_back(t);
  for (auto& [key, rows] : expected) {
    std::sort(rows.begin(), rows.end(),
              [](const Tuple& a, const Tuple& b) {
                return canonical_order(a, b) < 0;
              });
  }
  std::size_t bags = 0;
  for (const Tuple& o : out.rows()) {
    const auto& bag = *o.at(bag_col).as_bag();
    if (bag.empty()) continue;
    ++bags;
    const auto& want = expected.at(key_bytes(bag.front(), keys));
    ASSERT_EQ(bag.size(), want.size());
    for (std::size_t i = 0; i < bag.size(); ++i) {
      ASSERT_EQ(serialize_tuple(bag[i]), serialize_tuple(want[i]));
    }
  }
  EXPECT_EQ(bags, expected.size());
}

TEST(OpsEvalTest, GroupAndCogroupBagsAreExactFullTupleSort) {
  Rng rng(13);
  for (int round = 0; round < 20; ++round) {
    const Relation in = mixed_rows(rng, 300);
    for (const std::vector<std::size_t>& keys :
         {std::vector<std::size_t>{1}, std::vector<std::size_t>{2, 0}}) {
      OpNode op;
      op.kind = OpKind::kGroup;
      op.group_keys = keys;
      op.schema = Schema::of({{"group", ValueType::kLong},
                              {"bag", ValueType::kBag}});
      expect_full_tuple_sorted_bags(in, keys, eval_group(op, in), 1);
    }
    const Relation right = mixed_rows(rng, 200);
    OpNode cg;
    cg.kind = OpKind::kCogroup;
    cg.left_keys = {3};
    cg.right_keys = {0};
    cg.schema = Schema::of({{"group", ValueType::kLong},
                            {"l", ValueType::kBag},
                            {"r", ValueType::kBag}});
    const Relation out = eval_cogroup(cg, in, right);
    expect_full_tuple_sorted_bags(in, cg.left_keys, out, 1);
    expect_full_tuple_sorted_bags(right, cg.right_keys, out, 2);
  }
}

TEST(OpsEvalTest, JoinInnerEquiNullsNeverMatch) {
  const Relation left = table(
      {{Value(L(1)), Value("a")}, {Value(L(2)), Value("b")}, {Value::null(), Value("n")}},
      {{"k", ValueType::kLong}, {"lv", ValueType::kChararray}});
  const Relation right = table(
      {{Value(L(1)), Value("x")}, {Value(L(1)), Value("y")}, {Value::null(), Value("m")}},
      {{"k", ValueType::kLong}, {"rv", ValueType::kChararray}});
  OpNode op;
  op.kind = OpKind::kJoin;
  op.left_keys = {0};
  op.right_keys = {0};
  op.schema = Schema::of({{"l::k", ValueType::kLong},
                          {"l::lv", ValueType::kChararray},
                          {"r::k", ValueType::kLong},
                          {"r::rv", ValueType::kChararray}});
  const Relation out = eval_join(op, left, right);
  ASSERT_EQ(out.size(), 2u);  // key 1 matches twice; nulls never match
  EXPECT_EQ(out.rows()[0].at(3).as_string(), "x");
  EXPECT_EQ(out.rows()[1].at(3).as_string(), "y");
}

TEST(OpsEvalTest, UnionConcatenates) {
  const Relation a = table({{Value(L(1))}}, {{"x", ValueType::kLong}});
  const Relation b = table({{Value(L(2))}, {Value(L(3))}},
                           {{"x", ValueType::kLong}});
  OpNode op;
  op.kind = OpKind::kUnion;
  op.schema = a.schema();
  const Relation out = eval_union(op, {&a, &b});
  EXPECT_EQ(out.size(), 3u);
}

TEST(OpsEvalTest, UnionChecksArity) {
  const Relation a = table({{Value(L(1))}}, {{"x", ValueType::kLong}});
  const Relation b = table({{Value(L(2)), Value(L(0))}},
                           {{"x", ValueType::kLong}, {"y", ValueType::kLong}});
  OpNode op;
  op.kind = OpKind::kUnion;
  op.schema = a.schema();
  EXPECT_THROW(eval_union(op, {&a, &b}), CheckError);
}

TEST(OpsEvalTest, DistinctRemovesDuplicates) {
  const Relation in = table({{Value(L(2))}, {Value(L(1))}, {Value(L(2))}},
                            {{"x", ValueType::kLong}});
  OpNode op;
  op.kind = OpKind::kDistinct;
  op.schema = in.schema();
  const Relation out = eval_distinct(op, in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.rows()[0].at(0).as_long(), 1);  // sorted output
  EXPECT_EQ(out.rows()[1].at(0).as_long(), 2);
}

TEST(OpsEvalTest, OrderSortsWithTiebreak) {
  const Relation in = table(
      {{Value(L(1)), Value("b")}, {Value(L(2)), Value("a")}, {Value(L(1)), Value("a")}},
      {{"k", ValueType::kLong}, {"v", ValueType::kChararray}});
  OpNode op;
  op.kind = OpKind::kOrder;
  op.schema = in.schema();
  op.sort_keys = {{0, false}};  // k DESC
  const Relation out = eval_order(op, in);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.rows()[0].at(0).as_long(), 2);
  // Equal keys fall back to whole-tuple order: (1,"a") before (1,"b").
  EXPECT_EQ(out.rows()[1].at(1).as_string(), "a");
  EXPECT_EQ(out.rows()[2].at(1).as_string(), "b");
}

TEST(OpsEvalTest, LimitTruncates) {
  const Relation in = table({{Value(L(1))}, {Value(L(2))}, {Value(L(3))}},
                            {{"x", ValueType::kLong}});
  OpNode op;
  op.kind = OpKind::kLimit;
  op.schema = in.schema();
  op.limit = 2;
  EXPECT_EQ(eval_limit(op, in).size(), 2u);
  op.limit = 99;
  EXPECT_EQ(eval_limit(op, in).size(), 3u);
  op.limit = 0;
  EXPECT_EQ(eval_limit(op, in).size(), 0u);
}

TEST(OpsEvalTest, EvalOpDispatchRejectsStorage) {
  OpNode op;
  op.kind = OpKind::kLoad;
  EXPECT_THROW(eval_op(op, {}), CheckError);
}

}  // namespace
}  // namespace clusterbft::dataflow
