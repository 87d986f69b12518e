#include "dataflow/parser.hpp"

#include <gtest/gtest.h>

#include "workloads/scripts.hpp"

namespace clusterbft::dataflow {
namespace {

TEST(ParserTest, MinimalLoadStore) {
  const auto plan = parse_script(
      "a = LOAD 'in' AS (x:long, y:chararray);\n"
      "STORE a INTO 'out';\n");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.node(0).kind, OpKind::kLoad);
  EXPECT_EQ(plan.node(0).path, "in");
  EXPECT_EQ(plan.node(0).schema.size(), 2u);
  EXPECT_EQ(plan.node(0).schema.at(0).name, "x");
  EXPECT_EQ(plan.node(0).schema.at(1).type, ValueType::kChararray);
  EXPECT_EQ(plan.node(1).kind, OpKind::kStore);
  EXPECT_EQ(plan.node(1).path, "out");
}

TEST(ParserTest, FilterPredicateStructure) {
  const auto plan = parse_script(
      "a = LOAD 'in' AS (x:long, y:long);\n"
      "b = FILTER a BY x > 3 AND y IS NOT NULL;\n"
      "STORE b INTO 'out';\n");
  const OpNode& f = plan.node(1);
  ASSERT_EQ(f.kind, OpKind::kFilter);
  EXPECT_EQ(f.predicate->to_string(), "((x > 3) AND y IS NOT NULL)");
}

TEST(ParserTest, ForeachProjectionAndNames) {
  const auto plan = parse_script(
      "a = LOAD 'in' AS (x:long, y:long);\n"
      "b = FOREACH a GENERATE x + y AS s, x, 2 * y;\n"
      "STORE b INTO 'out';\n");
  const OpNode& fe = plan.node(1);
  ASSERT_EQ(fe.kind, OpKind::kForeach);
  ASSERT_EQ(fe.schema.size(), 3u);
  EXPECT_EQ(fe.schema.at(0).name, "s");
  EXPECT_EQ(fe.schema.at(1).name, "x");   // derived from the column
  EXPECT_EQ(fe.schema.at(2).name, "f2");  // synthesised
  EXPECT_EQ(fe.schema.at(0).type, ValueType::kLong);
}

TEST(ParserTest, GroupProducesGroupAndBag) {
  const auto plan = parse_script(
      "a = LOAD 'in' AS (x:long, y:long);\n"
      "g = GROUP a BY x;\n"
      "c = FOREACH g GENERATE group, COUNT(a), SUM(a.y);\n"
      "STORE c INTO 'out';\n");
  const OpNode& g = plan.node(1);
  ASSERT_EQ(g.kind, OpKind::kGroup);
  ASSERT_EQ(g.group_keys.size(), 1u);
  EXPECT_EQ(g.group_keys[0], 0u);
  EXPECT_EQ(g.schema.at(0).name, "group");
  EXPECT_EQ(g.schema.at(0).type, ValueType::kLong);
  EXPECT_EQ(g.schema.at(1).name, "a");
  EXPECT_EQ(g.schema.at(1).type, ValueType::kBag);

  const OpNode& c = plan.node(2);
  EXPECT_EQ(c.schema.at(0).name, "group");
  EXPECT_EQ(c.schema.at(1).name, "count");
  EXPECT_EQ(c.schema.at(1).type, ValueType::kLong);
  EXPECT_EQ(c.schema.at(2).type, ValueType::kLong);  // SUM of long field
}

TEST(ParserTest, JoinQualifiesFieldNames) {
  const auto plan = parse_script(
      "a = LOAD 'l' AS (x:long, y:long);\n"
      "b = LOAD 'r' AS (x:long, z:long);\n"
      "j = JOIN a BY x, b BY x;\n"
      "p = FOREACH j GENERATE a::x, z;\n"
      "STORE p INTO 'out';\n");
  const OpNode& j = plan.node(2);
  ASSERT_EQ(j.kind, OpKind::kJoin);
  EXPECT_EQ(j.left_keys, std::vector<std::size_t>{0});
  EXPECT_EQ(j.right_keys, std::vector<std::size_t>{0});
  ASSERT_EQ(j.schema.size(), 4u);
  EXPECT_EQ(j.schema.at(0).name, "a::x");
  EXPECT_EQ(j.schema.at(3).name, "b::z");
  // 'z' resolves by unambiguous suffix; 'a::x' by qualified name.
  const OpNode& p = plan.node(3);
  EXPECT_EQ(p.gen[0].expr->to_string(), "a::x");
}

TEST(ParserTest, AmbiguousSuffixIsAnError) {
  EXPECT_THROW(parse_script("a = LOAD 'l' AS (x:long);\n"
                            "b = LOAD 'r' AS (x:long);\n"
                            "j = JOIN a BY x, b BY x;\n"
                            "p = FOREACH j GENERATE x;\n"
                            "STORE p INTO 'out';\n"),
               ParseError);
}

TEST(ParserTest, UnionOrderLimitDistinct) {
  const auto plan = parse_script(
      "a = LOAD 'l' AS (x:long);\n"
      "b = LOAD 'r' AS (x:long);\n"
      "u = UNION a, b;\n"
      "d = DISTINCT u;\n"
      "o = ORDER d BY x DESC;\n"
      "t = LIMIT o 5;\n"
      "STORE t INTO 'out';\n");
  EXPECT_EQ(plan.node(2).kind, OpKind::kUnion);
  EXPECT_EQ(plan.node(2).inputs.size(), 2u);
  EXPECT_EQ(plan.node(3).kind, OpKind::kDistinct);
  EXPECT_EQ(plan.node(4).kind, OpKind::kOrder);
  EXPECT_FALSE(plan.node(4).sort_keys[0].ascending);
  EXPECT_EQ(plan.node(5).kind, OpKind::kLimit);
  EXPECT_EQ(plan.node(5).limit, 5);
}

TEST(ParserTest, PositionalReferences) {
  const auto plan = parse_script(
      "a = LOAD 'in' AS (x:long, y:long);\n"
      "p = FOREACH a GENERATE $1, $0;\n"
      "STORE p INTO 'out';\n");
  EXPECT_EQ(plan.node(1).gen[0].expr->column, 1u);
  EXPECT_EQ(plan.node(1).gen[1].expr->column, 0u);
}

TEST(ParserTest, CommentsAndCaseInsensitiveKeywords) {
  const auto plan = parse_script(
      "-- a comment line\n"
      "a = load 'in' as (x:LONG); -- trailing comment\n"
      "store a into 'out';\n");
  EXPECT_EQ(plan.size(), 2u);
}

TEST(ParserTest, AliasRedefinitionUsesLatest) {
  const auto plan = parse_script(
      "a = LOAD 'in' AS (x:long);\n"
      "a = FILTER a BY x > 0;\n"
      "STORE a INTO 'out';\n");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.node(2).inputs[0], 1u);  // store reads the filter
}

TEST(ParserTest, ErrorsCarryLocation) {
  try {
    parse_script("a = LOAD 'in' AS (x:long);\nb = FLUB a;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(ParserTest, ErrorCases) {
  // Unknown alias.
  EXPECT_THROW(parse_script("STORE nope INTO 'out';\n"), ParseError);
  // Unknown field.
  EXPECT_THROW(parse_script("a = LOAD 'i' AS (x:long);\n"
                            "b = FILTER a BY zz > 1;\nSTORE b INTO 'o';\n"),
               ParseError);
  // Unknown type.
  EXPECT_THROW(parse_script("a = LOAD 'i' AS (x:blob);\nSTORE a INTO 'o';\n"),
               ParseError);
  // Unterminated string.
  EXPECT_THROW(parse_script("a = LOAD 'i AS (x:long);\n"), ParseError);
  // Aggregate outside a grouped relation.
  EXPECT_THROW(parse_script("a = LOAD 'i' AS (x:long);\n"
                            "b = FOREACH a GENERATE COUNT(a);\n"
                            "STORE b INTO 'o';\n"),
               ParseError);
  // SUM without a field.
  EXPECT_THROW(parse_script("a = LOAD 'i' AS (x:long);\n"
                            "g = GROUP a BY x;\n"
                            "s = FOREACH g GENERATE SUM(a);\n"
                            "STORE s INTO 'o';\n"),
               ParseError);
  // UNION arity mismatch.
  EXPECT_THROW(parse_script("a = LOAD 'i' AS (x:long);\n"
                            "b = LOAD 'j' AS (x:long, y:long);\n"
                            "u = UNION a, b;\nSTORE u INTO 'o';\n"),
               ParseError);
  // Positional out of range.
  EXPECT_THROW(parse_script("a = LOAD 'i' AS (x:long);\n"
                            "b = FOREACH a GENERATE $3;\nSTORE b INTO 'o';\n"),
               ParseError);
  // Missing semicolon.
  EXPECT_THROW(parse_script("a = LOAD 'i' AS (x:long)\nSTORE a INTO 'o';\n"),
               ParseError);
}

TEST(ParserTest, OutOfRangeLiteralsAreParseErrors) {
  // One digit past INT64_MAX, and a double literal beyond DBL_MAX: both
  // must fail as ParseError at the literal, not leak std::out_of_range.
  const std::string huge_double = std::string(400, '9') + ".5";
  const std::pair<std::string, std::size_t> cases[] = {
      {"99999999999999999999999", 21},
      {"9223372036854775808", 21},
      {huge_double, 21},
  };
  for (const auto& [literal, col] : cases) {
    try {
      parse_script("a = LOAD 'i' AS (s:long);\nb = FILTER a BY s > " +
                   literal + ";\nSTORE b INTO 'o';\n");
      FAIL() << "expected ParseError for " << literal.size() << " digits";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2u);
      EXPECT_EQ(e.column(), col);
    }
  }
  // The largest long still parses.
  EXPECT_NO_THROW(parse_script(
      "a = LOAD 'i' AS (s:long);\n"
      "b = FILTER a BY s > 9223372036854775807;\nSTORE b INTO 'o';\n"));
}

TEST(ParserTest, PaperScriptsParseAndValidate) {
  for (const std::string& script :
       {workloads::twitter_follower_analysis(),
        workloads::twitter_two_hop_analysis(),
        workloads::airline_top20_analysis(),
        workloads::weather_average_analysis()}) {
    const auto plan = parse_script(script);
    EXPECT_GT(plan.size(), 3u);
    EXPECT_FALSE(plan.stores().empty());
  }
}

TEST(ParserTest, TwoHopShapeMatchesFig8ii) {
  const auto plan = parse_script(workloads::twitter_two_hop_analysis());
  std::size_t joins = 0, loads = 0;
  for (const OpNode& n : plan.nodes()) {
    joins += n.kind == OpKind::kJoin;
    loads += n.kind == OpKind::kLoad;
  }
  EXPECT_EQ(joins, 1u);
  EXPECT_EQ(loads, 2u);  // self-join reads the edges twice
}

TEST(ParserTest, AirlineShapeMatchesFig8iii) {
  const auto plan = parse_script(workloads::airline_top20_analysis());
  EXPECT_EQ(plan.stores().size(), 3u);  // multi-store query
  std::size_t groups = 0;
  for (const OpNode& n : plan.nodes()) groups += n.kind == OpKind::kGroup;
  EXPECT_EQ(groups, 3u);
}

}  // namespace
}  // namespace clusterbft::dataflow
