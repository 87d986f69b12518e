#include "mapreduce/dfs.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace clusterbft::mapreduce {
namespace {

using dataflow::Relation;
using dataflow::Schema;
using dataflow::Tuple;
using dataflow::Value;
using dataflow::ValueType;

Relation numbers(std::int64_t n) {
  Relation r(Schema::of({{"x", ValueType::kLong}}));
  for (std::int64_t i = 0; i < n; ++i) r.add(Tuple({Value(i)}));
  return r;
}

TEST(DfsTest, WriteReadRoundTrip) {
  Dfs dfs;
  dfs.write("a", numbers(10));
  EXPECT_TRUE(dfs.exists("a"));
  EXPECT_FALSE(dfs.exists("b"));
  EXPECT_EQ(dfs.read("a").size(), 10u);
}

TEST(DfsTest, ReadMissingThrows) {
  Dfs dfs;
  EXPECT_THROW(dfs.read("nope"), CheckError);
  EXPECT_THROW(dfs.num_splits("nope"), CheckError);
}

TEST(DfsTest, OverwriteReplaces) {
  Dfs dfs;
  dfs.write("a", numbers(10));
  dfs.write("a", numbers(3));
  EXPECT_EQ(dfs.read("a").size(), 3u);
}

TEST(DfsTest, RemoveDeletes) {
  Dfs dfs;
  dfs.write("a", numbers(1));
  dfs.remove("a");
  EXPECT_FALSE(dfs.exists("a"));
}

TEST(DfsTest, SplitsCoverAllRowsExactlyOnce) {
  Dfs dfs(/*block_size=*/64);  // tiny blocks force many splits
  dfs.write("a", numbers(100));
  const std::size_t n = dfs.num_splits("a");
  EXPECT_GT(n, 1u);
  std::size_t total = 0;
  std::int64_t next_expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Relation split = dfs.read_split("a", i);
    total += split.size();
    for (const Tuple& t : split.rows()) {
      EXPECT_EQ(t.at(0).as_long(), next_expected++);
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(DfsTest, SplitOutOfRangeThrows) {
  Dfs dfs;
  dfs.write("a", numbers(5));
  EXPECT_THROW(dfs.read_split("a", dfs.num_splits("a")), CheckError);
}

TEST(DfsTest, EmptyFileHasOneEmptySplit) {
  Dfs dfs;
  dfs.write("a", numbers(0));
  EXPECT_EQ(dfs.num_splits("a"), 1u);
  EXPECT_EQ(dfs.read_split("a", 0).size(), 0u);
}

TEST(DfsTest, SplitsAreDeterministic) {
  Dfs d1(256), d2(256);
  d1.write("a", numbers(500));
  d2.write("a", numbers(500));
  ASSERT_EQ(d1.num_splits("a"), d2.num_splits("a"));
  for (std::size_t i = 0; i < d1.num_splits("a"); ++i) {
    EXPECT_EQ(d1.read_split("a", i).rows(), d2.read_split("a", i).rows());
  }
}

TEST(DfsTest, ByteAccounting) {
  Dfs dfs;
  const Relation r = numbers(10);
  const std::uint64_t bytes = r.byte_size();
  dfs.write("a", r);
  EXPECT_EQ(dfs.metrics().bytes_written, bytes);
  dfs.read("a");
  EXPECT_EQ(dfs.metrics().bytes_read, bytes);
  EXPECT_EQ(dfs.size_of("a"), bytes);
  dfs.reset_metrics();
  EXPECT_EQ(dfs.metrics().bytes_read, 0u);
}

/// Bytes of `rel` counted the long way: serialise every row again.
std::uint64_t reserialised_bytes(const Relation& rel) {
  std::uint64_t total = 0;
  for (const Tuple& t : rel.rows()) total += dataflow::serialize_tuple(t).size();
  return total;
}

/// Reads every split of `path`, checking that each split's accounted
/// read equals a recount of its rows and that the splits add up to
/// size_of. Returns the split sizes in rows.
std::vector<std::size_t> check_split_accounting(Dfs& dfs,
                                                const std::string& path) {
  std::vector<std::size_t> rows;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < dfs.num_splits(path); ++i) {
    const std::uint64_t before = dfs.metrics().bytes_read;
    const Relation split = dfs.read_split(path, i);
    const std::uint64_t read = dfs.metrics().bytes_read - before;
    EXPECT_EQ(read, reserialised_bytes(split)) << "split " << i;
    EXPECT_EQ(split.byte_size(), read) << "split " << i;
    sum += read;
    rows.push_back(split.size());
  }
  EXPECT_EQ(sum, dfs.size_of(path));
  return rows;
}

TEST(DfsTest, SplitByteAccountingMatchesRecount) {
  // Each single-digit long serialises to 3 bytes (tag, digit, 0x1f), so a
  // 9-byte block ends exactly after the third row: the fourth row must
  // open a new split rather than overflow the full one.
  Dfs dfs(/*block_size=*/9);
  const Relation r = numbers(10);
  dfs.write("a", r);
  EXPECT_EQ(dfs.size_of("a"), reserialised_bytes(r));
  EXPECT_EQ(dfs.size_of("a"), 30u);
  EXPECT_EQ(dfs.metrics().bytes_written, 30u);
  EXPECT_EQ(check_split_accounting(dfs, "a"),
            (std::vector<std::size_t>{3, 3, 3, 1}));
  EXPECT_EQ(dfs.metrics().bytes_read, 30u);

  // Mixed widths and types across many blocks.
  Relation wide(Schema::of({{"s", ValueType::kChararray},
                            {"x", ValueType::kDouble}}));
  for (int i = 0; i < 300; ++i) {
    wide.add(Tuple({Value(std::string(static_cast<std::size_t>(i % 37), 'q')),
                    Value(i * 0.37)}));
  }
  Dfs big(/*block_size=*/512);
  big.write("w", wide);
  EXPECT_EQ(big.size_of("w"), reserialised_bytes(wide));
  EXPECT_GT(check_split_accounting(big, "w").size(), 1u);
}

TEST(DfsTest, EmptyRelationAccountsZeroBytes) {
  Dfs dfs(/*block_size=*/9);
  dfs.write("e", numbers(0));
  EXPECT_EQ(dfs.size_of("e"), 0u);
  EXPECT_EQ(dfs.metrics().bytes_written, 0u);
  EXPECT_EQ(check_split_accounting(dfs, "e"), (std::vector<std::size_t>{0}));
  EXPECT_EQ(dfs.metrics().bytes_read, 0u);
}

TEST(DfsTest, RecordedByteCountFollowsTheRows) {
  // A split carries the DFS's count; mutating it (as a Byzantine node's
  // corruption does) must make byte_size() recount, never reuse it.
  Dfs dfs(/*block_size=*/9);
  dfs.write("a", numbers(10));
  Relation split = dfs.read_split("a", 0);
  EXPECT_EQ(split.byte_size(), 9u);
  split.rows()[0].fields[0] = Value("a longer value");
  EXPECT_EQ(split.byte_size(), reserialised_bytes(split));
  split.add(Tuple({Value(std::int64_t{7})}));
  EXPECT_EQ(split.byte_size(), reserialised_bytes(split));

  // append keeps a known total only when both sides were counted.
  Relation counted = dfs.read_split("a", 1);
  counted.append(dfs.read_split("a", 2));
  EXPECT_EQ(counted.byte_size(), 18u);
  counted.append(numbers(3));  // built with add(): not counted
  EXPECT_EQ(counted.byte_size(), reserialised_bytes(counted));
  EXPECT_EQ(counted.size(), 9u);

  // A moved-from relation is empty and counts as such.
  Relation moved = dfs.read_split("a", 3);
  const Relation taken = std::move(moved);
  EXPECT_EQ(taken.byte_size(), 3u);
  EXPECT_EQ(moved.byte_size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.empty());        // NOLINT(bugprone-use-after-move)
}

TEST(DfsTest, ListReturnsAllPaths) {
  Dfs dfs;
  dfs.write("b", numbers(1));
  dfs.write("a", numbers(1));
  const auto paths = dfs.list();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], "a");  // map order
  EXPECT_EQ(paths[1], "b");
}

}  // namespace
}  // namespace clusterbft::mapreduce
