#include "dataflow/value.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace clusterbft::dataflow {
namespace {

Bag make_bag(std::vector<Tuple> ts) {
  return std::make_shared<const std::vector<Tuple>>(std::move(ts));
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::null().is_null());
  EXPECT_EQ(Value(std::int64_t{5}).as_long(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(ValueTest, AccessorTypeMismatchThrows) {
  EXPECT_THROW(Value("hi").as_long(), CheckError);
  EXPECT_THROW(Value(std::int64_t{1}).as_string(), CheckError);
  EXPECT_THROW(Value("hi").to_double(), CheckError);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(std::int64_t{2}), Value(2.0));
  EXPECT_TRUE((Value(std::int64_t{1}) <=> Value(1.5)) < 0);
  EXPECT_TRUE((Value(2.5) <=> Value(std::int64_t{2})) > 0);
}

TEST(ValueTest, OrderingAcrossTypes) {
  // null < numeric < chararray < bag.
  EXPECT_TRUE((Value::null() <=> Value(std::int64_t{0})) < 0);
  EXPECT_TRUE((Value(std::int64_t{999}) <=> Value("a")) < 0);
  EXPECT_TRUE((Value("zzz") <=> Value(make_bag({}))) < 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_TRUE((Value("abc") <=> Value("abd")) < 0);
  EXPECT_EQ(Value("abc"), Value("abc"));
}

TEST(ValueTest, BagOrderingBySizeThenContent) {
  const Bag small = make_bag({Tuple({Value(std::int64_t{9})})});
  const Bag big = make_bag({Tuple({Value(std::int64_t{1})}),
                            Tuple({Value(std::int64_t{1})})});
  EXPECT_TRUE((Value(small) <=> Value(big)) < 0);

  const Bag a = make_bag({Tuple({Value(std::int64_t{1})})});
  const Bag b = make_bag({Tuple({Value(std::int64_t{2})})});
  EXPECT_TRUE((Value(a) <=> Value(b)) < 0);
  EXPECT_EQ(Value(a), Value(make_bag({Tuple({Value(std::int64_t{1})})})));
}

TEST(ValueTest, SerializationDistinguishesTypes) {
  // The long 1 and the string "1" must not collide in digests.
  std::string a, b;
  Value(std::int64_t{1}).serialize(a);
  Value("1").serialize(b);
  EXPECT_NE(a, b);
}

TEST(ValueTest, SerializationDistinguishesNullFromZero) {
  std::string a, b;
  Value::null().serialize(a);
  Value(std::int64_t{0}).serialize(b);
  EXPECT_NE(a, b);
}

TEST(ValueTest, SerializationIsInjectiveOnSamples) {
  std::vector<Value> values{
      Value::null(),        Value(std::int64_t{0}),  Value(std::int64_t{1}),
      Value(std::int64_t{-1}), Value(0.0),           Value(1.0),
      Value(0.1),           Value(""),               Value("a"),
      Value("ab"),          Value(make_bag({})),
      Value(make_bag({Tuple({Value(std::int64_t{1})})}))};
  std::set<std::string> seen;
  for (const Value& v : values) {
    std::string s;
    v.serialize(s);
    EXPECT_TRUE(seen.insert(s).second) << "collision for " << v.to_string();
  }
}

TEST(ValueTest, DoubleSerializationRoundTrips) {
  // %.17g must distinguish adjacent doubles.
  std::string a, b;
  Value(0.1).serialize(a);
  Value(0.1 + 1e-17).serialize(b);  // same double after rounding
  Value x(0.30000000000000004);     // 0.1+0.2
  Value y(0.3);
  std::string sx, sy;
  x.serialize(sx);
  y.serialize(sy);
  EXPECT_NE(sx, sy);
}

TEST(TupleTest, ComparisonIsLexicographic) {
  const Tuple a({Value(std::int64_t{1}), Value("b")});
  const Tuple b({Value(std::int64_t{1}), Value("c")});
  const Tuple c({Value(std::int64_t{1})});
  EXPECT_TRUE((a <=> b) < 0);
  EXPECT_TRUE((c <=> a) < 0);  // prefix sorts first
  EXPECT_TRUE((a <=> Tuple({Value(std::int64_t{1}), Value("b")})) == 0);
}

TEST(TupleTest, AtBoundsChecked) {
  Tuple t({Value(std::int64_t{1})});
  EXPECT_THROW(t.at(1), CheckError);
}

TEST(TupleTest, KeyHashDeterministicAndPrefixSensitive) {
  const Tuple t({Value(std::int64_t{42}), Value("x")});
  EXPECT_EQ(tuple_key_hash(t, 1), tuple_key_hash(t, 1));
  const Tuple u({Value(std::int64_t{42}), Value("y")});
  EXPECT_EQ(tuple_key_hash(t, 1), tuple_key_hash(u, 1));  // same prefix
  EXPECT_NE(tuple_key_hash(t, 0), tuple_key_hash(u, 0));  // whole tuple
}

TEST(TupleTest, SerializeTupleConcatenatesFields) {
  const Tuple t({Value(std::int64_t{1}), Value("a")});
  std::string expect;
  t.at(0).serialize(expect);
  t.at(1).serialize(expect);
  EXPECT_EQ(serialize_tuple(t), expect);
}

// --- Canonical bytes ------------------------------------------------------
//
// Every replica must produce these exact bytes: digests, split boundaries
// and Table 3 byte counts are all computed over them. The expected strings
// are written out by hand, and the random sweep checks the encoder against
// an in-test printf oracle ("%" PRId64, "%.17g", "%zu").

std::string bytes_of(const Value& v) {
  std::string out;
  v.serialize(out);
  return out;
}

/// The one-byte type tag followed by `body`.
std::string tagged(ValueType t, const std::string& body) {
  return std::string(1, static_cast<char>(t)) + body;
}

TEST(CanonicalBytesTest, GoldenEncodingForEveryValueType) {
  EXPECT_EQ(bytes_of(Value::null()), std::string(1, '\0'));

  EXPECT_EQ(bytes_of(Value(std::int64_t{0})), tagged(ValueType::kLong, "0\x1f"));
  EXPECT_EQ(bytes_of(Value(std::int64_t{-42})),
            tagged(ValueType::kLong, "-42\x1f"));
  EXPECT_EQ(bytes_of(Value(std::numeric_limits<std::int64_t>::min())),
            tagged(ValueType::kLong, "-9223372036854775808\x1f"));
  EXPECT_EQ(bytes_of(Value(std::numeric_limits<std::int64_t>::max())),
            tagged(ValueType::kLong, "9223372036854775807\x1f"));

  EXPECT_EQ(bytes_of(Value(0.0)), tagged(ValueType::kDouble, "0\x1f"));
  EXPECT_EQ(bytes_of(Value(-0.0)), tagged(ValueType::kDouble, "-0\x1f"));
  EXPECT_EQ(bytes_of(Value(2.5)), tagged(ValueType::kDouble, "2.5\x1f"));
  EXPECT_EQ(bytes_of(Value(0.1)),
            tagged(ValueType::kDouble, "0.10000000000000001\x1f"));
  EXPECT_EQ(bytes_of(Value(5e-324)),
            tagged(ValueType::kDouble, "4.9406564584124654e-324\x1f"));
  EXPECT_EQ(bytes_of(Value(1e16)),
            tagged(ValueType::kDouble, "10000000000000000\x1f"));
  EXPECT_EQ(bytes_of(Value(1e300)),
            tagged(ValueType::kDouble, "1.0000000000000001e+300\x1f"));
  EXPECT_EQ(bytes_of(Value(DBL_MAX)),
            tagged(ValueType::kDouble, "1.7976931348623157e+308\x1f"));

  EXPECT_EQ(bytes_of(Value("")), tagged(ValueType::kChararray, "0:"));
  EXPECT_EQ(bytes_of(Value("a\tb")), tagged(ValueType::kChararray, "3:a\tb"));

  // {(1,'ab'),()} — fields back to back, each tuple closed by 0x1e.
  const Value bag(make_bag({Tuple({Value(std::int64_t{1}), Value("ab")}),
                            Tuple()}));
  const std::string bag_bytes =
      tagged(ValueType::kBag, "2[") + tagged(ValueType::kLong, "1\x1f") +
      tagged(ValueType::kChararray, "2:ab") + "\x1e" + "\x1e" + "]";
  EXPECT_EQ(bytes_of(bag), bag_bytes);
  EXPECT_EQ(bytes_of(Value(make_bag({}))), tagged(ValueType::kBag, "0[]"));

  // (-7, 0.5, null, {(1,'ab'),()}) — a boxed tuple nesting the bag.
  const Value boxed = Value::tuple_of(
      {Value(std::int64_t{-7}), Value(0.5), Value::null(), bag});
  EXPECT_EQ(bytes_of(boxed),
            tagged(ValueType::kTuple, "4(") +
                tagged(ValueType::kLong, "-7\x1f") +
                tagged(ValueType::kDouble, "0.5\x1f") + std::string(1, '\0') +
                bag_bytes + ")");
}

std::string printf_oracle(const Value& v) {
  char buf[64];
  switch (v.type()) {
    case ValueType::kLong:
      std::snprintf(buf, sizeof(buf), "%" PRId64, v.as_long());
      return tagged(ValueType::kLong, std::string(buf) + "\x1f");
    case ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
      return tagged(ValueType::kDouble, std::string(buf) + "\x1f");
    case ValueType::kChararray:
      std::snprintf(buf, sizeof(buf), "%zu", v.as_string().size());
      return tagged(ValueType::kChararray,
                    std::string(buf) + ":" + v.as_string());
    default:
      ADD_FAILURE() << "oracle covers scalars only";
      return {};
  }
}

/// A double drawn from one of four shapes: any finite bit pattern, a
/// plain decimal-range value, an integer-valued double, or a value with a
/// random binary exponent (subnormals included).
double random_double(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: {
      double d;
      do {
        const std::uint64_t bits = rng.next();
        std::memcpy(&d, &bits, sizeof(d));
      } while (!std::isfinite(d));
      return d;
    }
    case 1:
      return rng.uniform(-1e6, 1e6);
    case 2:
      return static_cast<double>(static_cast<std::int64_t>(rng.next()));
    default:
      return std::ldexp(rng.uniform(-1.0, 1.0),
                        static_cast<int>(rng.uniform_int(-1074, 1024)));
  }
}

TEST(CanonicalBytesTest, MatchesPrintfOracleOnRandomScalars) {
  Rng rng(20261017);
  constexpr int kRounds = 1 << 20;  // one long, one double, one string each
  std::string s;
  for (int i = 0; i < kRounds; ++i) {
    const Value l(static_cast<std::int64_t>(rng.next()));
    ASSERT_EQ(bytes_of(l), printf_oracle(l)) << "long round " << i;
    const Value d(random_double(rng));
    ASSERT_EQ(bytes_of(d), printf_oracle(d)) << "double round " << i;
    s.assign(static_cast<std::size_t>(rng.next_below(64)), 'x');
    const Value c(s);
    ASSERT_EQ(bytes_of(c), printf_oracle(c)) << "string round " << i;
  }
  for (const double d : {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX,
                         -DBL_MAX, DBL_EPSILON, 1e16, 1e17, 1e-5, 1e-4,
                         123456789012345678.0, 0.1, 1.0 / 3.0,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(bytes_of(Value(d)), printf_oracle(Value(d))) << d;
  }
}

// --- Ordering ------------------------------------------------------------
//
// A test-local copy of the type-rank comparator the ordering contract is
// defined by (null < numerics, cross-type < chararrays < bags by size then
// content < tuples), built only from the checked public accessors.

int reference_rank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kLong:
    case ValueType::kDouble:
      return 1;
    case ValueType::kChararray:
      return 2;
    case ValueType::kBag:
      return 3;
    case ValueType::kTuple:
      return 4;
  }
  return 5;
}

std::strong_ordering reference_order(const Value& a, const Value& b);

std::strong_ordering reference_order(const Tuple& a, const Tuple& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = reference_order(a.at(i), b.at(i));
    if (c != std::strong_ordering::equal) return c;
  }
  return a.size() <=> b.size();
}

std::strong_ordering reference_order(const Value& a, const Value& b) {
  const int ra = reference_rank(a.type());
  const int rb = reference_rank(b.type());
  if (ra != rb) return ra <=> rb;
  switch (a.type()) {
    case ValueType::kNull:
      return std::strong_ordering::equal;
    case ValueType::kLong:
    case ValueType::kDouble: {
      if (a.type() == ValueType::kLong && b.type() == ValueType::kLong) {
        return a.as_long() <=> b.as_long();
      }
      const double x = a.to_double();
      const double y = b.to_double();
      if (x < y) return std::strong_ordering::less;
      if (x > y) return std::strong_ordering::greater;
      return std::strong_ordering::equal;
    }
    case ValueType::kChararray:
      return a.as_string().compare(b.as_string()) <=> 0;
    case ValueType::kBag: {
      const auto& x = *a.as_bag();
      const auto& y = *b.as_bag();
      if (x.size() != y.size()) return x.size() <=> y.size();
      for (std::size_t i = 0; i < x.size(); ++i) {
        const auto c = reference_order(x[i], y[i]);
        if (c != std::strong_ordering::equal) return c;
      }
      return std::strong_ordering::equal;
    }
    case ValueType::kTuple:
      return reference_order(*a.as_tuple(), *b.as_tuple());
  }
  return std::strong_ordering::equal;
}

/// Small domains on purpose: ties (1 vs 1.0, equal strings, equal bags)
/// and cross-type numeric comparisons must come up often.
Value random_value(Rng& rng, int depth) {
  const std::uint64_t kind = rng.next_below(depth > 0 ? 6 : 4);
  switch (kind) {
    case 0:
      return Value::null();
    case 1:
      return Value(rng.uniform_int(-2, 2));
    case 2: {
      static constexpr double kDoubles[] = {-2.0, -0.5, 0.0, -0.0, 1.0, 1.5,
                                            2.0};
      return Value(kDoubles[rng.next_below(7)]);
    }
    case 3: {
      static constexpr const char* kStrings[] = {"", "a", "ab", "b"};
      return Value(kStrings[rng.next_below(4)]);
    }
    case 4: {
      std::vector<Tuple> rows(rng.next_below(3));
      for (Tuple& t : rows) {
        t.fields.resize(rng.next_below(3));
        for (Value& f : t.fields) f = random_value(rng, depth - 1);
      }
      return Value(make_bag(std::move(rows)));
    }
    default: {
      std::vector<Value> fields(rng.next_below(3));
      for (Value& f : fields) f = random_value(rng, depth - 1);
      return Value::tuple_of(std::move(fields));
    }
  }
}

TEST(ValueOrderingTest, MatchesReferenceComparatorOnRandomMixedValues) {
  Rng rng(7);
  std::vector<Value> pool;
  for (int i = 0; i < 600; ++i) pool.push_back(random_value(rng, 2));
  // The cross-type equalities the reference defines.
  pool.push_back(Value(std::int64_t{1}));
  pool.push_back(Value(1.0));
  std::size_t equal_pairs = 0;
  for (const Value& a : pool) {
    for (const Value& b : pool) {
      const auto expect = reference_order(a, b);
      ASSERT_EQ(a <=> b, expect) << a.to_string() << " vs " << b.to_string();
      ASSERT_EQ(a == b, expect == std::strong_ordering::equal);
      if (expect == std::strong_ordering::equal) ++equal_pairs;
    }
  }
  EXPECT_EQ(Value(std::int64_t{1}) <=> Value(1.0), std::strong_ordering::equal);
  EXPECT_GT(equal_pairs, pool.size());  // ties beyond the diagonal occur
}

}  // namespace
}  // namespace clusterbft::dataflow
