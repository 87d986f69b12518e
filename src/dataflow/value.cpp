#include "dataflow/value.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

namespace clusterbft::dataflow {

const Value& Tuple::at(std::size_t i) const {
  CBFT_CHECK_MSG(i < fields.size(), "tuple field index out of range");
  return fields[i];
}

Value& Tuple::at(std::size_t i) {
  CBFT_CHECK_MSG(i < fields.size(), "tuple field index out of range");
  return fields[i];
}

bool operator==(const Tuple& a, const Tuple& b) { return a.fields == b.fields; }

std::strong_ordering operator<=>(const Tuple& a, const Tuple& b) {
  const std::size_t n = std::min(a.fields.size(), b.fields.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = a.fields[i] <=> b.fields[i];
    if (c != std::strong_ordering::equal) return c;
  }
  return a.fields.size() <=> b.fields.size();
}

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kLong:
      return "long";
    case ValueType::kDouble:
      return "double";
    case ValueType::kChararray:
      return "chararray";
    case ValueType::kBag:
      return "bag";
    case ValueType::kTuple:
      return "tuple";
  }
  return "?";
}

std::int64_t Value::as_long() const {
  CBFT_CHECK_MSG(std::holds_alternative<std::int64_t>(v_),
                 "value is not a long");
  return std::get<std::int64_t>(v_);
}

double Value::as_double() const {
  CBFT_CHECK_MSG(std::holds_alternative<double>(v_), "value is not a double");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  CBFT_CHECK_MSG(std::holds_alternative<std::string>(v_),
                 "value is not a chararray");
  return std::get<std::string>(v_);
}

const Bag& Value::as_bag() const {
  CBFT_CHECK_MSG(std::holds_alternative<Bag>(v_), "value is not a bag");
  return std::get<Bag>(v_);
}

const BoxedTuple& Value::as_tuple() const {
  CBFT_CHECK_MSG(std::holds_alternative<BoxedTuple>(v_),
                 "value is not a tuple");
  return std::get<BoxedTuple>(v_);
}

double Value::to_double() const {
  if (std::holds_alternative<std::int64_t>(v_)) {
    return static_cast<double>(std::get<std::int64_t>(v_));
  }
  CBFT_CHECK_MSG(std::holds_alternative<double>(v_),
                 "value is not numeric");
  return std::get<double>(v_);
}

namespace {

/// Cross-type rank used for ordering between different value types.
int type_rank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kLong:
    case ValueType::kDouble:
      return 1;  // numerics compare with each other
    case ValueType::kChararray:
      return 2;
    case ValueType::kBag:
      return 3;
    case ValueType::kTuple:
      return 4;
  }
  return 5;
}

std::strong_ordering order_doubles(double a, double b) {
  // Totalise: we never produce NaN (division by zero yields null upstream),
  // but keep this defensive and deterministic anyway.
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::strong_ordering tuple_tiebreak(const Tuple& a, const Tuple& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = canonical_tiebreak(a.fields[i], b.fields[i]);
    if (c != std::strong_ordering::equal) return c;
  }
  return std::strong_ordering::equal;
}

}  // namespace

bool operator==(const Value& a, const Value& b) {
  return (a <=> b) == std::strong_ordering::equal;
}

std::strong_ordering operator<=>(const Value& a, const Value& b) {
  // Dispatch on the variant index directly: the alternatives are known
  // here, so the checked accessors' type tests would only repeat it.
  const ValueType ta = a.type();
  const ValueType tb = b.type();
  if (ta != tb) {
    const int ra = type_rank(ta);
    const int rb = type_rank(tb);
    if (ra != rb) return ra <=> rb;
    // Same rank, different tags: a long against a double.
    return order_doubles(a.to_double(), b.to_double());
  }
  switch (ta) {
    case ValueType::kNull:
      return std::strong_ordering::equal;
    case ValueType::kLong:
      return *std::get_if<std::int64_t>(&a.v_) <=>
             *std::get_if<std::int64_t>(&b.v_);
    case ValueType::kDouble:
      return order_doubles(*std::get_if<double>(&a.v_),
                           *std::get_if<double>(&b.v_));
    case ValueType::kChararray:
      return std::get_if<std::string>(&a.v_)->compare(
                 *std::get_if<std::string>(&b.v_)) <=> 0;
    case ValueType::kBag: {
      const auto& ba = **std::get_if<Bag>(&a.v_);
      const auto& bb = **std::get_if<Bag>(&b.v_);
      if (ba.size() != bb.size()) return ba.size() <=> bb.size();
      for (std::size_t i = 0; i < ba.size(); ++i) {
        const auto c = ba[i] <=> bb[i];
        if (c != std::strong_ordering::equal) return c;
      }
      return std::strong_ordering::equal;
    }
    case ValueType::kTuple:
      return **std::get_if<BoxedTuple>(&a.v_) <=>
             **std::get_if<BoxedTuple>(&b.v_);
  }
  return std::strong_ordering::equal;
}

std::strong_ordering canonical_tiebreak(const Value& a, const Value& b) {
  if (a.type() != b.type()) return a.type() <=> b.type();
  switch (a.type()) {
    case ValueType::kDouble: {
      const double x = a.as_double();
      const double y = b.as_double();
      if (std::signbit(x) != std::signbit(y)) {
        return std::signbit(x) ? std::strong_ordering::less
                               : std::strong_ordering::greater;
      }
      return std::bit_cast<std::uint64_t>(x) <=> std::bit_cast<std::uint64_t>(y);
    }
    case ValueType::kBag: {
      const auto& x = *a.as_bag();
      const auto& y = *b.as_bag();
      for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
        const auto c = tuple_tiebreak(x[i], y[i]);
        if (c != std::strong_ordering::equal) return c;
      }
      return std::strong_ordering::equal;
    }
    case ValueType::kTuple:
      return tuple_tiebreak(*a.as_tuple(), *b.as_tuple());
    default:
      return std::strong_ordering::equal;
  }
}

std::strong_ordering canonical_order(const Value& a, const Value& b) {
  const auto c = a <=> b;
  return c != std::strong_ordering::equal ? c : canonical_tiebreak(a, b);
}

std::strong_ordering canonical_order(const Tuple& a, const Tuple& b) {
  const auto c = a <=> b;
  return c != std::strong_ordering::equal ? c : tuple_tiebreak(a, b);
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kLong:
      return std::to_string(as_long());
    case ValueType::kDouble: {
      char buf[32];
      const auto r = std::to_chars(buf, buf + sizeof(buf), as_double(),
                                   std::chars_format::general, 6);
      return std::string(buf, r.ptr);
    }
    case ValueType::kChararray:
      return as_string();
    case ValueType::kBag: {
      std::string out = "{";
      const auto& bag = *as_bag();
      for (std::size_t i = 0; i < bag.size(); ++i) {
        if (i > 0) out += ",";
        out += "(";
        for (std::size_t j = 0; j < bag[i].size(); ++j) {
          if (j > 0) out += ",";
          out += bag[i].at(j).to_string();
        }
        out += ")";
      }
      out += "}";
      return out;
    }
    case ValueType::kTuple: {
      std::string out = "(";
      const Tuple& t = *as_tuple();
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ",";
        out += t.at(i).to_string();
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

namespace {

/// Appends `x` in decimal. std::to_chars is specified to produce exactly
/// what printf("%" PRId64) / ("%zu") does, without the format parsing.
template <typename Int>
void append_decimal(std::string& out, Int x) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), x);
  out.append(buf, r.ptr);
}

}  // namespace

void Value::serialize(std::string& out) const {
  out.push_back(static_cast<char>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kLong:
      append_decimal(out, *std::get_if<std::int64_t>(&v_));
      out.push_back('\x1f');
      break;
    case ValueType::kDouble: {
      // general format at precision 17 is printf's %.17g by definition
      // ([charconv.to.chars]): it round-trips IEEE doubles exactly, so
      // replicas computing the same double serialise identically.
      char buf[32];
      const auto r =
          std::to_chars(buf, buf + sizeof(buf), *std::get_if<double>(&v_),
                        std::chars_format::general, 17);
      out.append(buf, r.ptr);
      out.push_back('\x1f');
      break;
    }
    case ValueType::kChararray: {
      const auto& s = *std::get_if<std::string>(&v_);
      append_decimal(out, s.size());
      out.push_back(':');
      out += s;
      break;
    }
    case ValueType::kBag: {
      const auto& bag = **std::get_if<Bag>(&v_);
      append_decimal(out, bag.size());
      out.push_back('[');
      for (const Tuple& t : bag) {
        for (const Value& v : t.fields) v.serialize(out);
        out.push_back('\x1e');
      }
      out.push_back(']');
      break;
    }
    case ValueType::kTuple: {
      const Tuple& t = **std::get_if<BoxedTuple>(&v_);
      append_decimal(out, t.size());
      out.push_back('(');
      for (const Value& v : t.fields) v.serialize(out);
      out.push_back(')');
      break;
    }
  }
}

std::string serialize_tuple(const Tuple& t) {
  std::string out;
  out.reserve(t.size() * 12);
  for (const Value& v : t.fields) v.serialize(out);
  return out;
}

void serialize_tuple_into(const Tuple& t, std::string& out) {
  out.clear();
  for (const Value& v : t.fields) v.serialize(out);
}

std::uint64_t tuple_key_hash(const Tuple& t, std::size_t num_fields) {
  const std::size_t n =
      (num_fields == 0) ? t.size() : std::min(num_fields, t.size());
  std::string buf;
  for (std::size_t i = 0; i < n; ++i) t.at(i).serialize(buf);
  return fnv1a(buf);
}

std::uint64_t tuple_cols_hash(const Tuple& t,
                              const std::vector<std::size_t>& cols,
                              std::string& buf) {
  buf.clear();
  for (const std::size_t c : cols) t.at(c).serialize(buf);
  return fnv1a(buf);
}

}  // namespace clusterbft::dataflow
