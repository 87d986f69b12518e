#include "dataflow/expr.hpp"

#include <cmath>

#include "common/check.hpp"
#include "dataflow/udf.hpp"

namespace clusterbft::dataflow {

const char* to_string(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kMod:
      return "%";
    case BinOp::kEq:
      return "==";
    case BinOp::kNe:
      return "!=";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}

const char* to_string(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

ExprPtr Expr::column_ref(std::size_t index, std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kColumn;
  e->column = index;
  e->column_name = std::move(name);
  return e;
}

ExprPtr Expr::literal_of(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::binary(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kBinary;
  e->bin_op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

ExprPtr Expr::unary(UnOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUnary;
  e->un_op = op;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::is_null(ExprPtr operand, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kIsNull;
  e->negated = negated;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::aggregate(AggFunc f, std::size_t bag_column,
                        std::optional<std::size_t> inner_column) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kAggregate;
  e->agg_func = f;
  e->bag_column = bag_column;
  e->inner_column = inner_column;
  return e;
}

ExprPtr Expr::trunc(ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kTrunc;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::udf_scalar(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUdfScalar;
  e->udf_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::udf_aggregate(std::string name, std::size_t bag_column,
                            std::optional<std::size_t> inner_column) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUdfAggregate;
  e->udf_name = std::move(name);
  e->bag_column = bag_column;
  e->inner_column = inner_column;
  return e;
}

ExprPtr Expr::row_hash() {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kRowHash;
  return e;
}

bool Expr::contains_aggregate() const {
  if (kind == Kind::kAggregate || kind == Kind::kUdfAggregate) return true;
  if (lhs && lhs->contains_aggregate()) return true;
  if (rhs && rhs->contains_aggregate()) return true;
  for (const ExprPtr& a : args) {
    if (a->contains_aggregate()) return true;
  }
  return false;
}

std::string Expr::to_string() const {
  switch (kind) {
    case Kind::kColumn:
      return column_name.empty() ? "$" + std::to_string(column) : column_name;
    case Kind::kLiteral:
      return literal.type() == ValueType::kChararray
                 ? "'" + literal.to_string() + "'"
                 : literal.to_string();
    case Kind::kBinary:
      return "(" + lhs->to_string() + " " +
             clusterbft::dataflow::to_string(bin_op) + " " + rhs->to_string() +
             ")";
    case Kind::kUnary:
      return std::string(un_op == UnOp::kNot ? "NOT " : "-") +
             lhs->to_string();
    case Kind::kIsNull:
      return lhs->to_string() + (negated ? " IS NOT NULL" : " IS NULL");
    case Kind::kAggregate: {
      std::string s = clusterbft::dataflow::to_string(agg_func);
      s += "($" + std::to_string(bag_column);
      if (inner_column) s += "." + std::to_string(*inner_column);
      s += ")";
      return s;
    }
    case Kind::kTrunc:
      return "TRUNC(" + lhs->to_string() + ")";
    case Kind::kUdfScalar: {
      std::string s = udf_name + "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) s += ", ";
        s += args[i]->to_string();
      }
      return s + ")";
    }
    case Kind::kUdfAggregate: {
      std::string s = udf_name + "($" + std::to_string(bag_column);
      if (inner_column) s += "." + std::to_string(*inner_column);
      return s + ")";
    }
    case Kind::kRowHash:
      return "ROWHASH()";
  }
  return "?";
}

namespace {

bool both_long(const Value& a, const Value& b) {
  return a.type() == ValueType::kLong && b.type() == ValueType::kLong;
}

Value eval_arith(BinOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::null();
  switch (op) {
    case BinOp::kAdd:
      if (both_long(a, b)) return Value(a.as_long() + b.as_long());
      return Value(a.to_double() + b.to_double());
    case BinOp::kSub:
      if (both_long(a, b)) return Value(a.as_long() - b.as_long());
      return Value(a.to_double() - b.to_double());
    case BinOp::kMul:
      if (both_long(a, b)) return Value(a.as_long() * b.as_long());
      return Value(a.to_double() * b.to_double());
    case BinOp::kDiv:
      if (both_long(a, b)) {
        if (b.as_long() == 0) return Value::null();
        return Value(a.as_long() / b.as_long());
      }
      if (b.to_double() == 0.0) return Value::null();
      return Value(a.to_double() / b.to_double());
    case BinOp::kMod: {
      CBFT_CHECK_MSG(both_long(a, b), "% requires long operands");
      if (b.as_long() == 0) return Value::null();
      return Value(a.as_long() % b.as_long());
    }
    default:
      CBFT_CHECK_MSG(false, "not an arithmetic op");
  }
  return Value::null();
}

Value eval_compare(BinOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::null();
  const auto c = a <=> b;
  bool result = false;
  switch (op) {
    case BinOp::kEq:
      result = c == std::strong_ordering::equal;
      break;
    case BinOp::kNe:
      result = c != std::strong_ordering::equal;
      break;
    case BinOp::kLt:
      result = c == std::strong_ordering::less;
      break;
    case BinOp::kLe:
      result = c != std::strong_ordering::greater;
      break;
    case BinOp::kGt:
      result = c == std::strong_ordering::greater;
      break;
    case BinOp::kGe:
      result = c != std::strong_ordering::less;
      break;
    default:
      CBFT_CHECK_MSG(false, "not a comparison op");
  }
  return Value(static_cast<std::int64_t>(result ? 1 : 0));
}

Value eval_aggregate(const Expr& e, const Tuple& input) {
  const Value& bag_val = input.at(e.bag_column);
  CBFT_CHECK_MSG(bag_val.type() == ValueType::kBag,
                 "aggregate applied to non-bag field");
  const auto& bag = *bag_val.as_bag();

  if (e.agg_func == AggFunc::kCount && !e.inner_column) {
    return Value(static_cast<std::int64_t>(bag.size()));
  }

  CBFT_CHECK_MSG(e.inner_column.has_value(),
                 "SUM/AVG/MIN/MAX need a field within the bag");
  const std::size_t col = *e.inner_column;

  std::int64_t count = 0;
  bool all_long = true;
  std::int64_t lsum = 0;
  double dsum = 0;
  std::optional<Value> best;

  for (const Tuple& t : bag) {
    const Value& v = t.at(col);
    if (v.is_null()) continue;  // Pig aggregates skip nulls
    ++count;
    switch (e.agg_func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == ValueType::kLong) {
          // Two's-complement wrap, defined (and order-independent, which
          // fold_group_aggregates relies on) where signed `+=` is not.
          lsum = static_cast<std::int64_t>(static_cast<std::uint64_t>(lsum) +
                                           static_cast<std::uint64_t>(v.as_long()));
        } else {
          all_long = false;
        }
        dsum += v.to_double();
        break;
      case AggFunc::kMin:
        if (!best || v < *best) best = v;
        break;
      case AggFunc::kMax:
        if (!best || v > *best) best = v;
        break;
    }
  }

  switch (e.agg_func) {
    case AggFunc::kCount:
      return Value(count);
    case AggFunc::kSum:
      if (count == 0) return Value::null();
      return all_long ? Value(lsum) : Value(dsum);
    case AggFunc::kAvg:
      if (count == 0) return Value::null();
      // Sum-then-divide (not a moving average): the deterministic scheme
      // §5.4 prescribes. Bags are canonically sorted by the engine, so the
      // double sum itself is also order-stable across replicas.
      return Value(dsum / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return best ? *best : Value::null();
  }
  return Value::null();
}

}  // namespace

Value eval_expr(const Expr& e, const Tuple& input) {
  switch (e.kind) {
    case Expr::Kind::kColumn:
      return input.at(e.column);
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kBinary: {
      if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
        const Value l = eval_expr(*e.lhs, input);
        const bool lt = is_truthy(l);
        if (e.bin_op == BinOp::kAnd && !lt)
          return Value(static_cast<std::int64_t>(0));
        if (e.bin_op == BinOp::kOr && lt)
          return Value(static_cast<std::int64_t>(1));
        const Value r = eval_expr(*e.rhs, input);
        return Value(static_cast<std::int64_t>(is_truthy(r) ? 1 : 0));
      }
      const Value l = eval_expr(*e.lhs, input);
      const Value r = eval_expr(*e.rhs, input);
      switch (e.bin_op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod:
          return eval_arith(e.bin_op, l, r);
        default:
          return eval_compare(e.bin_op, l, r);
      }
    }
    case Expr::Kind::kUnary: {
      const Value v = eval_expr(*e.lhs, input);
      if (e.un_op == UnOp::kNot) {
        if (v.is_null()) return Value::null();
        return Value(static_cast<std::int64_t>(is_truthy(v) ? 0 : 1));
      }
      if (v.is_null()) return Value::null();
      if (v.type() == ValueType::kLong) return Value(-v.as_long());
      return Value(-v.to_double());
    }
    case Expr::Kind::kIsNull: {
      const Value v = eval_expr(*e.lhs, input);
      const bool isnull = v.is_null();
      return Value(
          static_cast<std::int64_t>((e.negated ? !isnull : isnull) ? 1 : 0));
    }
    case Expr::Kind::kAggregate:
      return eval_aggregate(e, input);
    case Expr::Kind::kTrunc: {
      const Value v = eval_expr(*e.lhs, input);
      if (v.is_null()) return Value::null();
      if (v.type() == ValueType::kLong) return v;
      return Value(static_cast<std::int64_t>(std::trunc(v.to_double())));
    }
    case Expr::Kind::kUdfScalar: {
      const auto* udf = UdfRegistry::instance().find_scalar(e.udf_name);
      CBFT_CHECK_MSG(udf != nullptr, "unregistered scalar UDF: " + e.udf_name);
      std::vector<Value> argv;
      argv.reserve(e.args.size());
      for (const ExprPtr& a : e.args) argv.push_back(eval_expr(*a, input));
      return udf->fn(argv);
    }
    case Expr::Kind::kUdfAggregate: {
      const auto* udf = UdfRegistry::instance().find_aggregate(e.udf_name);
      CBFT_CHECK_MSG(udf != nullptr,
                     "unregistered aggregate UDF: " + e.udf_name);
      const Value& bag_val = input.at(e.bag_column);
      CBFT_CHECK_MSG(bag_val.type() == ValueType::kBag,
                     "aggregate UDF applied to non-bag field");
      return udf->fn(*bag_val.as_bag(), e.inner_column);
    }
    case Expr::Kind::kRowHash:
      return Value(static_cast<std::int64_t>(tuple_key_hash(input, 0) %
                                             1000000));
  }
  return Value::null();
}

bool is_truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kLong:
      return v.as_long() != 0;
    case ValueType::kDouble:
      return v.as_double() != 0.0;
    default:
      return true;
  }
}

ValueType result_type(const Expr& e, const Schema& input) {
  switch (e.kind) {
    case Expr::Kind::kColumn:
      return e.column < input.size() ? input.at(e.column).type
                                     : ValueType::kNull;
    case Expr::Kind::kLiteral:
      return e.literal.type();
    case Expr::Kind::kBinary:
      switch (e.bin_op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv: {
          const auto lt = result_type(*e.lhs, input);
          const auto rt = result_type(*e.rhs, input);
          return (lt == ValueType::kDouble || rt == ValueType::kDouble)
                     ? ValueType::kDouble
                     : ValueType::kLong;
        }
        default:
          return ValueType::kLong;  // mod, comparisons, logicals
      }
    case Expr::Kind::kUnary:
      return e.un_op == UnOp::kNot ? ValueType::kLong
                                   : result_type(*e.lhs, input);
    case Expr::Kind::kIsNull:
      return ValueType::kLong;
    case Expr::Kind::kAggregate:
      switch (e.agg_func) {
        case AggFunc::kCount:
          return ValueType::kLong;
        case AggFunc::kAvg:
          return ValueType::kDouble;
        default:
          return ValueType::kNull;  // depends on the bag field type
      }
    case Expr::Kind::kTrunc:
      return ValueType::kLong;
    case Expr::Kind::kUdfScalar: {
      const auto* udf = UdfRegistry::instance().find_scalar(e.udf_name);
      return udf ? udf->result_type : ValueType::kNull;
    }
    case Expr::Kind::kUdfAggregate: {
      const auto* udf = UdfRegistry::instance().find_aggregate(e.udf_name);
      return udf ? udf->result_type : ValueType::kNull;
    }
    case Expr::Kind::kRowHash:
      return ValueType::kLong;
  }
  return ValueType::kNull;
}

}  // namespace clusterbft::dataflow
