#include "dataflow/ops_eval.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "dataflow/expr.hpp"
#include "dataflow/key_index.hpp"

namespace clusterbft::dataflow {

Relation eval_filter(const OpNode& op, Relation in) {
  // Compacts the owned rows in place: kept rows are moved, never copied.
  std::vector<Tuple>& rows = in.rows();
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&op](const Tuple& t) {
                              return !is_truthy(eval_expr(*op.predicate, t));
                            }),
             rows.end());
  return Relation(op.schema, std::move(rows));
}

/// Append GENERATE item `g`'s value `v` to the output row `o`: a
/// FLATTENed tuple contributes its fields, anything else itself.
static void append_generated(Tuple& o, const GenField& g, Value v) {
  if (g.flatten && v.type() == ValueType::kTuple) {
    for (const Value& f : v.as_tuple()->fields) o.fields.push_back(f);
  } else {
    o.fields.push_back(std::move(v));
  }
}

Relation eval_foreach(const OpNode& op, const Relation& in) {
  Relation out(op.schema);
  out.reserve(in.size());
  for (const Tuple& t : in.rows()) {
    Tuple o;
    o.fields.reserve(op.schema.size());
    for (const GenField& g : op.gen) append_generated(o, g, eval_expr(*g.expr, t));
    CBFT_CHECK_MSG(o.size() == op.schema.size(),
                   "FLATTEN arity mismatch at runtime");
    out.add(std::move(o));
  }
  return out;
}

/// The GROUP/JOIN key of a tuple: the scalar itself for one key column,
/// a nested tuple for several (Pig semantics).
static Value extract_key(const Tuple& t, const std::vector<std::size_t>& keys) {
  CBFT_CHECK(!keys.empty());
  if (keys.size() == 1) return t.at(keys[0]);
  std::vector<Value> fields;
  fields.reserve(keys.size());
  for (std::size_t k : keys) fields.push_back(t.at(k));
  return Value::tuple_of(std::move(fields));
}

namespace {

/// First-occurrence entry ids ordered by canonical key *value* — the
/// deterministic emission order the ordered-map implementation used to
/// provide for free, now paid only over distinct keys. `key_of(id)` must
/// return the key Value of entry `id`. Entries have distinct canonical
/// key bytes, so canonical_order leaves no tie for input order to break.
/// All-long keys (distinct bytes, so distinct longs) sort as plain
/// (long, id) pairs.
template <typename KeyOf>
std::vector<std::size_t> key_sorted_ids(std::size_t n, KeyOf key_of) {
  std::vector<Value> keys;
  keys.reserve(n);
  for (std::size_t id = 0; id < n; ++id) keys.push_back(key_of(id));
  std::vector<std::size_t> order(n);
  std::vector<std::pair<std::int64_t, std::size_t>> longs;
  longs.reserve(n);
  for (std::size_t id = 0; id < n && keys[id].if_long() != nullptr; ++id) {
    longs.emplace_back(*keys[id].if_long(), id);
  }
  if (longs.size() == n) {
    std::sort(longs.begin(), longs.end());
    for (std::size_t i = 0; i < n; ++i) order[i] = longs[i].second;
    return order;
  }
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&keys](std::size_t a, std::size_t b) {
              return canonical_order(keys[a], keys[b]) < 0;
            });
  return order;
}

/// The columns a bag sort compares: every column below `width` (the
/// widest row) except the bag's key columns.
std::vector<std::size_t> non_key_columns(
    std::size_t width, const std::vector<std::size_t>& keys) {
  std::vector<std::size_t> cols;
  for (std::size_t c = 0; c < width; ++c) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) cols.push_back(c);
  }
  return cols;
}

/// Sorts a bag into canonical full-tuple order. Every row of a bag has
/// byte-identical key columns — that is how it got into the bag — so
/// comparing them could only return `equal`; comparing the remaining
/// columns `cols` (ascending), then the arity, then canonical_tiebreak
/// over `cols` yields exactly canonical_order with fewer comparisons.
void sort_bag(std::vector<Tuple>& rows, const std::vector<std::size_t>& cols) {
  std::sort(rows.begin(), rows.end(), [&cols](const Tuple& a, const Tuple& b) {
    const std::size_t n = std::min(a.size(), b.size());
    for (const std::size_t c : cols) {
      if (c >= n) break;
      const auto o = a.fields[c] <=> b.fields[c];
      if (o != std::strong_ordering::equal) return o < 0;
    }
    if (a.size() != b.size()) return a.size() < b.size();
    for (const std::size_t c : cols) {
      if (c >= n) break;
      const auto o = canonical_tiebreak(a.fields[c], b.fields[c]);
      if (o != std::strong_ordering::equal) return o < 0;
    }
    return false;
  });
}

/// Dense ids for int64 keys, in first-occurrence order: open addressing
/// with linear probing, slots found by Fibonacci hashing of the key. No
/// pointers or seeds, so the ids are the same on every replica.
class LongIndex {
 public:
  explicit LongIndex(std::size_t expected_keys) {
    std::size_t cap = 16;
    while (cap < 2 * expected_keys) cap *= 2;
    resize(cap);
  }

  /// Id of `key`, inserting it on first sight (a fresh id is size()).
  std::uint32_t intern(std::int64_t key) {
    for (std::size_t s = slot(key);; s = (s + 1) & mask_) {
      const std::uint32_t e = slots_[s];
      if (e == 0) {
        keys_.push_back(key);
        slots_[s] = static_cast<std::uint32_t>(keys_.size());
        if (2 * keys_.size() > slots_.size()) resize(2 * slots_.size());
        return static_cast<std::uint32_t>(keys_.size() - 1);
      }
      if (keys_[e - 1] == key) return e - 1;
    }
  }

  std::size_t size() const { return keys_.size(); }
  std::int64_t key(std::uint32_t id) const { return keys_[id]; }

 private:
  std::size_t slot(std::int64_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void resize(std::size_t cap) {
    slots_.assign(cap, 0);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (std::size_t id = 0; id < keys_.size(); ++id) {
      std::size_t s = slot(keys_[id]);
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = static_cast<std::uint32_t>(id + 1);
    }
  }

  std::vector<std::int64_t> keys_;   ///< by id
  std::vector<std::uint32_t> slots_; ///< id + 1; 0 = empty
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

/// The packed GROUP: one key column and one non-key column, every row of
/// arity 2 with a long in both (the Fig. 9 follower shape). Four steps,
/// none of which serialises a key or compares two Values:
/// 1. one sequential pass interns each row's key as an int64 and records
///    its bag id and its value;
/// 2. the distinct keys are sorted, which fixes each bag's run of slots;
/// 3. the (value, row) pairs are placed into their bag's run and each run
///    is sorted by value — rows that tie on it are byte-identical, so
///    their order cannot show;
/// 4. one gather moves the rows into their bags.
/// Returns nullopt, leaving `rows` untouched, as soon as a row does not
/// qualify; the caller then groups generically.
std::optional<Relation> group_packed_longs(const OpNode& op,
                                           std::vector<Tuple>& rows) {
  if (op.group_keys.size() != 1 || op.group_keys[0] > 1 ||
      rows.size() >= std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  const std::size_t kc = op.group_keys[0];
  const std::size_t vc = 1 - kc;
  const std::size_t n = rows.size();
  LongIndex idx(n / 4 + 1);
  std::vector<std::uint32_t> bag_of(n);
  std::vector<std::int64_t> value_of(n);
  std::vector<std::uint32_t> sizes;
  for (std::size_t r = 0; r < n; ++r) {
    const Tuple& t = rows[r];
    if (t.size() != 2) return std::nullopt;
    const std::int64_t* k = t.fields[kc].if_long();
    const std::int64_t* v = t.fields[vc].if_long();
    if (k == nullptr || v == nullptr) return std::nullopt;
    const std::uint32_t id = idx.intern(*k);
    if (id == sizes.size()) sizes.push_back(0);
    ++sizes[id];
    bag_of[r] = id;
    value_of[r] = *v;
  }
  std::vector<std::pair<std::int64_t, std::uint32_t>> keys;
  keys.reserve(idx.size());
  for (std::uint32_t id = 0; id < idx.size(); ++id) {
    keys.emplace_back(idx.key(id), id);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint32_t> next(idx.size());  // per bag: its next free slot
  std::uint32_t offset = 0;
  for (const auto& [key, id] : keys) {
    next[id] = offset;
    offset += sizes[id];
  }
  std::vector<std::pair<std::int64_t, std::uint32_t>> placed(n);
  for (std::size_t r = 0; r < n; ++r) {
    placed[next[bag_of[r]]++] = {value_of[r], static_cast<std::uint32_t>(r)};
  }
  Relation out(op.schema);
  out.reserve(keys.size());
  auto run = placed.begin();
  for (const auto& [key, id] : keys) {
    const auto end = run + sizes[id];
    std::sort(run, end, [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    std::vector<Tuple> bag;
    bag.reserve(sizes[id]);
    for (; run != end; ++run) bag.push_back(std::move(rows[run->second]));
    Tuple o;
    o.fields.reserve(2);
    o.fields.push_back(Value(key));
    o.fields.push_back(
        Value(std::make_shared<const std::vector<Tuple>>(std::move(bag))));
    out.add(std::move(o));
  }
  return out;
}

}  // namespace

Relation eval_group(const OpNode& op, Relation in) {
  // Hash-partitioned grouping on canonical key bytes (serialisation is
  // injective, so byte equality == key equality). Groups are emitted in
  // canonical key order with canonically sorted bags, which makes the
  // result independent of the input row order — replicas fed the shuffle
  // in different map-completion orders still produce identical bytes.
  // The rows are owned, so each moves into its bag, sized up front from
  // a first pass that interns every row's key.
  std::vector<Tuple>& rows = in.rows();
  if (auto packed = group_packed_longs(op, rows)) return std::move(*packed);
  KeyIndex idx(rows.size() / 4 + 1);
  std::vector<std::size_t> bag_of(rows.size());
  std::vector<std::size_t> sizes;
  std::size_t width = 0;
  std::string buf;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint64_t h = tuple_cols_hash(rows[r], op.group_keys, buf);
    const std::size_t id = idx.intern(buf, h);
    if (id == sizes.size()) sizes.push_back(0);
    ++sizes[id];
    bag_of[r] = id;
    width = std::max(width, rows[r].size());
  }
  std::vector<std::vector<Tuple>> bags(sizes.size());
  for (std::size_t id = 0; id < bags.size(); ++id) bags[id].reserve(sizes[id]);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    bags[bag_of[r]].push_back(std::move(rows[r]));
  }
  // Any row of a bag carries its key (see sort_bag).
  const auto order = key_sorted_ids(idx.size(), [&](std::size_t id) {
    return extract_key(bags[id].front(), op.group_keys);
  });
  const std::vector<std::size_t> cols = non_key_columns(width, op.group_keys);
  Relation out(op.schema);
  out.reserve(order.size());
  for (const std::size_t id : order) {
    Tuple o;
    o.fields.push_back(extract_key(bags[id].front(), op.group_keys));
    sort_bag(bags[id], cols);
    o.fields.push_back(Value(
        std::make_shared<const std::vector<Tuple>>(std::move(bags[id]))));
    out.add(std::move(o));
  }
  return out;
}

namespace {

/// One folded aggregate of one group.
struct Fold {
  std::int64_t count = 0;       ///< rows (COUNT of the bag) or non-nulls
  std::uint64_t sum = 0;        ///< SUM over longs, wrapping as the bag path
  const Value* best = nullptr;  ///< MIN/MAX so far, a value of the input
};

/// A GENERATE item the fold computes: `group`, or COUNT/SUM/MIN/MAX
/// applied directly to the bag column.
bool foldable(const GenField& g) {
  const Expr& e = *g.expr;
  if (e.kind == Expr::Kind::kColumn) return e.column == 0;
  return e.kind == Expr::Kind::kAggregate && e.bag_column == 1 &&
         e.agg_func != AggFunc::kAvg &&
         (e.agg_func == AggFunc::kCount || e.inner_column.has_value());
}

/// Fold row `t` of a group into `f`, the state of aggregate `e`. False
/// when the row breaks the guard under which folding in input order gives
/// the bag path's bytes: SUM over a non-long; MIN/MAX over anything but
/// one type, long or chararray, per group; an inner column past the row.
bool fold_row(const Expr& e, const Tuple& t, Fold& f) {
  if (e.kind == Expr::Kind::kColumn) return true;
  if (!e.inner_column) {
    ++f.count;
    return true;
  }
  if (*e.inner_column >= t.size()) return false;
  const Value& v = t.fields[*e.inner_column];
  if (v.is_null()) return true;  // Pig aggregates skip nulls
  ++f.count;
  switch (e.agg_func) {
    case AggFunc::kCount:
      return true;
    case AggFunc::kSum:
      if (v.type() != ValueType::kLong) return false;
      f.sum += static_cast<std::uint64_t>(v.as_long());
      return true;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (v.type() != ValueType::kLong && v.type() != ValueType::kChararray) {
        return false;
      }
      if (f.best == nullptr) {
        f.best = &v;
        return true;
      }
      if (f.best->type() != v.type()) return false;
      const auto c = v <=> *f.best;
      if (e.agg_func == AggFunc::kMin ? c < 0 : c > 0) f.best = &v;
      return true;
    }
    case AggFunc::kAvg:
      return false;
  }
  return false;
}

/// The value aggregate `e` takes over a group folded into `f`.
Value folded_value(const Expr& e, const Fold& f) {
  switch (e.agg_func) {
    case AggFunc::kCount:
      return Value(f.count);
    case AggFunc::kSum:
      if (f.count == 0) return Value::null();
      return Value(static_cast<std::int64_t>(f.sum));
    default:
      return f.best != nullptr ? *f.best : Value::null();
  }
}

}  // namespace

std::optional<Relation> fold_group_aggregates(const OpNode& group,
                                              const OpNode& consumer,
                                              const Relation& in) {
  if (consumer.kind != OpKind::kForeach ||
      !std::all_of(consumer.gen.begin(), consumer.gen.end(), foldable)) {
    return std::nullopt;
  }
  const std::vector<Tuple>& rows = in.rows();
  const std::size_t width = consumer.gen.size();
  KeyIndex idx(rows.size() / 4 + 1);
  std::vector<std::size_t> first_row;  // per group: a row carrying its key
  std::vector<Fold> folds;             // [group * width + item]
  std::string buf;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint64_t h = tuple_cols_hash(rows[r], group.group_keys, buf);
    const std::size_t id = idx.intern(buf, h);
    if (id == first_row.size()) {
      first_row.push_back(r);
      folds.resize(folds.size() + width);
    }
    for (std::size_t i = 0; i < width; ++i) {
      if (!fold_row(*consumer.gen[i].expr, rows[r], folds[id * width + i])) {
        return std::nullopt;
      }
    }
  }
  const auto key_of = [&](std::size_t id) {
    return extract_key(rows[first_row[id]], group.group_keys);
  };
  const auto order = key_sorted_ids(idx.size(), key_of);
  Relation out(consumer.schema);
  out.reserve(order.size());
  for (const std::size_t id : order) {
    Tuple o;
    o.fields.reserve(consumer.schema.size());
    for (std::size_t i = 0; i < width; ++i) {
      const GenField& g = consumer.gen[i];
      append_generated(o, g,
                       g.expr->kind == Expr::Kind::kColumn
                           ? key_of(id)
                           : folded_value(*g.expr, folds[id * width + i]));
    }
    CBFT_CHECK_MSG(o.size() == consumer.schema.size(),
                   "FLATTEN arity mismatch at runtime");
    out.add(std::move(o));
  }
  return out;
}

Relation eval_join(const OpNode& op, const Relation& left,
                   const Relation& right, bool canonical_matches) {
  // Deterministic hash join: index the right side by canonical key bytes,
  // then probe with the left side in input order (output row order ==
  // left input order).
  auto any_null = [](const Tuple& t, const std::vector<std::size_t>& keys) {
    for (std::size_t k : keys) {
      if (t.at(k).is_null()) return true;
    }
    return false;
  };
  KeyIndex idx(right.size() / 4 + 1);
  std::vector<std::vector<const Tuple*>> matches;
  std::string buf;
  for (const Tuple& t : right.rows()) {
    if (any_null(t, op.right_keys)) continue;
    const std::uint64_t h = tuple_cols_hash(t, op.right_keys, buf);
    const std::size_t id = idx.intern(buf, h);
    if (id == matches.size()) matches.emplace_back();
    matches[id].push_back(&t);
  }
  if (canonical_matches) {
    // Per-key match lists in canonical order: combined with a canonically
    // sorted probe side this yields the same bytes as joining two fully
    // sorted inputs — the reduce path's determinism contract — while only
    // ever sorting the (small) per-key lists of the build side.
    for (std::vector<const Tuple*>& list : matches) {
      std::sort(list.begin(), list.end(),
                [](const Tuple* a, const Tuple* b) {
                  return canonical_order(*a, *b) < 0;
                });
    }
  }
  Relation out(op.schema);
  for (const Tuple& lt : left.rows()) {
    if (any_null(lt, op.left_keys)) continue;
    const std::uint64_t h = tuple_cols_hash(lt, op.left_keys, buf);
    const std::size_t id = idx.find(buf, h);
    if (id == KeyIndex::npos) continue;
    for (const Tuple* rt : matches[id]) {
      Tuple o;
      o.fields.reserve(lt.size() + rt->size());
      o.fields.insert(o.fields.end(), lt.fields.begin(), lt.fields.end());
      o.fields.insert(o.fields.end(), rt->fields.begin(), rt->fields.end());
      out.add(std::move(o));
    }
  }
  return out;
}

Relation eval_cogroup(const OpNode& op, const Relation& left,
                      const Relation& right) {
  KeyIndex idx((left.size() + right.size()) / 4 + 1);
  std::vector<std::pair<std::vector<Tuple>, std::vector<Tuple>>> bags;
  std::vector<Value> keys;
  std::string buf;
  const auto absorb = [&](const Relation& rel,
                          const std::vector<std::size_t>& key_cols,
                          bool is_left) {
    std::size_t width = 0;
    for (const Tuple& t : rel.rows()) {
      const std::uint64_t h = tuple_cols_hash(t, key_cols, buf);
      const std::size_t id = idx.intern(buf, h);
      if (id == bags.size()) {
        bags.emplace_back();
        keys.push_back(extract_key(t, key_cols));
      }
      width = std::max(width, t.size());
      (is_left ? bags[id].first : bags[id].second).push_back(t);
    }
    return non_key_columns(width, key_cols);
  };
  const std::vector<std::size_t> left_cols =
      absorb(left, op.left_keys, /*is_left=*/true);
  const std::vector<std::size_t> right_cols =
      absorb(right, op.right_keys, /*is_left=*/false);
  const auto order = key_sorted_ids(
      idx.size(), [&](std::size_t id) { return keys[id]; });
  Relation out(op.schema);
  out.reserve(order.size());
  for (const std::size_t id : order) {
    sort_bag(bags[id].first, left_cols);
    sort_bag(bags[id].second, right_cols);
    Tuple o;
    o.fields.push_back(std::move(keys[id]));
    o.fields.push_back(Value(std::make_shared<const std::vector<Tuple>>(
        std::move(bags[id].first))));
    o.fields.push_back(Value(std::make_shared<const std::vector<Tuple>>(
        std::move(bags[id].second))));
    out.add(std::move(o));
  }
  return out;
}

Relation eval_union(const OpNode& op,
                    const std::vector<const Relation*>& ins) {
  Relation out(op.schema);
  std::size_t total = 0;
  for (const Relation* r : ins) total += r->size();
  out.reserve(total);
  for (const Relation* r : ins) {
    CBFT_CHECK_MSG(r->schema().size() == op.schema.size(),
                   "UNION inputs must have equal arity");
    for (const Tuple& t : r->rows()) out.add(t);
  }
  return out;
}

Relation eval_distinct(const OpNode& op, const Relation& in) {
  // Only byte-identical rows collapse: the shuffle routes DISTINCT rows by
  // their canonical bytes, so rows `==` equates but that serialise
  // differently (long 1, double 1.0) may reach different reducers, and
  // collapsing them here would make the result depend on the partitioning.
  std::vector<Tuple> rows = in.sorted_rows();
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const Tuple& a, const Tuple& b) {
                           return canonical_order(a, b) == 0;
                         }),
             rows.end());
  return Relation(op.schema, std::move(rows));
}

Relation eval_order(const OpNode& op, Relation in) {
  std::vector<Tuple> rows = std::move(in.rows());
  std::stable_sort(rows.begin(), rows.end(),
                   [&op](const Tuple& a, const Tuple& b) {
                     for (const SortKey& k : op.sort_keys) {
                       const auto c = a.at(k.column) <=> b.at(k.column);
                       if (c == std::strong_ordering::equal) continue;
                       const bool less = c == std::strong_ordering::less;
                       return k.ascending ? less : !less;
                     }
                     // Full-tuple tiebreak keeps the order deterministic
                     // across replicas even for equal keys.
                     return canonical_order(a, b) < 0;
                   });
  return Relation(op.schema, std::move(rows));
}

Relation eval_limit(const OpNode& op, const Relation& in) {
  Relation out(op.schema);
  const auto n = static_cast<std::size_t>(op.limit);
  for (std::size_t i = 0; i < in.size() && i < n; ++i) out.add(in.rows()[i]);
  return out;
}

Relation eval_op(const OpNode& op, std::vector<Relation> ins) {
  switch (op.kind) {
    case OpKind::kFilter:
      CBFT_CHECK(ins.size() == 1);
      return eval_filter(op, std::move(ins[0]));
    case OpKind::kForeach:
      CBFT_CHECK(ins.size() == 1);
      return eval_foreach(op, ins[0]);
    case OpKind::kGroup:
      CBFT_CHECK(ins.size() == 1);
      return eval_group(op, std::move(ins[0]));
    case OpKind::kJoin:
      CBFT_CHECK(ins.size() == 2);
      return eval_join(op, ins[0], ins[1]);
    case OpKind::kCogroup:
      CBFT_CHECK(ins.size() == 2);
      return eval_cogroup(op, ins[0], ins[1]);
    case OpKind::kUnion: {
      std::vector<const Relation*> parts;
      for (const Relation& r : ins) parts.push_back(&r);
      return eval_union(op, parts);
    }
    case OpKind::kDistinct:
      CBFT_CHECK(ins.size() == 1);
      return eval_distinct(op, ins[0]);
    case OpKind::kOrder:
      CBFT_CHECK(ins.size() == 1);
      return eval_order(op, std::move(ins[0]));
    case OpKind::kLimit:
      CBFT_CHECK(ins.size() == 1);
      return eval_limit(op, ins[0]);
    case OpKind::kLoad:
    case OpKind::kStore:
      CBFT_CHECK_MSG(false, "Load/Store are storage ops, not data ops");
  }
  return Relation();
}

}  // namespace clusterbft::dataflow
