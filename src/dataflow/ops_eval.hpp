// Operator semantics over materialised relations.
//
// These functions define the *meaning* of each logical operator once; both
// the reference interpreter (golden semantics for tests) and the MapReduce
// task runtime (which applies them to partitions) call into here, so the
// distributed execution provably computes the same function as the local
// one — modulo row order, which MapReduce does not define.
//
// Operators that can reuse their input's rows (FILTER, GROUP, ORDER)
// take the input by value: a caller that is done with a relation moves it
// in and no row is copied; a caller that still needs it passes an lvalue
// and pays one copy at the call.
#pragma once

#include <optional>
#include <vector>

#include "dataflow/plan.hpp"
#include "dataflow/relation.hpp"

namespace clusterbft::dataflow {

Relation eval_filter(const OpNode& op, Relation in);
Relation eval_foreach(const OpNode& op, const Relation& in);

/// GROUP BY. Hash-partitioned on canonical key bytes; groups are emitted
/// in canonical key order with canonically sorted bags, so the result is
/// independent of the input row order (every replica, regardless of the
/// order tuples arrived from the shuffle, produces byte-identical groups
/// — the determinism fix §5.4 defers to future work, implemented here).
///
/// GROUP pays for its bags in one of three ways:
/// - *packed*: when every row is two longs, one the key (the Fig. 9
///   follower shape), keys are interned as int64s, and each bag's
///   (value, row) pairs are sorted in a contiguous run before one gather
///   moves the rows: no key serialisation, no Value comparison;
/// - *generic*: any other input (nulls, doubles, strings, other arities,
///   several key or non-key columns) interns canonical key bytes and
///   sorts each bag with the Value comparator and canonical_tiebreak. The
///   first row that does not qualify for the packed path sends the whole
///   GROUP here;
/// - *folded*: fold_group_aggregates below builds no bag at all. The
///   reduce task uses it where no verification point digests the bags.
Relation eval_group(const OpNode& op, Relation in);

/// GROUP `group` followed by its sole consumer `consumer`, computed
/// without bags: byte-identical to
/// `eval_foreach(consumer, eval_group(group, in))`, and in the same
/// canonical key order. Applies when every GENERATE item of the FOREACH
/// `consumer` is `group` (column 0, FLATTEN allowed) or a bare COUNT,
/// SUM, MIN or MAX on the bag column; the aggregates are folded per key
/// in input order, with `in`'s rows read in place. Returns nullopt for
/// any other consumer (AVG sums doubles, so its result depends on bag
/// order; UDF aggregates and expression trees are opaque), and when a
/// row breaks the guard under which input order cannot show: SUM over a
/// non-long, MIN/MAX over values not all of one type (long or
/// chararray) within a group. The caller then runs the bag path on the
/// same rows.
std::optional<Relation> fold_group_aggregates(const OpNode& group,
                                              const OpNode& consumer,
                                              const Relation& in);

/// Inner equi-join (null keys never match). Output rows follow the left
/// input order; per-key right matches follow the right input order, or —
/// with `canonical_matches` — canonical tuple order, which together with
/// a canonically sorted left input reproduces the bytes of joining two
/// fully sorted inputs (the reduce path's determinism contract) without
/// sorting the build side.
Relation eval_join(const OpNode& op, const Relation& left,
                   const Relation& right, bool canonical_matches = false);

/// Outer cogroup: (group, bag-of-left, bag-of-right) for every key in
/// either input; bags are canonically sorted, absent sides yield empty
/// bags. Null keys group together (Pig semantics for [co]grouping).
Relation eval_cogroup(const OpNode& op, const Relation& left,
                      const Relation& right);

Relation eval_union(const OpNode& op, const std::vector<const Relation*>& ins);
/// DISTINCT: rows in canonical order, collapsing only byte-identical rows
/// (not rows `==` equates, such as long 1 and double 1.0, which the
/// shuffle may route to different reducers).
Relation eval_distinct(const OpNode& op, const Relation& in);
Relation eval_order(const OpNode& op, Relation in);
Relation eval_limit(const OpNode& op, const Relation& in);

/// Dispatch on op.kind, consuming `ins`. Load/Store are handled by the
/// caller (they touch storage, not data).
Relation eval_op(const OpNode& op, std::vector<Relation> ins);

}  // namespace clusterbft::dataflow
