// Map/reduce task execution: the pure data-processing part of a task,
// independent of which simulated node runs it or when.
//
// The cluster layer (execution tracker) decides placement and timing and
// may let a Byzantine node corrupt the result afterwards; the functions
// here define what an *honest* task computes. Determinism note: results
// do not depend on map-task completion order — the blocking operators are
// order-insensitive (hash-partitioned grouping emits in canonical key
// order; DISTINCT/ORDER sort internally), and the few order-sensitive
// inputs (LIMIT, the JOIN probe side) are canonically sorted at the
// reduce boundary — implementing the intermediate-output ordering §5.4
// leaves to future work.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/plan.hpp"
#include "dataflow/relation.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::mapreduce {

struct TaskMetrics {
  std::uint64_t input_bytes = 0;   ///< bytes read (split or shuffle)
  std::uint64_t output_bytes = 0;  ///< bytes produced (intermediate or final)
  std::uint64_t digested_bytes = 0;  ///< bytes hashed at verification points
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
};

struct MapTaskResult {
  /// Shuffle jobs: rows destined to each reduce partition (size = R).
  std::vector<dataflow::Relation> partitions;
  /// Map-only jobs: the task's slice of the job output.
  dataflow::Relation direct_output;
  /// Digests for verification points evaluated map-side in this task
  /// (replica number is filled in by the executor).
  std::vector<DigestReport> digests;
  TaskMetrics metrics;
};

struct ReduceTaskResult {
  dataflow::Relation output;
  std::vector<DigestReport> digests;
  TaskMetrics metrics;
};

/// Run map task (`branch`, input split `split_rows`) of `job`. The split
/// is taken by value so callers handing over a freshly read split (the
/// common case: `dfs.read_split(...)` rvalues) move it in instead of
/// paying a second deep copy inside the task. In a shuffle job each row of
/// the last map vertex is serialised once (RowBytes), and those bytes feed
/// that vertex's digest when a point marks it, the partition hash and the
/// partition's byte count.
MapTaskResult run_map_task(const dataflow::LogicalPlan& plan,
                           const MRJobSpec& job, std::size_t branch,
                           std::size_t split_index,
                           dataflow::Relation split_rows);

/// Run reduce task `partition` of `job`. `inputs_by_tag[t]` holds the
/// concatenated map outputs with branch tag `t` for this partition
/// (size 1 for GROUP/DISTINCT/ORDER, 2 for JOIN). Taken by value like the
/// map split: the execution tracker hands its shuffle partition over by
/// move, and the blocking operator takes the rows from there. A GROUP
/// that no verification point digests, consumed by an aggregate-only
/// FOREACH, is folded without bags (dataflow::fold_group_aggregates);
/// outputs, digests and metrics are those of the bag path.
ReduceTaskResult run_reduce_task(
    const dataflow::LogicalPlan& plan, const MRJobSpec& job,
    std::size_t partition, std::vector<dataflow::Relation> inputs_by_tag);

/// Job assembly: the bookkeeping between one job's tasks that every
/// executor (the execution tracker, the local runner) shares. Map results
/// are appended to shuffle[partition][tag] in the order they are added —
/// the reduce side does not depend on that order (see above); the shuffle
/// is sealed before the reduce hand-off, giving every partition/tag no
/// map task fed the tag's map-side schema; task slices — map slices of a
/// map-only job, reduce outputs otherwise — are concatenated in task
/// order under the output vertex's schema. Plan and job must outlive it.
class JobAssembler {
 public:
  JobAssembler() = default;
  JobAssembler(const dataflow::LogicalPlan& plan, const MRJobSpec& job,
               std::size_t map_tasks);

  /// Fold map task `task` (reading branch `branch`) into the job: its
  /// partitions join the shuffle, or it becomes slice `task` of a
  /// map-only job. The result's digests and metrics are left alone.
  void add_map(std::size_t task, std::size_t branch, MapTaskResult&& result);

  /// Every map task is in: fill partition/tag buckets that got no rows.
  void seal_shuffle();

  /// Reduce input of `partition`, by tag, taken by move (once per
  /// partition, after seal_shuffle).
  std::vector<dataflow::Relation> take_partition(std::size_t partition);

  /// Reduce task `partition`'s output becomes slice `partition`.
  void add_reduce(std::size_t partition, dataflow::Relation output);

  /// The job output: every slice, in task order.
  dataflow::Relation take_output();

 private:
  const dataflow::LogicalPlan* plan_ = nullptr;
  const MRJobSpec* job_ = nullptr;
  std::vector<std::vector<dataflow::Relation>> shuffle_;  ///< [partition][tag]
  std::vector<dataflow::Relation> slices_;
};

/// One row's canonical bytes with the offset at which each field's bytes
/// start: field i spans [starts[i], starts[i + 1]), and starts.back() is
/// bytes.size(). The map side's shuffle loop serialises each output row
/// into one of these once, and reads its digest record, its partition
/// key and its byte count from it.
struct RowBytes {
  std::string bytes;
  std::vector<std::size_t> starts;

  /// Clear, then serialise `t` (serialize_tuple_into's bytes).
  void assign(const dataflow::Tuple& t);
  std::size_t fields() const { return starts.size() - 1; }
  std::string_view field(std::size_t i) const {
    return std::string_view(bytes).substr(starts[i],
                                          starts[i + 1] - starts[i]);
  }
};

/// Reduce partition of a row, given the job's blocking operator and the
/// row's canonical bytes: FNV-1a over the key columns' bytes in key-column
/// order (GROUP keys; JOIN/COGROUP keys of branch `tag`), over the whole
/// row for DISTINCT, and 0 for the global operators ORDER and LIMIT.
/// Deterministic across replicas and platforms. The one partition
/// function: run_map_task calls it on the bytes it also digests and
/// counts, and the Tuple overload serialises into `buf` first.
std::size_t shuffle_partition(const dataflow::OpNode& blocking_op, int tag,
                              const RowBytes& row, std::size_t num_reducers);
std::size_t shuffle_partition(const dataflow::OpNode& blocking_op, int tag,
                              const dataflow::Tuple& t,
                              std::size_t num_reducers, RowBytes& buf);

}  // namespace clusterbft::mapreduce
