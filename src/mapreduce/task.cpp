#include "mapreduce/task.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "crypto/digest.hpp"
#include "dataflow/ops_eval.hpp"

namespace clusterbft::mapreduce {

using dataflow::LogicalPlan;
using dataflow::OpId;
using dataflow::OpKind;
using dataflow::OpNode;
using dataflow::Relation;
using dataflow::Tuple;

namespace {

/// The verification point the job puts on `vertex`, if any (at most one
/// per vertex per job).
const VerificationPoint* point_on(const MRJobSpec& job, OpId vertex) {
  for (const VerificationPoint& vp : job.vps) {
    if (vp.vertex == vertex) return &vp;
  }
  return nullptr;
}

/// Append `digester`'s chunk digests of `vertex`'s stream as reports keyed
/// for this task.
void report_digests(const MRJobSpec& job, OpId vertex, bool reduce_side,
                    std::size_t branch, std::size_t partition,
                    crypto::ChunkedDigester& digester,
                    std::vector<DigestReport>& out) {
  for (const crypto::ChunkDigest& cd : digester.finish()) {
    DigestReport r;
    r.key = DigestKey{job.sid, vertex, reduce_side, branch, partition,
                      cd.chunk_index};
    r.digest = cd.digest;
    r.record_count = cd.record_count;
    out.push_back(std::move(r));
  }
}

/// Digest the stream produced by `vertex` if the job marks it, appending
/// reports keyed for this task. The serialisation that feeds the digest
/// also counts the stream's canonical bytes, which are recorded on it.
void digest_if_marked(const MRJobSpec& job, OpId vertex, bool reduce_side,
                      std::size_t branch, std::size_t partition,
                      Relation& stream, TaskMetrics& metrics,
                      std::vector<DigestReport>& out) {
  const VerificationPoint* vp = point_on(job, vertex);
  if (vp == nullptr) return;
  crypto::ChunkedDigester digester(vp->records_per_digest);
  std::string bytes;  // one buffer for the whole stream, not one per tuple
  std::uint64_t total = 0;
  for (const Tuple& t : stream.rows()) {
    dataflow::serialize_tuple_into(t, bytes);
    total += bytes.size();
    digester.add_record(bytes);
  }
  metrics.digested_bytes += total;
  stream.set_byte_size(total);
  report_digests(job, vertex, reduce_side, branch, partition, digester, out);
}

/// `rel` as the sole input of an operator, which may take its rows.
std::vector<Relation> sole_input(Relation& rel) {
  std::vector<Relation> ins;
  ins.push_back(std::move(rel));
  return ins;
}

/// The blocking operator over this partition's shuffle input.
///
/// Replica determinism without a full canonical sort of every shuffle
/// input: GROUP/COGROUP/DISTINCT/ORDER are order-insensitive (they hash-
/// partition on canonical key bytes and emit key-sorted, or sort rows
/// themselves), so they consume the shuffle input as-is regardless of map
/// completion order. Only genuinely order-sensitive inputs still sort:
/// LIMIT's single input and the JOIN probe (left) side — the build side
/// instead gets canonical per-key match lists, which reproduces the same
/// bytes as joining two fully sorted inputs.
Relation eval_blocking(const OpNode& blocking,
                       std::vector<Relation> inputs_by_tag) {
  switch (blocking.kind) {
    case OpKind::kGroup:
    case OpKind::kDistinct:
    case OpKind::kOrder:
      CBFT_CHECK(inputs_by_tag.size() == 1);
      return dataflow::eval_op(blocking, std::move(inputs_by_tag));
    case OpKind::kLimit: {
      CBFT_CHECK(inputs_by_tag.size() == 1);
      Relation in(inputs_by_tag[0].schema(), inputs_by_tag[0].sorted_rows());
      return dataflow::eval_limit(blocking, in);
    }
    case OpKind::kJoin: {
      CBFT_CHECK(inputs_by_tag.size() == 2);
      Relation l(inputs_by_tag[0].schema(), inputs_by_tag[0].sorted_rows());
      return dataflow::eval_join(blocking, l, inputs_by_tag[1],
                                 /*canonical_matches=*/true);
    }
    case OpKind::kCogroup:
      CBFT_CHECK(inputs_by_tag.size() == 2);
      return dataflow::eval_cogroup(blocking, inputs_by_tag[0],
                                    inputs_by_tag[1]);
    default:
      CBFT_CHECK_MSG(false, "not a blocking operator");
  }
  return Relation();
}

}  // namespace

void RowBytes::assign(const Tuple& t) {
  bytes.clear();
  starts.clear();
  for (const dataflow::Value& v : t.fields) {
    starts.push_back(bytes.size());
    v.serialize(bytes);
  }
  starts.push_back(bytes.size());
}

std::size_t shuffle_partition(const OpNode& blocking_op, int tag,
                              const RowBytes& row, std::size_t num_reducers) {
  CBFT_CHECK(num_reducers > 0);
  if (num_reducers == 1) return 0;
  const std::vector<std::size_t>* key_cols = nullptr;
  switch (blocking_op.kind) {
    case OpKind::kGroup:
      key_cols = &blocking_op.group_keys;
      break;
    case OpKind::kJoin:
    case OpKind::kCogroup:
      key_cols = (tag == 0) ? &blocking_op.left_keys
                            : &blocking_op.right_keys;
      break;
    case OpKind::kDistinct:
      // Whole tuple is the key.
      return static_cast<std::size_t>(dataflow::fnv1a(row.bytes) %
                                      num_reducers);
    case OpKind::kOrder:
    case OpKind::kLimit:
      return 0;  // global operators use a single reducer
    default:
      CBFT_CHECK_MSG(false, "not a blocking operator");
  }
  // Folding the key columns' spans in key order hashes exactly the bytes
  // of the key tuple's serialisation (tuple_cols_hash), without
  // serialising the key again.
  std::uint64_t h = dataflow::kFnv1aBasis;
  for (const std::size_t c : *key_cols) {
    CBFT_CHECK_MSG(c < row.fields(), "tuple field index out of range");
    h = dataflow::fnv1a(row.field(c), h);
  }
  return static_cast<std::size_t>(h % num_reducers);
}

std::size_t shuffle_partition(const OpNode& blocking_op, int tag,
                              const Tuple& t, std::size_t num_reducers,
                              RowBytes& buf) {
  buf.assign(t);
  return shuffle_partition(blocking_op, tag, buf, num_reducers);
}

MapTaskResult run_map_task(const LogicalPlan& plan, const MRJobSpec& job,
                           std::size_t branch, std::size_t split_index,
                           Relation split_rows) {
  CBFT_CHECK(branch < job.branches.size());
  const MapBranch& br = job.branches[branch];

  MapTaskResult result;
  result.metrics.input_bytes = split_rows.byte_size();  // known from the DFS
  result.metrics.records_in = split_rows.size();

  // A shuffle job's last map vertex is digested by the partition loop
  // below, in the same pass that partitions and counts its rows.
  const OpId tail = br.map_ops.empty() ? br.source_vertex : br.map_ops.back();
  const auto digest = [&](OpId vertex, Relation& stream) {
    if (job.map_only() || vertex != tail) {
      digest_if_marked(job, vertex, /*reduce_side=*/false, branch,
                       split_index, stream, result.metrics, result.digests);
    }
  };

  Relation cur = std::move(split_rows);
  digest(br.source_vertex, cur);
  for (OpId op_id : br.map_ops) {
    const OpNode& op = plan.node(op_id);
    if (op.kind == OpKind::kUnion) {
      // Union is concatenation: per-branch it is the identity. The vertex
      // still exists as a digest position.
    } else {
      cur = dataflow::eval_op(op, sole_input(cur));
    }
    digest(op_id, cur);
  }

  result.metrics.records_out = cur.size();

  if (job.map_only()) {
    result.metrics.output_bytes = cur.byte_size();
    result.direct_output = std::move(cur);
    return result;
  }

  // One serialisation per output row feeds the tail's digest (when a
  // point marks it), the partition hash and the partition's byte count;
  // the counts travel with the partitions to the reduce side.
  const OpNode& blocking = plan.node(*job.blocking);
  result.partitions.assign(job.num_reducers, Relation(cur.schema()));
  for (Relation& p : result.partitions) {
    p.reserve(cur.size() / job.num_reducers + 1);
  }
  const VerificationPoint* vp = point_on(job, tail);
  std::optional<crypto::ChunkedDigester> digester;
  if (vp != nullptr) digester.emplace(vp->records_per_digest);
  std::vector<std::uint64_t> part_bytes(job.num_reducers, 0);
  RowBytes row;  // reused for the whole split
  for (Tuple& t : cur.rows()) {
    row.assign(t);
    if (digester) digester->add_record(row.bytes);
    const std::size_t p =
        shuffle_partition(blocking, br.tag, row, job.num_reducers);
    part_bytes[p] += row.bytes.size();
    result.partitions[p].add(std::move(t));
  }
  for (std::size_t p = 0; p < job.num_reducers; ++p) {
    result.partitions[p].set_byte_size(part_bytes[p]);
    result.metrics.output_bytes += part_bytes[p];
  }
  if (digester) {
    result.metrics.digested_bytes += result.metrics.output_bytes;
    report_digests(job, tail, /*reduce_side=*/false, branch, split_index,
                   *digester, result.digests);
  }
  return result;
}

ReduceTaskResult run_reduce_task(const LogicalPlan& plan, const MRJobSpec& job,
                                 std::size_t partition,
                                 std::vector<Relation> inputs_by_tag) {
  CBFT_CHECK(!job.map_only());
  const OpNode& blocking = plan.node(*job.blocking);

  ReduceTaskResult result;
  for (const Relation& r : inputs_by_tag) {
    result.metrics.input_bytes += r.byte_size();  // counted map-side
    result.metrics.records_in += r.size();
  }

  // A GROUP whose bags no verification point digests and whose consumer
  // only aggregates them is folded per key, with no bags; the fold hands
  // back the consumer's output, or nothing when a row breaks its guard.
  // The bags of a marked GROUP are digested, so they are built and sorted.
  std::optional<Relation> folded;
  if (blocking.kind == OpKind::kGroup && !job.reduce_ops.empty() &&
      point_on(job, blocking.id) == nullptr) {
    folded = dataflow::fold_group_aggregates(
        blocking, plan.node(job.reduce_ops.front()), inputs_by_tag.front());
  }
  auto op = job.reduce_ops.begin();
  Relation cur;
  if (folded) {
    cur = std::move(*folded);
    digest_if_marked(job, *op, /*reduce_side=*/true, 0, partition, cur,
                     result.metrics, result.digests);
    ++op;
  } else {
    cur = eval_blocking(blocking, std::move(inputs_by_tag));
    digest_if_marked(job, blocking.id, /*reduce_side=*/true, 0, partition,
                     cur, result.metrics, result.digests);
  }
  for (; op != job.reduce_ops.end(); ++op) {
    cur = dataflow::eval_op(plan.node(*op), sole_input(cur));
    digest_if_marked(job, *op, /*reduce_side=*/true, 0, partition, cur,
                     result.metrics, result.digests);
  }

  result.metrics.records_out = cur.size();
  result.metrics.output_bytes = cur.byte_size();
  result.output = std::move(cur);
  return result;
}

JobAssembler::JobAssembler(const LogicalPlan& plan, const MRJobSpec& job,
                           std::size_t map_tasks)
    : plan_(&plan), job_(&job) {
  if (job.map_only()) {
    slices_.resize(map_tasks);
    return;
  }
  int max_tag = 0;
  for (const MapBranch& b : job.branches) max_tag = std::max(max_tag, b.tag);
  shuffle_.assign(job.num_reducers,
                  std::vector<Relation>(static_cast<std::size_t>(max_tag) + 1));
  slices_.resize(job.num_reducers);
}

void JobAssembler::add_map(std::size_t task, std::size_t branch,
                           MapTaskResult&& result) {
  if (job_->map_only()) {
    slices_[task] = std::move(result.direct_output);
    return;
  }
  const auto tag = static_cast<std::size_t>(job_->branches[branch].tag);
  for (std::size_t p = 0; p < result.partitions.size(); ++p) {
    Relation& bucket = shuffle_[p][tag];
    if (bucket.schema().size() == 0) {
      bucket = Relation(result.partitions[p].schema());
    }
    bucket.append(std::move(result.partitions[p]));
  }
}

void JobAssembler::seal_shuffle() {
  for (std::vector<Relation>& by_tag : shuffle_) {
    for (std::size_t tag = 0; tag < by_tag.size(); ++tag) {
      if (by_tag[tag].schema().size() != 0) continue;
      for (const MapBranch& b : job_->branches) {
        if (static_cast<std::size_t>(b.tag) != tag) continue;
        const OpId tail = b.map_ops.empty() ? b.source_vertex : b.map_ops.back();
        by_tag[tag] = Relation(plan_->node(tail).schema);
        break;
      }
    }
  }
}

std::vector<Relation> JobAssembler::take_partition(std::size_t partition) {
  return std::move(shuffle_[partition]);
}

void JobAssembler::add_reduce(std::size_t partition, Relation output) {
  slices_[partition] = std::move(output);
}

Relation JobAssembler::take_output() {
  Relation out(plan_->node(job_->output_vertex).schema);
  for (Relation& slice : slices_) out.append(std::move(slice));
  return out;
}

}  // namespace clusterbft::mapreduce
