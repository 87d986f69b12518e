#include "replay.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/graph_analyzer.hpp"
#include "crypto/sha256.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/task.hpp"

namespace perfbench {

using clusterbft::dataflow::Relation;
using clusterbft::dataflow::Tuple;
namespace mr = clusterbft::mapreduce;

bool same_rows(const Relation& a, const Relation& b) {
  return a.schema().size() == b.schema().size() &&
         a.sorted_rows() == b.sorted_rows();
}

namespace {

/// Move `rows` onto the end of `bucket`, giving an empty bucket the
/// rows' schema.
void append_rows(Relation& bucket, Relation&& rows) {
  if (bucket.schema().size() == 0) bucket = Relation(rows.schema());
  bucket.reserve(bucket.size() + rows.size());
  for (Tuple& t : rows.rows()) bucket.add(std::move(t));
}

/// One job of the DAG, honest, single replica, tasks in (branch, split)
/// then partition order.
void replay_job(const clusterbft::dataflow::LogicalPlan& plan,
                const mr::MRJobSpec& spec, mr::Dfs& dfs, Tracer& tracer,
                ReplayCounts& counts) {
  int max_tag = 0;
  for (const mr::MapBranch& b : spec.branches) max_tag = std::max(max_tag, b.tag);
  // shuffle[partition][tag]
  std::vector<std::vector<Relation>> shuffle;
  if (!spec.map_only()) {
    shuffle.assign(spec.num_reducers,
                   std::vector<Relation>(static_cast<std::size_t>(max_tag) + 1));
  }
  std::vector<Relation> slices;

  for (std::size_t b = 0; b < spec.branches.size(); ++b) {
    const std::string& input = spec.branches[b].input_path;
    const std::size_t splits = dfs.num_splits(input);
    for (std::size_t s = 0; s < splits; ++s) {
      Relation split;
      {
        const Scope span(&tracer, "mapreduce.read_split");
        split = dfs.read_split(input, s);
      }
      mr::MapTaskResult r;
      {
        const Scope span(&tracer, "mapreduce.map_task");
        r = mr::run_map_task(plan, spec, b, s, std::move(split));
      }
      counts.records_in += r.metrics.records_in;
      if (spec.map_only()) {
        counts.records_out += r.metrics.records_out;
        slices.push_back(std::move(r.direct_output));
        continue;
      }
      counts.shuffle_bytes += r.metrics.output_bytes;
      const Scope span(&tracer, "mapreduce.shuffle");
      const auto tag = static_cast<std::size_t>(spec.branches[b].tag);
      for (std::size_t p = 0; p < r.partitions.size(); ++p) {
        append_rows(shuffle[p][tag], std::move(r.partitions[p]));
      }
    }
  }

  if (!spec.map_only()) {
    // A partition that received no rows for a tag still needs the tag's
    // schema: the reduce side reads column positions from it.
    for (auto& by_tag : shuffle) {
      for (std::size_t tag = 0; tag < by_tag.size(); ++tag) {
        if (by_tag[tag].schema().size() != 0) continue;
        for (const mr::MapBranch& b : spec.branches) {
          if (static_cast<std::size_t>(b.tag) != tag) continue;
          const auto tail = b.map_ops.empty() ? b.source_vertex : b.map_ops.back();
          by_tag[tag] = Relation(plan.node(tail).schema);
          break;
        }
      }
    }
    for (std::size_t p = 0; p < spec.num_reducers; ++p) {
      mr::ReduceTaskResult r;
      {
        const Scope span(&tracer, "mapreduce.reduce_task");
        r = mr::run_reduce_task(plan, spec, p, shuffle[p]);
      }
      counts.records_out += r.metrics.records_out;
      slices.push_back(std::move(r.output));
    }
  }

  Relation output(plan.node(spec.output_vertex).schema);
  {
    const Scope span(&tracer, "mapreduce.shuffle");
    for (Relation& slice : slices) append_rows(output, std::move(slice));
  }
  // The canonical-form hot spots, timed on every job output.
  {
    const Scope span(&tracer, "dataflow.byte_size");
    (void)output.byte_size();
  }
  {
    const Scope span(&tracer, "dataflow.sorted_rows");
    (void)output.sorted_rows();
  }
  const Scope span(&tracer, "mapreduce.dfs_write");
  dfs.write(spec.output_path, std::move(output));
}

}  // namespace

void replay_request(const clusterbft::core::ClientRequest& request,
                    const std::map<std::string, Relation>& inputs,
                    const std::map<std::string, Relation>& verified,
                    mr::Dfs& dfs, Tracer& tracer, ReplayCounts& counts) {
  clusterbft::dataflow::LogicalPlan plan;
  {
    const Scope span(&tracer, "dataflow.parse");
    plan = clusterbft::dataflow::parse_script(request.script);
  }
  // Input sizes annotate the plan before analysis, as in the controller.
  std::map<std::string, std::uint64_t> sizes;
  for (const auto v : plan.loads()) {
    auto& node = plan.node(v);
    node.declared_input_bytes = dfs.size_of(node.path);
    sizes[node.path] = node.declared_input_bytes;
  }
  std::vector<mr::VerificationPoint> vps;
  {
    const Scope span(&tracer, "core.analyze");
    vps = clusterbft::core::analyze(plan, sizes, request);
  }
  mr::JobDag dag;
  {
    const Scope span(&tracer, "mapreduce.compile");
    mr::CompileOptions opts;
    opts.default_reducers = request.reducers_per_job;
    opts.sid_prefix = request.name;
    opts.tmp_prefix = "replay/";
    dag = mr::compile(plan, vps, opts);
  }
  counts.base_runs +=
      dag.jobs.size() * clusterbft::core::base_replication(request);
  std::map<std::string, Relation> golden;
  {
    const Scope span(&tracer, "dataflow.interpret");
    golden = clusterbft::dataflow::interpret(plan, inputs);
  }

  std::vector<bool> done(dag.jobs.size(), false);
  std::size_t completed = 0;
  while (completed < dag.jobs.size()) {
    const std::vector<std::size_t> ready = dag.ready(done);
    if (ready.empty()) break;  // a cycle: counted as a mismatch below
    for (const std::size_t j : ready) {
      replay_job(plan, dag.jobs[j], dfs, tracer, counts);
      done[j] = true;
      ++completed;
    }
  }

  std::string bytes;
  {
    const Scope span(&tracer, "harness.check");
    std::string row;
    for (const auto& [path, rel] : golden) {
      const auto it = verified.find(path);
      if (completed != dag.jobs.size() || it == verified.end() ||
          !same_rows(rel, it->second) || !dfs.exists(path) ||
          !same_rows(dfs.peek(path), rel)) {
        ++counts.mismatches;
        continue;
      }
      for (const Tuple& t : it->second.sorted_rows()) {
        clusterbft::dataflow::serialize_tuple_into(t, row);
        bytes += row;
      }
    }
  }
  counts.hashed_bytes += bytes.size();
  const Scope span(&tracer, "crypto.sha256");
  clusterbft::crypto::Sha256 h;
  h.update(bytes);
  (void)h.finalize();
}

}  // namespace perfbench
