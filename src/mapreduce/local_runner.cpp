#include "mapreduce/local_runner.hpp"

#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace clusterbft::mapreduce {

using dataflow::Relation;
using dataflow::Tuple;

namespace {

void accumulate(TaskMetrics& into, const TaskMetrics& m) {
  into.input_bytes += m.input_bytes;
  into.output_bytes += m.output_bytes;
  into.digested_bytes += m.digested_bytes;
  into.records_in += m.records_in;
  into.records_out += m.records_out;
}

/// A payload either executed inline (`ready`) or handed to the worker
/// pool (`future`). take() blocks until the result is available.
template <typename Result>
struct PendingTask {
  std::optional<Result> ready;
  std::future<Result> future;

  Result take() {
    return ready.has_value() ? std::move(*ready) : future.get();
  }
};

void run_one_job(const dataflow::LogicalPlan& plan, const MRJobSpec& spec,
                 Dfs& dfs, common::ThreadPool* pool, LocalRunResult& out) {
  const int max_tag = [&spec] {
    int t = 0;
    for (const MapBranch& b : spec.branches) t = std::max(t, b.tag);
    return t;
  }();

  // shuffle[partition][tag], assembled in map-task order exactly like the
  // execution tracker does.
  std::vector<std::vector<Relation>> shuffle;
  if (!spec.map_only()) {
    shuffle.assign(spec.num_reducers,
                   std::vector<Relation>(static_cast<std::size_t>(max_tag) + 1));
  }
  std::vector<Relation> direct_slices;

  // Launch every map payload in (branch, split) order; splits are read on
  // this thread (the DFS is not shared with workers).
  std::vector<std::pair<std::size_t, PendingTask<MapTaskResult>>> maps;
  for (std::size_t b = 0; b < spec.branches.size(); ++b) {
    const std::string& input = spec.branches[b].input_path;
    CBFT_CHECK_MSG(dfs.exists(input),
                   "local run: job input missing: " + input);
    const std::size_t splits = dfs.num_splits(input);
    for (std::size_t s = 0; s < splits; ++s) {
      PendingTask<MapTaskResult> task;
      if (pool != nullptr) {
        task.future = pool->submit(
            [&plan, &spec, b, s, split = dfs.read_split(input, s)]() mutable {
              return run_map_task(plan, spec, b, s, std::move(split));
            });
      } else {
        task.ready = run_map_task(plan, spec, b, s, dfs.read_split(input, s));
      }
      maps.emplace_back(b, std::move(task));
    }
  }

  // Drain in launch order: digests, metrics and shuffle buckets come out
  // exactly as the sequential runner produces them.
  for (auto& [b, task] : maps) {
    MapTaskResult r = task.take();
    accumulate(out.totals, r.metrics);
    for (DigestReport& d : r.digests) out.digests.push_back(std::move(d));
    if (spec.map_only()) {
      direct_slices.push_back(std::move(r.direct_output));
      continue;
    }
    const auto tag = static_cast<std::size_t>(spec.branches[b].tag);
    for (std::size_t p = 0; p < r.partitions.size(); ++p) {
      Relation& bucket = shuffle[p][tag];
      if (bucket.schema().size() == 0) {
        bucket = Relation(r.partitions[p].schema());
      }
      bucket.append(std::move(r.partitions[p]));
    }
  }

  if (!spec.map_only()) {
    // Partitions that received no rows for a tag still need that tag's
    // schema (mirrors ExecutionTracker::begin_reduce_phase).
    for (std::size_t p = 0; p < shuffle.size(); ++p) {
      for (std::size_t tag = 0; tag < shuffle[p].size(); ++tag) {
        if (shuffle[p][tag].schema().size() != 0) continue;
        for (const MapBranch& b : spec.branches) {
          if (static_cast<std::size_t>(b.tag) != tag) continue;
          const dataflow::OpId tail =
              b.map_ops.empty() ? b.source_vertex : b.map_ops.back();
          shuffle[p][tag] = Relation(plan.node(tail).schema);
          break;
        }
      }
    }
    direct_slices.resize(spec.num_reducers);
    // The shuffle is complete from here on and each partition goes to
    // exactly one reduce payload, which takes it by move (on the pool
    // too: no two payloads touch the same partition).
    std::vector<PendingTask<ReduceTaskResult>> reduces(spec.num_reducers);
    for (std::size_t p = 0; p < spec.num_reducers; ++p) {
      if (pool != nullptr) {
        reduces[p].future = pool->submit([&plan, &spec, p, &shuffle]() {
          return run_reduce_task(plan, spec, p, std::move(shuffle[p]));
        });
      } else {
        reduces[p].ready =
            run_reduce_task(plan, spec, p, std::move(shuffle[p]));
      }
    }
    for (std::size_t p = 0; p < spec.num_reducers; ++p) {
      ReduceTaskResult r = reduces[p].take();
      accumulate(out.totals, r.metrics);
      for (DigestReport& d : r.digests) out.digests.push_back(std::move(d));
      direct_slices[p] = std::move(r.output);
    }
  }

  // Concatenate task slices into the job output, in task order.
  Relation output;
  for (Relation& slice : direct_slices) {
    if (output.schema().size() == 0 && slice.schema().size() != 0) {
      output = Relation(slice.schema());
    }
    output.append(std::move(slice));
  }
  if (output.schema().size() == 0) {
    output = Relation(plan.node(spec.output_vertex).schema);
  }
  dfs.write(spec.output_path, output);
  out.outputs.emplace(spec.output_path, std::move(output));
}

}  // namespace

LocalRunResult run_job_dag_local(const dataflow::LogicalPlan& plan,
                                 const JobDag& dag, Dfs& dfs,
                                 const LocalRunOptions& opts) {
  std::unique_ptr<common::ThreadPool> pool;
  if (opts.threads > 0) {
    pool = std::make_unique<common::ThreadPool>(opts.threads);
  }
  LocalRunResult out;
  std::vector<bool> done(dag.jobs.size(), false);
  std::size_t completed = 0;
  while (completed < dag.jobs.size()) {
    const std::vector<std::size_t> ready = dag.ready(done);
    CBFT_CHECK_MSG(!ready.empty(), "local run: job DAG has a cycle");
    for (std::size_t j : ready) {
      run_one_job(plan, dag.jobs[j], dfs, pool.get(), out);
      done[j] = true;
      ++completed;
    }
  }
  return out;
}

}  // namespace clusterbft::mapreduce
