#include "mapreduce/local_runner.hpp"

#include <utility>

#include "common/check.hpp"

namespace clusterbft::mapreduce {

using dataflow::Relation;

namespace {

void accumulate(TaskMetrics& into, const TaskMetrics& m) {
  into.input_bytes += m.input_bytes;
  into.output_bytes += m.output_bytes;
  into.digested_bytes += m.digested_bytes;
  into.records_in += m.records_in;
  into.records_out += m.records_out;
}

void run_one_job(const dataflow::LogicalPlan& plan, const MRJobSpec& spec,
                 Dfs& dfs, LocalRunResult& out) {
  // Map tasks in (branch, split) order, numbered like the tracker's.
  std::vector<std::pair<std::size_t, std::size_t>> maps;
  for (std::size_t b = 0; b < spec.branches.size(); ++b) {
    const std::string& input = spec.branches[b].input_path;
    CBFT_CHECK_MSG(dfs.exists(input),
                   "local run: job input missing: " + input);
    for (std::size_t s = 0; s < dfs.num_splits(input); ++s) {
      maps.emplace_back(b, s);
    }
  }
  JobAssembler assembly(plan, spec, maps.size());
  for (std::size_t t = 0; t < maps.size(); ++t) {
    const auto [b, s] = maps[t];
    MapTaskResult r =
        run_map_task(plan, spec, b, s,
                     dfs.read_split(spec.branches[b].input_path, s));
    accumulate(out.totals, r.metrics);
    for (DigestReport& d : r.digests) out.digests.push_back(std::move(d));
    assembly.add_map(t, b, std::move(r));
  }

  if (!spec.map_only()) {
    assembly.seal_shuffle();
    for (std::size_t p = 0; p < spec.num_reducers; ++p) {
      ReduceTaskResult r =
          run_reduce_task(plan, spec, p, assembly.take_partition(p));
      accumulate(out.totals, r.metrics);
      for (DigestReport& d : r.digests) out.digests.push_back(std::move(d));
      assembly.add_reduce(p, std::move(r.output));
    }
  }

  Relation output = assembly.take_output();
  dfs.write(spec.output_path, output);
  out.outputs.emplace(spec.output_path, std::move(output));
}

}  // namespace

LocalRunResult run_job_dag_local(const dataflow::LogicalPlan& plan,
                                 const JobDag& dag, Dfs& dfs) {
  LocalRunResult out;
  std::vector<bool> done(dag.jobs.size(), false);
  std::size_t completed = 0;
  while (completed < dag.jobs.size()) {
    const std::vector<std::size_t> ready = dag.ready(done);
    CBFT_CHECK_MSG(!ready.empty(), "local run: job DAG has a cycle");
    for (std::size_t j : ready) {
      run_one_job(plan, dag.jobs[j], dfs, out);
      done[j] = true;
      ++completed;
    }
  }
  return out;
}

}  // namespace clusterbft::mapreduce
