// In-process deterministic JobDag executor.
//
// Runs a compiled job DAG the way a single honest worker would: inputs are
// split exactly as the DFS splits them, map tasks run in (branch, split)
// order, shuffle buckets are assembled in that same order, and reduce
// tasks run per partition. No simulator, no adversary, no scheduling — the
// output and the verification-point digest stream depend only on the plan,
// the DAG and the input bytes.
//
// Every task runs inline, on the calling thread. Shuffle and output
// assembly go through the same JobAssembler the execution tracker uses,
// so the two executors differ only in placement and timing.
//
// The reference executor behind the determinism tests (the same DAG
// executed twice must yield byte-identical digest vectors), the parity
// transcript (tools/analysis/digest_parity.cpp), the tracker differential
// test (tests/parallel_exec_test.cpp) and the sanitizer smoke binary
// (tools/analysis/asan_smoke.cpp).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "dataflow/relation.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/task.hpp"

namespace clusterbft::mapreduce {

struct LocalRunResult {
  /// Output relation of every job, keyed by output path (intermediates
  /// included). Also written into the DFS passed to run_job_dag_local.
  std::map<std::string, dataflow::Relation> outputs;

  /// Every digest report the run emitted, in deterministic task order.
  std::vector<DigestReport> digests;

  /// Aggregate task metrics across all map and reduce tasks.
  TaskMetrics totals;
};

/// Execute `dag` against the inputs already present in `dfs`. Jobs run in
/// dependency order; each job's output is written back to the DFS so
/// downstream jobs can read it. Throws CheckError if an input is missing.
LocalRunResult run_job_dag_local(const dataflow::LogicalPlan& plan,
                                 const JobDag& dag, Dfs& dfs);

}  // namespace clusterbft::mapreduce
