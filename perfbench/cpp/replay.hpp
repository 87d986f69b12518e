// Bench-side replay of one request's front half and data path, for the
// traced run's per-layer numbers: parse, analyze and compile the script
// exactly as the controller does, interpret it, run an honest single
// replica of the compiled job DAG task by task (Dfs::read_split ->
// run_map_task -> shuffle -> run_reduce_task -> Dfs::write), and hash
// the verified outputs. Every call into the program is wrapped in a span
// named after the module that owns the function.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/request.hpp"
#include "dataflow/relation.hpp"
#include "mapreduce/dfs.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplayCounts {
  /// Sum of compiled jobs x base replication: the runs an honest
  /// execution needs (the numerator of core.useful_run_ratio).
  std::uint64_t base_runs = 0;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t shuffle_bytes = 0;  ///< map-task output bytes of shuffle jobs
  std::uint64_t hashed_bytes = 0;   ///< serialised verified-output bytes
  /// Final outputs of the replay or the interpreter that differed from
  /// the controller's verified outputs.
  std::uint64_t mismatches = 0;
};

/// Replay `request` against `dfs` (which holds the request's inputs and
/// receives the replay's job outputs) and compare the replay's and the
/// interpreter's final outputs with `verified` (the controller's
/// verified outputs for the same request). `inputs` maps every LOAD path
/// to its relation, for the interpreter.
void replay_request(const clusterbft::core::ClientRequest& request,
                    const std::map<std::string, clusterbft::dataflow::Relation>&
                        inputs,
                    const std::map<std::string, clusterbft::dataflow::Relation>&
                        verified,
                    clusterbft::mapreduce::Dfs& dfs, Tracer& tracer,
                    ReplayCounts& counts);

/// Canonical comparison used by every output check: same schema width
/// and the same rows in canonical order.
bool same_rows(const clusterbft::dataflow::Relation& a,
               const clusterbft::dataflow::Relation& b);

}  // namespace perfbench
