// Sanitizer smoke: exercises the digest-critical path — parse, interpret,
// compile to MapReduce, execute the job DAG in-process, digest at
// verification points — and checks that two runs are bit-identical. Two
// scripts: a three-column GROUP (the generic bag path) and the follower
// shape, two long columns (the packed GROUP and its index arithmetic).
//
// Built as `asan_smoke` in every configuration; the `asan_ubsan_smoke`
// ctest (label: analysis) runs it under -fsanitize=address,undefined so a
// heap-buffer-overflow or UB in the hashing/serialisation path aborts the
// suite even when the main build is unsanitized.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "crypto/digest.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "dataflow/relation.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/local_runner.hpp"

namespace {

namespace dataflow = clusterbft::dataflow;
namespace mapreduce = clusterbft::mapreduce;

using dataflow::Schema;
using dataflow::Tuple;
using dataflow::Value;
using dataflow::ValueType;

/// (k, v, s) rows with nulls: the generic GROUP path.
dataflow::Relation make_input() {
  dataflow::Relation rel(Schema::of({{"k", ValueType::kLong},
                                     {"v", ValueType::kLong},
                                     {"s", ValueType::kChararray}}));
  for (std::int64_t i = 0; i < 500; ++i) {
    Tuple t;
    t.fields.push_back(Value(i % 7));
    t.fields.push_back(i % 11 == 0 ? Value::null() : Value(i * 3 - 250));
    t.fields.push_back(Value(std::string(1, static_cast<char>('a' + i % 5))));
    rel.add(std::move(t));
  }
  return rel;
}

/// Follower-shaped (user, follower) edges of two longs: the packed GROUP
/// path, with extreme values in both columns.
dataflow::Relation make_edges() {
  dataflow::Relation rel(Schema::of({{"user", ValueType::kLong},
                                     {"follower", ValueType::kLong}}));
  for (std::int64_t i = 0; i < 600; ++i) {
    const std::int64_t user =
        i % 97 == 0 ? INT64_MIN : (i % 89 == 0 ? INT64_MAX : (i * i) % 37);
    rel.add(Tuple({Value(user), i % 13 == 0 ? Value::null()
                                            : Value(INT64_MAX - i % 41)}));
  }
  return rel;
}

mapreduce::LocalRunResult run_once(const dataflow::LogicalPlan& plan,
                                   const mapreduce::JobDag& dag,
                                   const std::string& path,
                                   const dataflow::Relation& input) {
  mapreduce::Dfs dfs(1024);  // small blocks: several map splits per job
  dfs.write(path, input);
  return mapreduce::run_job_dag_local(plan, dag, dfs);
}

/// Run `script` over `input` (LOADed from `path`) twice and against the
/// reference interpreter; the number of digests, or -1 on a failure.
long smoke(const std::string& script, const std::string& path,
           const dataflow::Relation& input) {
  const auto plan = dataflow::parse_script(script);

  // Verify at every non-LOAD/STORE vertex with a small digest granularity:
  // maximum hashing coverage for the sanitizers.
  std::vector<mapreduce::VerificationPoint> vps;
  for (const auto& node : plan.nodes()) {
    if (node.kind != dataflow::OpKind::kLoad &&
        node.kind != dataflow::OpKind::kStore) {
      vps.push_back({node.id, 16});
    }
  }
  const auto dag =
      mapreduce::compile(plan, vps, {.sid_prefix = "smoke"});

  const auto r1 = run_once(plan, dag, path, input);
  const auto r2 = run_once(plan, dag, path, input);

  if (r1.digests.empty()) {
    std::fprintf(stderr, "asan_smoke: FAIL: no digests emitted\n");
    return -1;
  }
  if (r1.digests.size() != r2.digests.size()) {
    std::fprintf(stderr, "asan_smoke: FAIL: digest count differs (%zu vs %zu)\n",
                 r1.digests.size(), r2.digests.size());
    return -1;
  }
  for (std::size_t i = 0; i < r1.digests.size(); ++i) {
    if (r1.digests[i].key != r2.digests[i].key ||
        !(r1.digests[i].digest == r2.digests[i].digest)) {
      std::fprintf(stderr, "asan_smoke: FAIL: digest %zu diverged (%s)\n", i,
                   r1.digests[i].key.to_string().c_str());
      return -1;
    }
  }

  // Cross-check against the reference interpreter.
  const auto golden = dataflow::interpret(
      plan, std::map<std::string, dataflow::Relation>{{path, input}});
  if (r1.outputs.at("out").sorted_rows() != golden.at("out").sorted_rows()) {
    std::fprintf(stderr, "asan_smoke: FAIL: MR output != interpreter output\n");
    return -1;
  }
  return static_cast<long>(r1.digests.size());
}

}  // namespace

int main() {
  const long generic = smoke(
      "a = LOAD 'ta' AS (k:long, v:long, s:chararray);\n"
      "f = FILTER a BY v IS NOT NULL;\n"
      "p = FOREACH f GENERATE k, ABS(v) AS v, UPPER(s) AS s;\n"
      "g = GROUP p BY k;\n"
      "c = FOREACH g GENERATE group AS k, COUNT(p) AS n, SUM(p.v) AS tot;\n"
      "o = ORDER c BY k;\n"
      "STORE o INTO 'out';\n",
      "ta", make_input());
  // The Fig. 9 follower shape: the map side digests, partitions and
  // counts each FILTER row from one serialisation, and the marked GROUP of
  // two long columns takes the packed path.
  const long follower = smoke(
      "edges = LOAD 'edges' AS (user:long, follower:long);\n"
      "clean = FILTER edges BY follower IS NOT NULL AND user IS NOT NULL;\n"
      "grp = GROUP clean BY user;\n"
      "counts = FOREACH grp GENERATE group AS user, COUNT(clean) AS followers;\n"
      "STORE counts INTO 'out';\n",
      "edges", make_edges());
  if (generic < 0 || follower < 0) return 1;

  std::printf("asan_smoke: OK: %ld + %ld digests bit-identical across runs\n",
              generic, follower);
  return 0;
}
