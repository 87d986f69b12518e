// Digest-parity transcript generator for the `digest_parity` ctest.
//
// Replays the 24-seed random-plan sweep from
// tests/determinism_test.cpp (VerificationPointDigestsBitStable) and
// prints every verification-point digest — MR-side and interpreter-side
// — as one canonical line on stdout. The parity gate runs this binary
// twice, once with the default SHA-256 dispatch and once with
// CLUSTERBFT_SHA256_BACKEND=scalar, and diffs the transcripts: any byte
// the accelerated kernels compute differently from the reference scalar
// path shows up as a transcript mismatch. The active backend goes to
// stderr so the stdout transcripts stay comparable.
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_analyzer.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256_dispatch.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/local_runner.hpp"
#include "random_script.hpp"

namespace clusterbft {
namespace {

std::vector<crypto::ChunkDigest> digest_relation(
    const dataflow::Relation& rel, std::uint64_t records_per_digest) {
  crypto::ChunkedDigester d(records_per_digest);
  for (const auto& t : rel.rows()) d.add_record(dataflow::serialize_tuple(t));
  return d.finish();
}

void emit_pass(std::uint64_t seed) {
  Rng rng(seed);
  const dataflow::Relation input = testgen::random_table(rng, 250);
  const std::string script = testgen::random_script(rng);

  const auto plan = dataflow::parse_script(script);
  const auto ratios =
      core::compute_input_ratios(plan, {{"ta", input.byte_size()}});
  const auto marks = core::mark_verification_points(
      plan, ratios, 2, core::AdversaryModel::kWeak);
  std::vector<mapreduce::VerificationPoint> vps;
  for (const dataflow::OpId v : marks) vps.push_back({v, 32});
  const auto dag = mapreduce::compile(plan, vps, {.sid_prefix = "det"});

  mapreduce::Dfs dfs(2048);
  dfs.write("ta", input);
  const auto run = mapreduce::run_job_dag_local(plan, dag, dfs);
  for (const auto& r : run.digests) {
    std::cout << "seed " << seed << " mr " << r.key.to_string() << " n "
              << r.record_count << " " << r.digest.hex() << "\n";
  }

  const auto golden = dataflow::interpret(plan, {{"ta", input}});
  for (const auto& [path, rel] : golden) {
    for (const auto& cd : digest_relation(rel, 32)) {
      std::cout << "seed " << seed << " interp " << path << " chunk "
                << cd.chunk_index << " n " << cd.record_count << " "
                << cd.digest.hex() << "\n";
    }
  }
}

}  // namespace
}  // namespace clusterbft

int main() {
  using clusterbft::crypto::sha256_backend;
  using clusterbft::crypto::to_string;
  std::cerr << "digest_parity: sha256 backend = "
            << to_string(sha256_backend()) << "\n";
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    clusterbft::emit_pass(seed);
  }
  return 0;
}
