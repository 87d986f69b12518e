// Substrate micro-benchmarks (google-benchmark): the primitive costs the
// simulator's cost model abstracts — SHA-256 hashing, canonical tuple
// serialisation, shuffle partitioning, group evaluation, script parsing,
// and a full PBFT agreement round.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "bftsmr/system.hpp"
#include "common/rng.hpp"
#include "core/journal.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_dispatch.hpp"
#include "dataflow/ops_eval.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/task.hpp"
#include "protocol/codec.hpp"
#include "protocol/loopback.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"

namespace {

using namespace clusterbft;

void BM_Sha256Throughput(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(4096)->Arg(1 << 20);

// --- SHA-256 dispatch (ISSUE 7): per-backend single-stream throughput
// and the multi-buffer batch entry point, with the process-wide backend
// forced for the duration of the run. Only backends this host can run
// are registered (see main), so the JSON rows double as a record of
// what the bench machine supported.

void BM_Sha256BackendThroughput(benchmark::State& state,
                                crypto::Sha256Backend backend) {
  const crypto::Sha256Backend prev = crypto::sha256_backend();
  crypto::force_sha256_backend(backend);
  const std::string data(1 << 20, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  crypto::force_sha256_backend(prev);
}

void BM_Sha256BatchBackend(benchmark::State& state,
                           crypto::Sha256Backend backend) {
  // The verifier's fingerprint-fold shape: many small records digested
  // as a batch (8 lanes fills one AVX2 group).
  const crypto::Sha256Backend prev = crypto::sha256_backend();
  crypto::force_sha256_backend(backend);
  constexpr std::size_t kMsgs = 8;
  constexpr std::size_t kLen = 4096;
  std::vector<std::string> msgs(kMsgs, std::string(kLen, 'y'));
  std::vector<std::string_view> views(msgs.begin(), msgs.end());
  std::vector<crypto::Sha256::Digest> out(kMsgs);
  for (auto _ : state) {
    crypto::sha256_batch(views.data(), out.data(), kMsgs);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMsgs * kLen));
  crypto::force_sha256_backend(prev);
}

void BM_ChunkedDigester(benchmark::State& state) {
  const std::string rec = "user\x1f" "123456\x1f" "follower\x1f" "7890";
  for (auto _ : state) {
    crypto::ChunkedDigester d(static_cast<std::uint64_t>(state.range(0)));
    for (int i = 0; i < 10000; ++i) d.add_record(rec);
    benchmark::DoNotOptimize(d.finish());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ChunkedDigester)->Arg(0)->Arg(1000)->Arg(100);

void BM_TupleSerialize(benchmark::State& state) {
  dataflow::Tuple t({dataflow::Value(std::int64_t{123456}),
                     dataflow::Value(3.14159),
                     dataflow::Value("chararray-value")});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataflow::serialize_tuple(t));
  }
}
BENCHMARK(BM_TupleSerialize);

// --- Map-task hot paths (ISSUE 2): split ingestion (the input Relation
// hand-off into run_map_task) and the per-tuple serialise+digest stream
// at a verification point. Both ride on the compiled Twitter follower
// job so they measure the real call pattern, dfs.read_split included.

struct MapTaskBench {
  mapreduce::Dfs dfs{256 << 10};
  dataflow::LogicalPlan plan;
  mapreduce::JobDag dag;

  explicit MapTaskBench(std::uint64_t records_per_digest) {
    workloads::TwitterConfig tw;
    tw.num_edges = 20000;
    tw.num_users = 2000;
    dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
    plan = dataflow::parse_script(workloads::twitter_follower_analysis());
    std::vector<mapreduce::VerificationPoint> vps;
    if (records_per_digest > 0) {
      const auto probe = mapreduce::compile(plan, {}, {.sid_prefix = "b"});
      vps.push_back(
          {probe.jobs[0].branches[0].source_vertex, records_per_digest});
    }
    dag = mapreduce::compile(plan, vps, {.sid_prefix = "b"});
  }
};

void BM_MapTaskSplitIngest(benchmark::State& state) {
  MapTaskBench b(/*records_per_digest=*/0);
  const mapreduce::MRJobSpec& job = b.dag.jobs[0];
  const std::string& input = job.branches[0].input_path;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto r = mapreduce::run_map_task(b.plan, job, 0, 0,
                                     b.dfs.read_split(input, 0));
    bytes = r.metrics.input_bytes;
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MapTaskSplitIngest);

void BM_MapTaskDigestStream(benchmark::State& state) {
  MapTaskBench b(/*records_per_digest=*/64);
  const mapreduce::MRJobSpec& job = b.dag.jobs[0];
  const std::string& input = job.branches[0].input_path;
  std::uint64_t records = 0;
  std::uint64_t digested = 0;
  for (auto _ : state) {
    auto r = mapreduce::run_map_task(b.plan, job, 0, 0,
                                     b.dfs.read_split(input, 0));
    records = r.metrics.records_in;
    digested = r.metrics.digested_bytes;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  state.counters["digested_bytes"] =
      benchmark::Counter(static_cast<double>(digested));
}
BENCHMARK(BM_MapTaskDigestStream);

void BM_ShufflePartition(benchmark::State& state) {
  dataflow::OpNode group;
  group.kind = dataflow::OpKind::kGroup;
  group.group_keys = {0};
  Rng rng(1);
  std::vector<dataflow::Tuple> tuples;
  for (int i = 0; i < 1000; ++i) {
    tuples.push_back(dataflow::Tuple(
        {dataflow::Value(static_cast<std::int64_t>(rng.next_below(100)))}));
  }
  mapreduce::RowBytes row_buf;
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& t : tuples) {
      acc += mapreduce::shuffle_partition(group, 0, t, 8, row_buf);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ShufflePartition);

void BM_EvalGroup(benchmark::State& state) {
  workloads::TwitterConfig cfg;
  cfg.num_edges = static_cast<std::uint64_t>(state.range(0));
  const auto rel = workloads::generate_twitter_edges(cfg);
  dataflow::OpNode op;
  op.kind = dataflow::OpKind::kGroup;
  op.group_keys = {0};
  op.schema = dataflow::Schema::of(
      {{"group", dataflow::ValueType::kLong},
       {"bag", dataflow::ValueType::kBag}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataflow::eval_group(op, rel));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvalGroup)->Arg(1000)->Arg(10000);

// --- Shuffle hot path (ISSUE 4): the reduce boundary used to sort the
// whole partition canonically before grouping; the hash-partitioned path
// feeds the unsorted partition straight into the order-insensitive
// KeyIndex grouping and sorts only per-key bags. Both emit bit-identical
// canonical bytes; the delta is the digest-hot-path saving.

void BM_ReduceGroup_SortBased(benchmark::State& state) {
  workloads::TwitterConfig cfg;
  cfg.num_edges = static_cast<std::uint64_t>(state.range(0));
  const auto rel = workloads::generate_twitter_edges(cfg);
  dataflow::OpNode op;
  op.kind = dataflow::OpKind::kGroup;
  op.group_keys = {0};
  op.schema = dataflow::Schema::of(
      {{"group", dataflow::ValueType::kLong},
       {"bag", dataflow::ValueType::kBag}});
  for (auto _ : state) {
    dataflow::Relation sorted(rel.schema(), rel.sorted_rows());
    benchmark::DoNotOptimize(dataflow::eval_group(op, sorted));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceGroup_SortBased)->Arg(10000)->Arg(50000);

void BM_ReduceGroup_HashPartitioned(benchmark::State& state) {
  workloads::TwitterConfig cfg;
  cfg.num_edges = static_cast<std::uint64_t>(state.range(0));
  const auto rel = workloads::generate_twitter_edges(cfg);
  dataflow::OpNode op;
  op.kind = dataflow::OpKind::kGroup;
  op.group_keys = {0};
  op.schema = dataflow::Schema::of(
      {{"group", dataflow::ValueType::kLong},
       {"bag", dataflow::ValueType::kBag}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataflow::eval_group(op, rel));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceGroup_HashPartitioned)->Arg(10000)->Arg(50000);

void BM_ParseScript(benchmark::State& state) {
  const std::string script = workloads::airline_top20_analysis();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataflow::parse_script(script));
  }
}
BENCHMARK(BM_ParseScript);

void BM_PbftOrderingThroughput(benchmark::State& state) {
  // Simulated seconds to totally order 100 requests, by batch size. The
  // counter reports ops per simulated second.
  for (auto _ : state) {
    cluster::EventSim sim;
    bftsmr::SystemConfig cfg;
    cfg.f = 1;
    cfg.batch_size = static_cast<std::size_t>(state.range(0));
    cfg.checkpoint_interval = 64;
    bftsmr::BftSystem sys(
        sim, cfg, [] { return std::make_unique<bftsmr::LogService>(); });
    double last_done = 0;
    for (int i = 0; i < 100; ++i) {
      sys.submit("op" + std::to_string(i),
                 [&sim, &last_done](const std::string&, double) {
                   last_done = sim.now();
                 });
    }
    sim.run();
    state.counters["sim_ops_per_s"] = 100.0 / last_done;
    benchmark::DoNotOptimize(last_done);
  }
}
BENCHMARK(BM_PbftOrderingThroughput)->Arg(1)->Arg(8)->Arg(32);

void BM_PbftPipelinedThroughput(benchmark::State& state) {
  // ISSUE 7: batched rounds with k consensus instances in flight.
  // Args are {batch_size, pipeline_depth}; depth 0 is the legacy auto
  // mode (2 for batched configs), so {8,0} vs {8,4} isolates what the
  // deeper pipeline buys on an otherwise identical system.
  for (auto _ : state) {
    cluster::EventSim sim;
    bftsmr::SystemConfig cfg;
    cfg.f = 1;
    cfg.batch_size = static_cast<std::size_t>(state.range(0));
    cfg.pipeline_depth = static_cast<std::size_t>(state.range(1));
    cfg.checkpoint_interval = 64;
    bftsmr::BftSystem sys(
        sim, cfg, [] { return std::make_unique<bftsmr::LogService>(); });
    double last_done = 0;
    for (int i = 0; i < 100; ++i) {
      sys.submit("op" + std::to_string(i),
                 [&sim, &last_done](const std::string&, double) {
                   last_done = sim.now();
                 });
    }
    sim.run();
    state.counters["sim_ops_per_s"] = 100.0 / last_done;
    benchmark::DoNotOptimize(last_done);
  }
}
BENCHMARK(BM_PbftPipelinedThroughput)
    ->Args({1, 1})
    ->Args({8, 0})
    ->Args({8, 4})
    ->Args({32, 4});

void BM_PbftAgreementRound(benchmark::State& state) {
  for (auto _ : state) {
    cluster::EventSim sim;
    bftsmr::SystemConfig cfg;
    cfg.f = static_cast<std::size_t>(state.range(0));
    bftsmr::BftSystem sys(
        sim, cfg, [] { return std::make_unique<bftsmr::LogService>(); });
    double latency = 0;
    sys.submit("op", [&](const std::string&, double lat) { latency = lat; });
    sim.run();
    benchmark::DoNotOptimize(latency);
  }
}
BENCHMARK(BM_PbftAgreementRound)->Arg(1)->Arg(2)->Arg(3);

// --- Control-plane seam (ISSUE 3): the codec and the loopback dispatch
// are on the digest hot path — every verification-point report crosses
// the trust boundary as a protocol message, so their per-message cost
// bounds how much the seam can add to Fig. 9 latency.

protocol::DigestBatch make_digest_batch(std::size_t reports) {
  Rng rng(11);
  protocol::DigestBatch batch;
  batch.run = 7;
  batch.node = 3;
  batch.reports.resize(reports);
  for (std::size_t i = 0; i < reports; ++i) {
    mapreduce::DigestReport& r = batch.reports[i];
    r.key.sid = "bench#0:job0";
    r.key.vertex = i % 8;
    r.key.reduce_side = (i % 2) != 0;
    r.key.partition = i % 4;
    r.key.chunk = i;
    r.replica = i % 3;
    for (auto& b : r.digest.bytes) b = static_cast<std::uint8_t>(rng.next());
    r.record_count = 1000 + i;
  }
  return batch;
}

void BM_CodecEncodeDigestBatch(benchmark::State& state) {
  const protocol::Message msg =
      make_digest_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::encode(msg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecEncodeDigestBatch)->Arg(64);

void BM_CodecDecodeDigestBatch(benchmark::State& state) {
  const auto bytes = protocol::encode(
      protocol::Message{make_digest_batch(static_cast<std::size_t>(state.range(0)))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CodecDecodeDigestBatch)->Arg(64);

void BM_CodecRoundTripSubmitRun(benchmark::State& state) {
  protocol::SubmitRun cmd;
  cmd.run = 42;
  cmd.program = 1;
  cmd.job_index = 2;
  cmd.replica = 1;
  cmd.input_paths = {"twitter/edges", "w1/tmp/job0"};
  cmd.output_path = "w1/out/follower_counts";
  cmd.avoid = {3, 5, 9};
  cmd.max_nodes = 4;
  const protocol::Message msg = cmd;
  for (auto _ : state) {
    const auto bytes = protocol::encode(msg);
    auto back = protocol::decode(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_CodecRoundTripSubmitRun);

void BM_CodecDecodeSubmitRun(benchmark::State& state) {
  // ISSUE 7: decode-only cost of a path-heavy frame. The zero-copy
  // receive path hands the handler Text views borrowing from the frame,
  // so this measures header parsing plus view construction — no payload
  // string is copied. BM_CodecDecodeSubmitRunOwned adds the explicit
  // copy-materialise escape hatch for comparison; the delta is what
  // borrowing saves per frame.
  protocol::SubmitRun cmd;
  cmd.run = 42;
  cmd.program = 1;
  cmd.job_index = 2;
  cmd.replica = 1;
  cmd.input_paths = {"twitter/edges", "w1/tmp/job0", "w1/tmp/job1",
                     "w2/tmp/probe/control"};
  cmd.output_path = "w1/out/follower_counts";
  cmd.avoid = {3, 5, 9};
  cmd.max_nodes = 4;
  const auto bytes = protocol::encode(protocol::Message{cmd});
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecodeSubmitRun);

void BM_CodecDecodeSubmitRunOwned(benchmark::State& state) {
  protocol::SubmitRun cmd;
  cmd.run = 42;
  cmd.program = 1;
  cmd.job_index = 2;
  cmd.replica = 1;
  cmd.input_paths = {"twitter/edges", "w1/tmp/job0", "w1/tmp/job1",
                     "w2/tmp/probe/control"};
  cmd.output_path = "w1/out/follower_counts";
  cmd.avoid = {3, 5, 9};
  cmd.max_nodes = 4;
  const auto bytes = protocol::encode(protocol::Message{cmd});
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::decode_owned(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecodeSubmitRunOwned);

void BM_LoopbackDispatchDigestBatch(benchmark::State& state) {
  // What a DigestBatch costs to cross the seam in-process: one variant
  // move through the loopback transport plus the handler visit. The
  // codec is deliberately skipped (that is the loopback's point).
  protocol::LoopbackTransport transport;
  std::size_t seen = 0;
  transport.bind_control([&seen](const protocol::Message& m) {
    seen += std::get<protocol::DigestBatch>(m).reports.size();
  });
  const protocol::DigestBatch batch =
      make_digest_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    transport.to_control(batch);
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LoopbackDispatchDigestBatch)->Arg(64);

// --- Control-tier journal (ISSUE 5): every externally visible decision
// is appended before the matching control-plane message leaves the trust
// boundary, so append cost rides the controller's hot path; the decode
// throughput bounds how fast recovery can chew through an on-disk WAL.

std::vector<core::JournalRecord> make_journal_records(std::size_t n) {
  Rng rng(5);
  std::vector<core::JournalRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::JournalRecord r;
    // Mix the two common shapes: small stimulus frames and fatter
    // dispatch frames (a SubmitRun with paths runs ~100-200 bytes).
    r.kind = (i % 4 == 0) ? core::RecordKind::kRunDispatched
                          : core::RecordKind::kInbound;
    r.time = 0.001 * static_cast<double>(i);
    r.payload.resize(32 + i % 160);
    for (auto& b : r.payload) b = static_cast<std::uint8_t>(rng.next());
    out.push_back(std::move(r));
  }
  return out;
}

void BM_JournalAppend(benchmark::State& state) {
  const auto records =
      make_journal_records(static_cast<std::size_t>(state.range(0)));
  std::int64_t frame_bytes = 0;
  for (const auto& r : records) {
    frame_bytes +=
        static_cast<std::int64_t>(core::Journal::encode_record(r).size());
  }
  for (auto _ : state) {
    core::Journal journal;
    for (const auto& r : records) {
      benchmark::DoNotOptimize(
          journal.append(r.kind, r.time, std::vector<std::uint8_t>(r.payload)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * frame_bytes);
}
BENCHMARK(BM_JournalAppend)->Arg(1024);

void BM_JournalReplayDecode(benchmark::State& state) {
  // Recovery's first step: decode the on-disk frame stream back into
  // typed records. (The handler re-dispatch the records then drive is
  // ordinary controller code, measured end-to-end in EXPERIMENTS.md.)
  const auto records =
      make_journal_records(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> stream;
  for (const auto& r : records) {
    const auto frame = core::Journal::encode_record(r);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  for (auto _ : state) {
    std::size_t off = 0;
    std::size_t decoded = 0;
    while (off < stream.size()) {
      std::size_t consumed = 0;
      const auto rec = core::Journal::decode_record(
          stream.data() + off, stream.size() - off, &consumed);
      if (!rec.has_value()) break;
      off += consumed;
      ++decoded;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_JournalReplayDecode)->Arg(1024);

/// Forwards every finished run into the shared BenchJson sink (so
/// bench_micro emits BENCH_micro.json like the simulation benches) while
/// keeping the normal console table.
class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRowReporter(bench::BenchJson& sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      sink_.add(r.benchmark_name(), r.GetAdjustedRealTime(),
                benchmark::GetTimeUnitString(r.time_unit));
      for (const auto& [name, counter] : r.counters) {
        sink_.add(r.benchmark_name() + "/" + name, counter.value, "counter");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchJson& sink_;
};

}  // namespace

int main(int argc, char** argv) {
  // Register the per-backend SHA-256 benches for exactly the backends
  // this host can run; the benchmark name carries the backend, so the
  // JSON rows stay stable per machine and absent (not zero) elsewhere.
  using clusterbft::crypto::Sha256Backend;
  for (Sha256Backend b : {Sha256Backend::kScalar, Sha256Backend::kShani,
                          Sha256Backend::kAvx2}) {
    if (!clusterbft::crypto::sha256_backend_available(b)) continue;
    const std::string name = clusterbft::crypto::to_string(b);
    benchmark::RegisterBenchmark(
        ("BM_Sha256BackendThroughput/" + name).c_str(),
        BM_Sha256BackendThroughput, b);
    benchmark::RegisterBenchmark(("BM_Sha256BatchBackend/" + name).c_str(),
                                 BM_Sha256BatchBackend, b);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  clusterbft::bench::BenchJson sink("micro");
  JsonRowReporter reporter(sink);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  sink.write();
  return 0;
}
