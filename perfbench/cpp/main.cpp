// cbft_perfbench: one workload of the repository benchmark in one
// process. perfbench/run.py builds and invokes it; see perfbench/README.md.
//
//   cbft_perfbench --workload follower_bft --seed 1 --seconds 25
//                  --trace 0 --out result.json [--trace-dir dir] [--commit id]
//
// --trace 0 measures the end-to-end metrics over untraced passes of the
// workload's request set, with wall and CPU times scaled to a reference
// host speed (calibrate.hpp); --trace 1 alternates untraced and traced passes
// and reports the per-layer metrics, the trace overhead and span
// coverage, and writes a Chrome trace plus a flat per-layer table to
// --trace-dir. Exit status is 0 whenever a result file was written (its
// "correct" field carries the verdict); anything else is an error.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "crypto/sha256_dispatch.hpp"
#include "protocol/codec.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef CBFT_PERFBENCH_BUILD_TYPE
#define CBFT_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// The timed phase ends by this many seconds even when a workload's
/// minimum request count is not met (the run must end within 180 s).
constexpr double kHardCapS = 120.0;
/// Spans kept in memory before the traced run stops adding passes.
constexpr std::size_t kMaxSpans = 6'000'000;
/// Slices written to the Chrome trace.
constexpr std::size_t kMaxTraceEvents = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string trace_dir = ".";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
         a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    o += (i == 0 ? "" : ", ") + json_num(v[i]);
  }
  return o + "]";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;  ///< sim, wall, cpu, mem or count
  std::size_t samples = 0;
};

/// Per-request wall-time share of each module in the traced passes.
void write_layer_table(const std::string& path,
                       const std::map<std::string, LayerTotal>& totals,
                       double traced_wall_s, double covered_s,
                       std::size_t requests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const double per = 1e3 / static_cast<double>(requests);
  std::fprintf(f, "# traced wall %.3f s over %zu requests; spans cover "
               "%.2f%%\n", traced_wall_s, requests,
               100.0 * covered_s / traced_wall_s);
  std::fprintf(f, "%-28s %10s %14s %14s %8s\n", "span", "count/req",
               "total ms/req", "self ms/req", "self %");
  std::map<std::string, double> by_module;
  for (const auto& [name, t] : totals) {
    std::fprintf(f, "%-28s %10.1f %14.4f %14.4f %7.2f%%\n", name.c_str(),
                 static_cast<double>(t.count) / static_cast<double>(requests),
                 t.total_s * per, t.self_s * per,
                 100.0 * t.self_s / traced_wall_s);
    by_module[name.substr(0, name.find('.'))] += t.self_s;
  }
  std::fprintf(f, "\n# where each request's wall time went, by module "
               "(self time)\n%-28s %14s %8s\n", "module", "ms/req", "share");
  for (const auto& [module, s] : by_module) {
    std::fprintf(f, "%-28s %14.4f %7.2f%%\n", module.c_str(), s * per,
                 100.0 * s / traced_wall_s);
  }
  std::fprintf(f, "%-28s %14.4f %7.2f%%\n", "(outside any span)",
               (traced_wall_s - covered_s) * per,
               100.0 * (traced_wall_s - covered_s) / traced_wall_s);
  std::fclose(f);
}

int run(const Args& a) {
  const auto process_start = Clock::now();
  std::unique_ptr<Workload> w = make_workload(a.workload, a.trace_dir);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }

  // The reference workload runs before every set-up and every untraced
  // pass, and once after the last of each: a timing is scaled by the
  // reference times on either side of it (see calibrate.hpp).
  std::uint64_t sink = 0;
  std::vector<double> setups;
  std::vector<double> setup_refs{reference_once(sink)};
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    w->setup(a.seed);
    setups.push_back(seconds_since(t0));
    setup_refs.push_back(reference_once(sink));
  }
  w->set_reference([&sink] { return reference_once(sink); });

  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  Tracer tracer;
  ReplayCounts replay;
  std::size_t requests = 0;
  std::size_t first_pass_spans = 0;  // spans of the first traced pass
  const auto t0 = Clock::now();
  std::vector<double> pass_refs;
  for (;;) {
    pass_refs.push_back(reference_once(sink));
    plain.push_back(w->run_pass(nullptr, nullptr, false));
    requests += plain.back().requests.size();
    if (a.trace == 1) {
      traced.push_back(w->run_pass(&tracer, &replay, traced.empty()));
      if (traced.size() == 1) first_pass_spans = tracer.spans().size();
    }
    const double elapsed = seconds_since(t0);
    const bool enough = elapsed >= a.seconds &&
                        (a.trace == 1 || requests >= w->min_requests());
    if (enough || elapsed >= kHardCapS || tracer.spans().size() > kMaxSpans) {
      break;
    }
  }
  pass_refs.push_back(reference_once(sink));

  // ---- checks -------------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool repeatable = true;
  bool frontend_agrees = true;
  bool codec_ok = true;  // every captured frame decodes again
  double lateness = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.requests.size();
      failed += p.failed;
      repeatable = repeatable && p.sim_fingerprint == plain[0].sim_fingerprint;
      frontend_agrees = frontend_agrees && p.frontend_agrees;
      lateness = std::max(lateness, p.max_lateness_s);
    }
  }

  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, double v, std::string unit,
                        std::string clock, std::size_t n = 0) {
    metrics.push_back({std::move(name), v, std::move(unit), std::move(clock), n});
  };

  double coverage = 0;
  if (a.trace == 0) {
    // Wall and CPU metrics are medians over the run's repeats of the same
    // work, each repeat scaled to the reference host speed; the raw
    // values go to the result file beside them.
    const std::size_t per_pass = plain[0].requests.size();
    // A request is scaled by the reference runs on either side of it, a
    // pass by the mean of every reference run from its start to its end.
    std::vector<double> scale(plain.size());
    std::vector<std::vector<double>> request_scale(plain.size());
    std::vector<double> refs;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const std::vector<RequestSample>& q = plain[i].requests;
      std::vector<double> before(q.size());
      double last = pass_refs[i];
      for (std::size_t k = 0; k < q.size(); ++k) {
        if (q[k].reference_s > 0) last = q[k].reference_s;
        before[k] = last;
      }
      double next = pass_refs[i + 1];
      double sum = pass_refs[i] + pass_refs[i + 1];
      double count = 2;
      request_scale[i].resize(q.size());
      for (std::size_t k = q.size(); k-- > 0;) {
        request_scale[i][k] = kReferenceS / ((before[k] + next) / 2);
        if (q[k].reference_s > 0) {
          next = q[k].reference_s;
          sum += next;
          count += 1;
          refs.push_back(next);
        }
      }
      scale[i] = kReferenceS / (sum / count);
      refs.push_back(pass_refs[i]);
    }
    refs.push_back(pass_refs.back());
    auto request_percentiles = [&](bool scaled, double p) {
      // Each distinct request's time is the median over its repeats.
      std::vector<double> per_request(per_pass);
      for (std::size_t k = 0; k < per_pass; ++k) {
        std::vector<double> repeats;
        bool all_ok = true;
        for (std::size_t i = 0; i < plain.size(); ++i) {
          repeats.push_back(plain[i].requests[k].wall_s * 1e3 *
                            (scaled ? request_scale[i][k] : 1.0));
          all_ok = all_ok && plain[i].requests[k].ok;
        }
        per_request[k] = all_ok ? median(repeats) : INFINITY;
      }
      return percentile(per_request, p);
    };
    std::vector<double> sim_lat;
    std::vector<double> pass_rps, raw_rps;
    std::vector<double> pass_cpu_ms, raw_cpu_ms;
    double sim_cpu = 0;
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const PassResult& p = plain[i];
      std::uint64_t pass_ok = 0;
      for (const RequestSample& s : p.requests) {
        sim_lat.push_back(s.sim_latency_s);
        sim_cpu += s.sim_cpu_s;
        pass_ok += s.ok ? 1 : 0;
      }
      ok += pass_ok;
      raw_rps.push_back(static_cast<double>(pass_ok) / p.wall_s);
      pass_rps.push_back(raw_rps.back() / scale[i]);
      raw_cpu_ms.push_back(p.cpu_s * 1e3 / static_cast<double>(per_pass));
      pass_cpu_ms.push_back(raw_cpu_ms.back() * scale[i]);
    }
    std::vector<double> setup_scaled;
    for (std::size_t i = 0; i < setups.size(); ++i) {
      setup_scaled.push_back(setups[i] * kReferenceS /
                             ((setup_refs[i] + setup_refs[i + 1]) / 2));
    }
    const double n = static_cast<double>(sim_lat.size());
    const double rps = w->sustainable_rps(plain[0]);
    const std::size_t np = plain.size();
    add("setup_s", median(setup_scaled), "s", "wall", setups.size());
    add("request_wall_ms.p50", request_percentiles(true, 50), "ms", "wall", np);
    add("request_wall_ms.p75", request_percentiles(true, 75), "ms", "wall", np);
    add("wall_rps", median(pass_rps), "req/s", "wall", np);
    add("cpu_ms_per_request", median(pass_cpu_ms), "ms", "cpu", np);
    add("peak_rss_mb", peak_rss_mib(), "MiB", "mem", 1);
    add("sim_latency_s.p50", percentile(sim_lat, 50), "s", "sim",
        sim_lat.size());
    add("sim_latency_s.p75", percentile(sim_lat, 75), "s", "sim",
        sim_lat.size());
    add("sim_cpu_s_per_request", sim_cpu / n, "s", "sim", sim_lat.size());
    add("sim_sustainable_rps", rps, "req/s", "sim", 1);
    add("verified_ratio", static_cast<double>(ok) / n, "ratio", "count",
        sim_lat.size());
    add("raw.setup_s", median(setups), "s", "wall", setups.size());
    add("raw.request_wall_ms.p50", request_percentiles(false, 50), "ms", "wall",
        np);
    add("raw.request_wall_ms.p75", request_percentiles(false, 75), "ms", "wall",
        np);
    add("raw.wall_rps", median(raw_rps), "req/s", "wall", np);
    add("raw.cpu_ms_per_request", median(raw_cpu_ms), "ms", "cpu", np);
    add("host.reference_ms", median(refs) * 1e3, "ms", "wall", refs.size());
  } else {
    const auto totals = tracer.totals();
    auto total = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_s;
    };
    auto self = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    PassCounts c;
    double traced_wall = 0;
    std::size_t req = 0;
    for (const PassResult& p : traced) {
      traced_wall += p.wall_s;
      req += p.requests.size();
      const PassCounts& q = p.counts;
      c.runs += q.runs;
      c.waves += q.waves;
      c.rollbacks += q.rollbacks;
      c.escalations += q.escalations;
      c.cloud_failovers += q.cloud_failovers;
      c.checkpoints += q.checkpoints;
      c.cache_hits += q.cache_hits;
      c.digest_reports += q.digest_reports;
      c.digested_bytes += q.digested_bytes;
      c.dfs_read_bytes += q.dfs_read_bytes;
      c.dfs_write_bytes += q.dfs_write_bytes;
      c.journal_records += q.journal_records;
      c.journal_bytes += q.journal_bytes;
      c.sim_task_s += q.sim_task_s;
      c.sim_slot_s += q.sim_slot_s;
      c.to_control_msgs += q.to_control_msgs;
      c.to_computation_msgs += q.to_computation_msgs;
      c.sim_events += q.sim_events;
    }
    const double n = static_cast<double>(req);
    const double ms = 1e3 / n;
    const double us = 1e6 / n;

    // Codec cost over the frames captured in the first traced pass:
    // encode was timed in place (protocol.encode), decode is timed here.
    const auto& frames = traced[0].frames;
    std::uint64_t wire_bytes = 0;
    const auto d0 = Clock::now();
    for (const auto& f : frames) {
      wire_bytes += f.size();
      codec_ok = codec_ok && clusterbft::protocol::decode(f).has_value();
    }
    const double decode_s = seconds_since(d0);
    const double nframes = std::max<double>(1, static_cast<double>(frames.size()));
    const double first_req = static_cast<double>(traced[0].requests.size());

    coverage = tracer.top_level_s() / traced_wall;
    std::vector<double> plain_wall, traced_wall_v;
    for (const PassResult& p : plain) plain_wall.push_back(p.wall_s);
    for (const PassResult& p : traced) traced_wall_v.push_back(p.wall_s);
    const double pass_req = static_cast<double>(plain[0].requests.size());

    add("dataflow.parse_us", total("dataflow.parse") * us, "us", "wall");
    add("dataflow.interpret_ms", total("dataflow.interpret") * ms, "ms", "wall");
    add("dataflow.byte_size_ms", total("dataflow.byte_size") * ms, "ms", "wall");
    add("dataflow.sorted_rows_ms", total("dataflow.sorted_rows") * ms, "ms",
        "wall");
    add("mapreduce.compile_us", total("mapreduce.compile") * us, "us", "wall");
    add("mapreduce.map_task_ms", total("mapreduce.map_task") * ms, "ms", "wall");
    add("mapreduce.reduce_task_ms", total("mapreduce.reduce_task") * ms, "ms",
        "wall");
    add("mapreduce.records_in", static_cast<double>(replay.records_in) / n,
        "count", "count");
    add("mapreduce.records_out", static_cast<double>(replay.records_out) / n,
        "count", "count");
    add("mapreduce.shuffle_mb", static_cast<double>(replay.shuffle_bytes) / n / 1e6,
        "MB", "count");
    add("mapreduce.dfs_read_mb", static_cast<double>(c.dfs_read_bytes) / n / 1e6,
        "MB", "count");
    add("mapreduce.dfs_write_mb", static_cast<double>(c.dfs_write_bytes) / n / 1e6,
        "MB", "count");
    add("crypto.sha256_mb_s",
        static_cast<double>(replay.hashed_bytes) / 1e6 /
            std::max(total("crypto.sha256"), 1e-9),
        "MB/s", "wall");
    add("crypto.digested_mb", static_cast<double>(c.digested_bytes) / n / 1e6,
        "MB", "count");
    add("core.analyze_us", total("core.analyze") * us, "us", "wall");
    add("core.begin_session_self_ms", self("core.begin_session") * ms, "ms",
        "wall");
    add("core.collect_ms", total("core.collect") * ms, "ms", "wall");
    add("core.on_message_self_ms", self("core.on_message") * ms, "ms", "wall");
    add("core.on_message_count", static_cast<double>(c.to_control_msgs) / n,
        "count", "count");
    add("core.runs", static_cast<double>(c.runs) / n, "count", "count");
    add("core.waves", static_cast<double>(c.waves) / n, "count", "count");
    add("core.rollbacks", static_cast<double>(c.rollbacks) / n, "count", "count");
    add("core.escalations", static_cast<double>(c.escalations) / n, "count",
        "count");
    add("core.cloud_failovers", static_cast<double>(c.cloud_failovers) / n,
        "count", "count");
    add("core.checkpoints", static_cast<double>(c.checkpoints) / n, "count",
        "count");
    add("core.useful_run_ratio",
        static_cast<double>(replay.base_runs) /
            std::max<double>(1, static_cast<double>(c.runs)),
        "ratio", "count");
    add("core.cache_hits", static_cast<double>(c.cache_hits) / n, "count",
        "count");
    add("core.journal_records", static_cast<double>(c.journal_records) / n,
        "count", "count");
    add("core.journal_kb", static_cast<double>(c.journal_bytes) / n / 1024.0,
        "KiB", "count");
    add("core.digest_reports", static_cast<double>(c.digest_reports) / n,
        "count", "count");
    add("protocol.to_control_msgs", static_cast<double>(c.to_control_msgs) / n,
        "count", "count");
    add("protocol.to_computation_msgs",
        static_cast<double>(c.to_computation_msgs) / n, "count", "count");
    add("protocol.wire_kb", static_cast<double>(wire_bytes) / first_req / 1024.0,
        "KiB", "count");
    add("protocol.codec_us_per_msg",
        (total("protocol.encode") + decode_s) * 1e6 / nframes, "us", "wall");
    add("protocol.service_ms", self("protocol.service") * ms, "ms", "wall");
    add("cluster.event_self_ms", self("cluster.step") * ms, "ms", "wall");
    add("cluster.events", static_cast<double>(c.sim_events) / n, "count",
        "count");
    add("cluster.slot_utilization",
        c.sim_slot_s > 0 ? c.sim_task_s / c.sim_slot_s : 0.0, "ratio", "sim");
    add("frontend.exec_latency_s.p99", traced[0].counts.frontend_p99_s, "s",
        "sim");
    add("frontend.queued_peak",
        static_cast<double>(traced[0].counts.queued_peak), "count", "count");
    add("frontend.run_self_ms", self("frontend.run") * ms, "ms", "wall");
    add("trace.coverage", coverage, "ratio", "wall");
    add("trace.overhead_ms",
        (median(traced_wall_v) - median(plain_wall)) * 1e3 / pass_req, "ms",
        "wall");

    const std::string stem = a.trace_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed);
    if (!tracer.write_chrome_json(stem + ".trace.json", first_pass_spans,
                                  traced[0].sim_slices, kMaxTraceEvents)) {
      std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
      return 3;
    }
    write_layer_table(stem + ".layers.txt", totals, traced_wall,
                      tracer.top_level_s(), req);
    for (Metric& m : metrics) m.samples = req;  // per traced request
    if (replay.mismatches != 0) failed += replay.mismatches;
  }

  const bool correct = failed == 0 && repeatable && lateness == 0.0 &&
                       frontend_agrees && codec_ok;

  std::vector<double> pass_walls;
  std::vector<double> pass_cpus;
  for (const PassResult& p : plain) {
    pass_walls.push_back(p.wall_s);
    pass_cpus.push_back(p.cpu_s);
  }

  // ---- result file ----------------------------------------------------
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 3;
  }
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"loop\": %s,\n  \"seed\": %llu,\n"
               "  \"trace\": %d,\n  \"seconds\": %s,\n",
               json_str(a.workload).c_str(), json_str(w->loop()).c_str(),
               static_cast<unsigned long long>(a.seed), a.trace,
               json_num(a.seconds).c_str());
  std::fprintf(
      f,
      "  \"env\": {\"cpu_model\": %s, \"nproc\": %u, \"sha256_backend\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"commit\": %s, \"seed\": %llu},\n",
      json_str(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_str(clusterbft::crypto::to_string(clusterbft::crypto::sha256_backend()))
          .c_str(),
      json_str(CBFT_PERFBENCH_BUILD_TYPE).c_str(),
      json_str(std::string("gcc-compatible ") + __VERSION__).c_str(),
      json_str(a.commit).c_str(), static_cast<unsigned long long>(a.seed));
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  std::fprintf(f,
               "  \"checks\": {\"outputs_match_reference\": %s, "
               "\"sim_repeatable\": %s, \"generator_lateness_s\": %s, "
               "\"frontend_percentiles_agree\": %s, \"codec_roundtrip\": %s, "
               "\"sim_fingerprint\": %s, "
               "\"untraced_passes\": %zu, \"traced_passes\": %zu, "
               "\"setup_reps_s\": %s, \"pass_wall_s\": %s, "
               "\"pass_cpu_s\": %s, \"setup_reference_s\": %s, "
               "\"pass_reference_s\": %s, \"reference_sink\": %llu, "
               "\"process_s\": %s},\n",
               failed == 0 ? "true" : "false", repeatable ? "true" : "false",
               json_num(lateness).c_str(), frontend_agrees ? "true" : "false",
               codec_ok ? "true" : "false",
               json_str(plain[0].sim_fingerprint).c_str(), plain.size(),
               traced.size(), json_list(setups).c_str(),
               json_list(pass_walls).c_str(), json_list(pass_cpus).c_str(),
               json_list(setup_refs).c_str(), json_list(pass_refs).c_str(),
               static_cast<unsigned long long>(sink),
               json_num(seconds_since(process_start)).c_str());
  std::fprintf(f, "  \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s, \"clock\": %s, "
                 "\"samples\": %zu}",
                 i == 0 ? "" : ",", json_str(m.name).c_str(),
                 json_num(m.value).c_str(), json_str(m.unit).c_str(),
                 json_str(m.clock).c_str(), m.samples);
  }
  std::fprintf(f, "\n  }\n}\n");
  if (std::fclose(f) != 0) return 3;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cbft_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE [--trace-dir DIR] [--commit ID]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbft_perfbench: %s\n", e.what());
    return 1;
  }
}
