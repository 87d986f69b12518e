#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "baseline/presets.hpp"
#include "cluster/cloud.hpp"
#include "cluster/event_sim.hpp"
#include "cluster/fault_plan.hpp"
#include "cluster/tracker.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/journal.hpp"
#include "crypto/sha256.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "frontend/frontend.hpp"
#include "mapreduce/dfs.hpp"
#include "protocol/codec.hpp"
#include "protocol/multicloud.hpp"
#include "protocol/seam.hpp"
#include "workloads/airline.hpp"
#include "workloads/mixed.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace perfbench {

namespace cb = clusterbft;
using cb::dataflow::Relation;
using Outputs = std::map<std::string, Relation>;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Independent sub-seeds from the run seed (splitmix64 finaliser).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Every verified output equals the reference, and nothing else was
/// promoted.
bool matches(const cb::core::ScriptResult& r, const Outputs& golden) {
  if (!r.verified || r.failure != cb::core::FailureReason::kNone ||
      r.outputs.size() != golden.size()) {
    return false;
  }
  for (const auto& [path, rel] : golden) {
    const auto it = r.outputs.find(path);
    if (it == r.outputs.end() || !same_rows(it->second, rel)) return false;
  }
  return true;
}

/// Appends simulated-clock quantities in exact (hex float) form.
class SimFingerprint {
 public:
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a;", v);
    text_ += buf;
  }
  void add(std::uint64_t v) { text_ += std::to_string(v) + ";"; }
  void add_result(const cb::core::ScriptResult& r) {
    const auto& m = r.metrics;
    add(m.latency_s);
    add(m.cpu_seconds);
    add(static_cast<std::uint64_t>(r.verified));
    add(static_cast<std::uint64_t>(r.failure));
    for (const std::uint64_t v :
         {std::uint64_t{m.runs}, std::uint64_t{m.waves},
          std::uint64_t{m.rollbacks}, std::uint64_t{m.digest_reports},
          std::uint64_t{m.cache_hits}, std::uint64_t{m.checkpoints},
          std::uint64_t{m.escalations}, std::uint64_t{m.cloud_failovers},
          m.file_read, m.file_write, m.hdfs_write, m.digested}) {
      add(v);
    }
    for (const auto& [sid, hex] : r.verified_digest_hex) text_ += sid + hex;
  }
  std::string hex() const {
    return cb::crypto::to_hex(cb::crypto::Sha256::hash(text_));
  }

 private:
  std::string text_;
};

void add_counts(PassCounts& c, const cb::core::ScriptResult& r) {
  const auto& m = r.metrics;
  c.runs += m.runs;
  c.waves += m.waves;
  c.rollbacks += m.rollbacks;
  c.escalations += m.escalations;
  c.cloud_failovers += m.cloud_failovers;
  c.checkpoints += m.checkpoints;
  c.cache_hits += m.cache_hits;
  c.digest_reports += m.digest_reports;
  c.digested_bytes += m.digested;
  c.sim_task_s += m.cpu_seconds;
}

// ---------------------------------------------------------------------
// Transport seam wrapper for the traced run.

/// Sits between the controller and the program's own transport: times
/// every inbound delivery to the controller (core.on_message) and every
/// outbound delivery to the computation tier (protocol.service — the
/// service runs map payloads inline there), counts both directions, and
/// optionally keeps each message's encoded frame.
class TracingTransport final : public cb::protocol::Transport {
 public:
  TracingTransport(cb::protocol::Transport& inner, Tracer& tracer,
                   PassResult& pass, bool capture)
      : inner_(inner), tracer_(tracer), pass_(pass), capture_(capture) {
    inner_.bind_control([this](const cb::protocol::Message& m) {
      ++pass_.counts.to_control_msgs;
      keep(m);
      const Scope span(&tracer_, "core.on_message");
      // Every Transport hands its handler a Message it owns (a by-value
      // parameter or an element of its own queue) and drops it when the
      // handler returns, so forwarding by move keeps the program's
      // zero-copy receive path instead of adding a copy.
      deliver_control(std::move(const_cast<cb::protocol::Message&>(m)));
    });
  }

  void to_control(cb::protocol::Message m) override {
    deliver_control(std::move(m));
  }
  void to_computation(cb::protocol::Message m) override {
    ++pass_.counts.to_computation_msgs;
    keep(m);
    const Scope span(&tracer_, "protocol.service");
    inner_.to_computation(std::move(m));
  }

 private:
  void keep(const cb::protocol::Message& m) {
    if (!capture_) return;
    const Scope span(&tracer_, "protocol.encode");
    pass_.frames.push_back(cb::protocol::encode(m));
  }

  cb::protocol::Transport& inner_;
  Tracer& tracer_;
  PassResult& pass_;
  bool capture_;
};

/// Drive one session from the bench (begin, step until finished, drain
/// stragglers, collect) — the same sequence ClusterBft::execute runs,
/// with each call wrapped in a span.
cb::core::ScriptResult drive_traced(cb::core::ClusterBft& controller,
                                    cb::cluster::EventSim& sim,
                                    const cb::core::ClientRequest& request,
                                    Tracer& tracer, PassCounts& counts) {
  std::size_t id = 0;
  {
    const Scope span(&tracer, "core.begin_session");
    id = controller.begin_session(request);
  }
  auto step = [&] {
    const Scope span(&tracer, "cluster.step");
    const bool stepped = sim.step();
    counts.sim_events += stepped ? 1 : 0;
    return stepped;
  };
  while (!controller.session_finished(id) && step()) {
  }
  if (!controller.session_finished(id)) controller.fail_stalled_sessions();
  while (step()) {
  }
  const Scope span(&tracer, "core.collect");
  return controller.collect_session(id);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// ---------------------------------------------------------------------
// Closed loop: one script at a time, a fresh world per request.

/// A closed-loop workload serves `requests_` one after another, each in a
/// fresh world from `build_world`.
class ClosedLoop : public Workload {
 public:
  const char* loop() const override { return "closed"; }

  PassResult run_pass(Tracer* tracer, ReplayCounts* replay,
                      bool capture) override {
    PassResult pass;
    SimFingerprint fp;
    std::vector<cb::core::ScriptResult> results;
    double sim_offset = 0;
    double reference_wall = 0;
    double reference_cpu = 0;
    const double cpu0 = cpu_now();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      RequestSample sample;
      if (i > 0 && tracer == nullptr && reference_) {
        const double c = cpu_now();
        const auto r = Clock::now();
        sample.reference_s = reference_();
        reference_wall += seconds_since(r);
        reference_cpu += cpu_now() - c;
      }
      if (tracer != nullptr) tracer->set_request(static_cast<std::uint32_t>(i));
      std::unique_ptr<World> world;
      {
        const Scope span(tracer, "harness.world");
        world = build_world(i, tracer, pass, capture);
      }
      cb::core::ScriptResult r;
      const auto r0 = Clock::now();
      if (tracer == nullptr) {
        r = world->controller->execute(requests_[i]);
      } else {
        tracer->set_sim(&world->sim);
        r = drive_traced(*world->controller, world->sim, requests_[i],
                         *tracer, pass.counts);
        tracer->set_sim(nullptr);
      }
      sample.wall_s = seconds_since(r0);
      sample.sim_latency_s = r.metrics.latency_s;
      sample.sim_cpu_s = r.metrics.cpu_seconds;
      add_counts(pass.counts, r);
      pass.counts.dfs_read_bytes += world->dfs.metrics().bytes_read;
      pass.counts.dfs_write_bytes += world->dfs.metrics().bytes_written;
      pass.counts.sim_slot_s += r.metrics.latency_s * slots_;
      if (world->journal) {
        pass.counts.journal_records += world->journal->size();
        pass.counts.journal_bytes += file_bytes(journal_path_);
      }
      fp.add_result(r);
      if (tracer != nullptr) {
        pass.sim_slices.push_back({static_cast<std::uint32_t>(i), sim_offset,
                                   sim_offset + r.metrics.latency_s,
                                   requests_[i].name});
        sim_offset += r.metrics.latency_s;
      }
      {
        const Scope span(tracer, "harness.teardown");
        world.reset();
      }
      if (tracer != nullptr && replay != nullptr) {
        replay_request(requests_[i], inputs_, r.outputs, *replay_dfs_,
                       *tracer, *replay);
      }
      pass.requests.push_back(sample);
      results.push_back(std::move(r));
    }
    pass.wall_s = seconds_since(t0) - reference_wall;
    pass.cpu_s = cpu_now() - cpu0 - reference_cpu;
    pass.sim_fingerprint = fp.hex();
    for (std::size_t i = 0; i < results.size(); ++i) {
      pass.requests[i].ok = matches(results[i], golden_);
      if (!pass.requests[i].ok) {
        pass.requests[i].sim_latency_s = kInf;
        ++pass.failed;
      }
    }
    return pass;
  }

  /// Concurrency 1: requests per simulated second of back-to-back service.
  double sustainable_rps(const PassResult& pass) override {
    double sim = 0;
    for (const RequestSample& s : pass.requests) sim += s.sim_latency_s;
    return static_cast<double>(pass.requests.size()) / sim;
  }

 protected:
  struct World {
    cb::cluster::EventSim sim;
    cb::mapreduce::Dfs dfs;
    std::unique_ptr<cb::core::Journal> journal;
    std::unique_ptr<TracingTransport> tracing;
    std::unique_ptr<cb::core::ClusterBft> controller;
    explicit World(std::uint64_t block) : dfs(block) {}
    virtual ~World() = default;
    /// Derived worlds own the transport the controller holds, and their
    /// members die first: they call this from their destructors.
    void release() {
      controller.reset();
      tracing.reset();
    }
    World(const World&) = delete;
    World& operator=(const World&) = delete;

    /// Construct the controller over `transport`, behind the tracing
    /// wrapper when tracing.
    void connect(cb::protocol::Transport& transport,
                 cb::protocol::ProgramRegistry& programs, Tracer* tracer,
                 PassResult& pass, bool capture) {
      cb::protocol::Transport* t = &transport;
      if (tracer != nullptr) {
        tracing = std::make_unique<TracingTransport>(transport, *tracer, pass,
                                                     capture);
        t = tracing.get();
      }
      controller = std::make_unique<cb::core::ClusterBft>(sim, dfs, *t,
                                                          programs,
                                                          journal.get());
    }
  };

  virtual std::unique_ptr<World> build_world(std::size_t i, Tracer* tracer,
                                             PassResult& pass,
                                             bool capture) = 0;

  /// Reference outputs, the replay DFS, and one warm-up request.
  void finish_setup(std::uint64_t block) {
    const auto plan = cb::dataflow::parse_script(requests_.front().script);
    golden_ = cb::dataflow::interpret(plan, inputs_);
    replay_dfs_ = std::make_unique<cb::mapreduce::Dfs>(block);
    for (const auto& [path, rel] : inputs_) replay_dfs_->write(path, rel);
    PassResult warmup;
    auto world = build_world(0, nullptr, warmup, false);
    if (!matches(world->controller->execute(requests_.front()), golden_)) {
      throw std::runtime_error("warm-up request did not verify to the "
                               "reference outputs");
    }
  }

  std::vector<cb::core::ClientRequest> requests_;
  Outputs inputs_;
  Outputs golden_;
  std::unique_ptr<cb::mapreduce::Dfs> replay_dfs_;
  double slots_ = 0;
  std::string journal_path_;
};

/// Fig. 9 follower analysis, BFT f=1 r=4 n=2 on the 32-node testbed.
class FollowerBft final : public ClosedLoop {
 public:
  void setup(std::uint64_t seed) override {
    cb::workloads::TwitterConfig tw;
    tw.num_edges = 60000;
    tw.num_users = 4000;
    tw.seed = derive(seed, 1);
    inputs_.clear();
    inputs_.emplace("twitter/edges", cb::workloads::generate_twitter_edges(tw));
    auto req = cb::baseline::cluster_bft(
        cb::workloads::twitter_follower_analysis(), "follower", /*f=*/1,
        /*r=*/4, /*n=*/2);
    requests_.assign(1, req);
    cfg_ = cluster_config();
    slots_ = static_cast<double>(cfg_.num_nodes * cfg_.slots_per_node);
    finish_setup(kBlock);
  }
  std::size_t min_requests() const override { return 20; }

 private:
  static constexpr std::uint64_t kBlock = 256 << 10;
  static cb::cluster::TrackerConfig cluster_config() {
    cb::cluster::TrackerConfig cfg;  // the paper's 32-node testbed
    cfg.num_nodes = 32;
    cfg.slots_per_node = 3;
    cfg.threads = 0;  // map/reduce payloads inline
    return cfg;
  }

  struct FollowerWorld final : World {
    cb::cluster::ExecutionTracker tracker;
    cb::protocol::LoopbackSeam seam;
    FollowerWorld(const cb::cluster::TrackerConfig& cfg, const Relation& edges)
        : World(kBlock), tracker(sim, dfs, cfg), seam(tracker) {
      dfs.write("twitter/edges", edges);
    }
    ~FollowerWorld() override { release(); }
    FollowerWorld(const FollowerWorld&) = delete;
    FollowerWorld& operator=(const FollowerWorld&) = delete;
  };

  std::unique_ptr<World> build_world(std::size_t, Tracer* tracer,
                                     PassResult& pass, bool capture) override {
    auto w = std::make_unique<FollowerWorld>(cfg_, inputs_.at("twitter/edges"));
    w->connect(w->seam.transport, w->seam.programs, tracer, pass, capture);
    return w;
  }

  cb::cluster::TrackerConfig cfg_;
};

/// Airline top-20 three-branch DAG on two clouds: cloud 1 commits
/// correlated commission faults, cloud 0 has a 30 s outage at sim 4 s;
/// adaptive assurance with checkpoints, spread placement, journaled.
class ByzantineFailover final : public ClosedLoop {
 public:
  explicit ByzantineFailover(std::string out_dir) {
    journal_path_ = out_dir + "/journal-byzantine_failover.wal";
  }

  void setup(std::uint64_t seed) override {
    cb::workloads::AirlineConfig a;
    a.num_flights = 3000;
    a.seed = derive(seed, 2);
    inputs_.clear();
    inputs_.emplace("airline/flights", cb::workloads::generate_flights(a));
    auto req = cb::baseline::cluster_bft(
        cb::workloads::airline_top20_analysis(), "failover", /*f=*/1, /*r=*/2,
        /*n=*/2);
    req.assurance = cb::core::Assurance::kAdaptive;
    req.adaptive_checkpoints = true;
    req.placement = cb::core::Placement::kSpread;
    req.verifier_timeout_s = 5.0;
    requests_.assign(kRequests, req);
    cloud_seeds_.clear();
    for (std::size_t i = 0; i < kRequests; ++i) {
      cloud_seeds_.push_back(derive(seed, 100 + i));
    }
    slots_ = 2.0 * kNodes * kSlots;
    finish_setup(kBlock);
  }
  std::size_t min_requests() const override { return 40; }

 private:
  static constexpr std::size_t kRequests = 40;
  static constexpr std::size_t kNodes = 16;
  static constexpr std::size_t kSlots = 3;
  static constexpr std::uint64_t kBlock = 16384;

  struct CloudWorld final : World {
    std::unique_ptr<cb::cluster::Cloud> honest;
    std::unique_ptr<cb::cluster::Cloud> faulty;
    std::unique_ptr<cb::protocol::MultiCloudSeam> seam;
    CloudWorld(std::uint64_t cloud_seed, const Relation& flights,
               const std::string& journal_path)
        : World(kBlock) {
      dfs.write("airline/flights", flights);
      cb::cluster::CloudProfile p0;
      p0.name = "cloud0";
      p0.num_nodes = kNodes;
      p0.slots_per_node = kSlots;
      p0.seed = cloud_seed;
      cb::cluster::CloudProfile p1 = p0;
      p1.name = "cloud1";
      p1.seed = cloud_seed ^ 0x5bd1e995ULL;
      p1.commission_prob = 0.3;
      honest = std::make_unique<cb::cluster::Cloud>(0, sim, dfs, p0);
      faulty = std::make_unique<cb::cluster::Cloud>(1, sim, dfs, p1);
      seam = std::make_unique<cb::protocol::MultiCloudSeam>(
          std::vector<cb::cluster::Cloud*>{honest.get(), faulty.get()});
      cb::cluster::FaultPlan faults;
      faults.cloud_outages.push_back({/*at_s=*/4.0, /*duration_s=*/30.0,
                                      /*cloud=*/0});
      seam->arm(sim, faults);
      journal = std::make_unique<cb::core::Journal>();
      if (!journal->attach_file(journal_path)) {
        throw std::runtime_error("cannot write journal " + journal_path);
      }
    }
    ~CloudWorld() override { release(); }
    CloudWorld(const CloudWorld&) = delete;
    CloudWorld& operator=(const CloudWorld&) = delete;
  };

  std::unique_ptr<World> build_world(std::size_t i, Tracer* tracer,
                                     PassResult& pass, bool capture) override {
    auto w = std::make_unique<CloudWorld>(
        cloud_seeds_[i], inputs_.at("airline/flights"), journal_path_);
    w->connect(w->seam->transport, w->seam->programs, tracer, pass, capture);
    return w;
  }

  std::vector<std::uint64_t> cloud_seeds_;
};

// ---------------------------------------------------------------------
// Open loop: the multi-tenant front end under scheduled arrivals.

class TenantStream final : public Workload {
 public:
  explicit TenantStream(std::string out_dir)
      : journal_path_(out_dir + "/journal-tenant_stream.wal") {}

  const char* loop() const override { return "open"; }
  std::size_t min_requests() const override { return kStream; }

  void setup(std::uint64_t seed) override {
    inputs_.clear();
    cb::workloads::TwitterConfig tw;
    tw.num_edges = 800;
    tw.num_users = 120;
    tw.seed = derive(seed, 3);
    inputs_.emplace("twitter/edges", cb::workloads::generate_twitter_edges(tw));
    cb::workloads::WeatherConfig wc;
    wc.num_stations = 60;
    wc.readings_per_station = 4;
    wc.seed = derive(seed, 4);
    inputs_.emplace("weather/gsod", cb::workloads::generate_weather(wc));
    cb::workloads::AirlineConfig ac;
    ac.num_flights = 500;
    ac.seed = derive(seed, 5);
    inputs_.emplace("airline/flights", cb::workloads::generate_flights(ac));

    stream_.clear();
    golden_.clear();
    std::size_t i = 0;
    for (const auto& tr : cb::workloads::mixed_tenant_workload(
             kStream, derive(seed, 6), /*repeated_fraction=*/0.4)) {
      cb::frontend::Submission sub;
      // The request index prefixes the name so the journal's session
      // records map back to arrivals.
      sub.request = cb::baseline::cluster_bft(
          tr.script, "t" + std::to_string(i++) + "-" + tr.name, /*f=*/1,
          /*r=*/2, /*n=*/2);
      sub.request.verifier_timeout_s = 1e9;  // queueing is not omission
      sub.request.use_result_cache = true;
      sub.tenant = tr.tenant;
      sub.weight = tr.weight;
      sub.priority = tr.priority;
      auto [it, fresh] = golden_.try_emplace(tr.script);
      if (fresh) {
        it->second = cb::dataflow::interpret(
            cb::dataflow::parse_script(tr.script), inputs_);
      }
      stream_.push_back(std::move(sub));
    }
    // Unit-rate exponential gaps, stratified: the quantiles at
    // (k + 0.5) / n in a seeded order, so every seed offers exactly the
    // same load and only the burst pattern varies. A rate r divides them
    // by r, so every rung of the ladder replays one pattern, scaled.
    gaps_.clear();
    for (std::size_t k = 0; k < kStream; ++k) {
      gaps_.push_back(-std::log(1.0 - (static_cast<double>(k) + 0.5) /
                                          static_cast<double>(kStream)));
    }
    cb::Rng rng(derive(seed, 7));
    for (std::size_t k = kStream - 1; k > 0; --k) {
      std::swap(gaps_[k], gaps_[rng.next_below(k + 1)]);
    }
    replay_dfs_ = std::make_unique<cb::mapreduce::Dfs>(kBlock);
    for (const auto& [path, rel] : inputs_) replay_dfs_->write(path, rel);

    const PassResult warm = serve(kWarmup, kRate, nullptr, nullptr, false);
    if (warm.failed != 0) {
      throw std::runtime_error("warm-up stream had failed requests");
    }
  }

  PassResult run_pass(Tracer* tracer, ReplayCounts* replay,
                      bool capture) override {
    return serve(kStream, kRate, tracer, replay, capture);
  }

  /// Highest rung of the rate ladder whose p99 sim latency stays within
  /// the limit with no growing backlog, by bisection (every rung replays
  /// the same stream and arrival pattern, scaled). The lowest rung is the
  /// workload's own rate, judged on `pass`; when even that fails the
  /// result is half of it.
  double sustainable_rps(const PassResult& pass) override {
    if (!sustains(pass)) return kLadder[0] / 2;
    std::size_t lo = 0;               // highest rung known to pass
    std::size_t hi = kLadder.size();  // lowest rung known to fail
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      const PassResult rung = serve(kStream, kLadder[mid], nullptr, nullptr,
                                    false);
      if (rung.failed != 0) {
        throw std::runtime_error("rate ladder: a request failed or diverged "
                                 "from the reference outputs");
      }
      (sustains(rung) ? lo : hi) = mid;
    }
    return kLadder[lo];
  }

 private:
  static constexpr std::size_t kStream = 3000;
  static constexpr std::size_t kWarmup = 300;
  static constexpr double kRate = 6.0;
  static constexpr double kLatencyLimit = 10.0;
  static constexpr std::uint64_t kBlock = 256 << 10;
  static constexpr double kSlots = 32.0 * 3.0;
  inline static const std::vector<double> kLadder = {
      kRate, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 10.5, 11.0, 11.5,
      12.0, 13.0, 14.0, 16.0};

  static bool sustains(const PassResult& pass) {
    std::vector<double> lat;
    for (const RequestSample& s : pass.requests) lat.push_back(s.sim_latency_s);
    // Backlog seen by each arrival: earlier arrivals not yet finished.
    const std::vector<double>& due = pass.due;
    std::vector<double> backlog(due.size(), 0);
    for (std::size_t i = 0; i < due.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        backlog[i] += due[j] + lat[j] > due[i] ? 1 : 0;
      }
    }
    auto mean = [&backlog](std::size_t from, std::size_t to) {
      double sum = 0;
      for (std::size_t i = from; i < to; ++i) sum += backlog[i];
      return sum / static_cast<double>(to - from);
    };
    const std::size_t q = due.size() / 4;
    const double grow2 = mean(q, 2 * q), grow4 = mean(due.size() - q, due.size());
    // A growing backlog: the last quarter of arrivals finds clearly more
    // requests ahead of it than the second quarter did.
    return percentile(lat, 99) <= kLatencyLimit && grow4 <= 2.0 * grow2 + 2.0;
  }

  PassResult serve(std::size_t n, double rate, Tracer* tracer,
                   ReplayCounts* replay, bool capture);

  struct StreamWorld {
    cb::cluster::EventSim sim;
    cb::mapreduce::Dfs dfs{kBlock};
    cb::cluster::ExecutionTracker tracker;
    cb::protocol::LoopbackSeam seam;
    cb::core::Journal journal;
    std::unique_ptr<TracingTransport> tracing;
    std::unique_ptr<cb::core::ClusterBft> controller;
    std::unique_ptr<cb::frontend::Frontend> frontend;
    explicit StreamWorld(const cb::cluster::TrackerConfig& cfg)
        : tracker(sim, dfs, cfg), seam(tracker) {}
  };

  std::string journal_path_;
  Outputs inputs_;
  std::vector<cb::frontend::Submission> stream_;
  std::unordered_map<std::string, Outputs> golden_;
  std::vector<double> gaps_;
  std::unique_ptr<cb::mapreduce::Dfs> replay_dfs_;
};

PassResult TenantStream::serve(std::size_t n, double rate, Tracer* tracer,
                               ReplayCounts* replay, bool capture) {
  PassResult pass;
  std::vector<double> due(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps_[i] / rate;
    due[i] = t;
  }
  std::vector<Clock::time_point> submitted_at(n);
  std::vector<double> wall(n, kInf);
  std::vector<std::size_t> outstanding;
  std::size_t submitted = 0;

  const double cpu0 = cpu_now();
  const auto t0 = Clock::now();
  std::unique_ptr<StreamWorld> w;
  {
    const Scope span(tracer, "harness.world");
    cb::cluster::TrackerConfig cfg;
    cfg.num_nodes = 32;
    cfg.slots_per_node = 3;
    w = std::make_unique<StreamWorld>(cfg);
    for (const auto& [path, rel] : inputs_) w->dfs.write(path, rel);
    if (!w->journal.attach_file(journal_path_)) {
      throw std::runtime_error("cannot write journal " + journal_path_);
    }
    cb::protocol::Transport* transport = &w->seam.transport;
    if (tracer != nullptr) {
      w->tracing = std::make_unique<TracingTransport>(w->seam.transport,
                                                      *tracer, pass, capture);
      transport = w->tracing.get();
      tracer->set_sim(&w->sim);
    }
    w->controller = std::make_unique<cb::core::ClusterBft>(
        w->sim, w->dfs, *transport, w->seam.programs, &w->journal);
    cb::frontend::FrontendOptions opts;
    opts.max_concurrent = 8;
    opts.per_tenant_inflight = 4;
    w->frontend = std::make_unique<cb::frontend::Frontend>(*w->controller,
                                                           w->sim, opts);
  }
  cb::frontend::Frontend& fe = *w->frontend;

  auto poll = [&] {
    const auto now = Clock::now();
    std::erase_if(outstanding, [&](std::size_t k) {
      if (fe.result(k) == nullptr) return false;
      wall[k] = std::chrono::duration<double>(now - submitted_at[k]).count();
      return true;
    });
  };
  for (std::size_t i = 0; i < n; ++i) {
    w->sim.schedule_at(due[i], [&, i] {
      pass.max_lateness_s =
          std::max(pass.max_lateness_s, w->sim.now() - due[i]);
      poll();
      submitted_at[i] = Clock::now();
      if (tracer != nullptr) tracer->set_request(static_cast<std::uint32_t>(i));
      {
        const Scope span(tracer, "frontend.submit");
        fe.submit(stream_[i]);
      }
      outstanding.push_back(i);
      ++submitted;
    });
  }
  // Step the simulator only while the front end is idle, so every
  // arrival is submitted exactly when it is due.
  std::size_t settled = 0;
  while (settled < n) {
    if (submitted > settled) {
      {
        const Scope span(tracer, "frontend.run");
        fe.run();
      }
      settled = submitted;
      poll();
      continue;
    }
    const Scope span(tracer, "cluster.step");
    if (!w->sim.step()) break;
    ++pass.counts.sim_events;
  }
  if (tracer != nullptr) {
    tracer->set_sim(nullptr);
    tracer->set_request(0);
  }
  if (tracer != nullptr && replay != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      tracer->set_request(static_cast<std::uint32_t>(i));
      const auto* r = fe.result(i);
      replay_request(stream_[i].request, inputs_,
                     r == nullptr ? Outputs{} : r->outputs, *replay_dfs_,
                     *tracer, *replay);
    }
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = cpu_now() - cpu0;

  // Service latency from the journal: session -> arrival through the
  // request name on kScriptStart, finish time from kScriptFinish.
  std::vector<double> finish(n, kInf);
  std::map<std::uint32_t, std::size_t> arrival_of;
  for (std::size_t k = 0; k < w->journal.size(); ++k) {
    const auto& rec = w->journal.at(k);
    if (rec.kind == cb::core::RecordKind::kScriptStart) {
      const std::string name(rec.payload.begin(), rec.payload.end());
      arrival_of[rec.session] = std::stoul(name.substr(1, name.find('-') - 1));
    } else if (rec.kind == cb::core::RecordKind::kScriptFinish) {
      finish[arrival_of.at(rec.session)] = rec.time;
    }
  }
  SimFingerprint fp;
  std::vector<double> raw;
  double last_finish = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const cb::core::ScriptResult* r = fe.result(i);
    RequestSample s;
    s.wall_s = wall[i];
    s.sim_latency_s = finish[i] - due[i];
    raw.push_back(s.sim_latency_s);
    if (std::isfinite(finish[i])) last_finish = std::max(last_finish, finish[i]);
    if (r != nullptr) {
      s.sim_cpu_s = r->metrics.cpu_seconds;
      add_counts(pass.counts, *r);
      fp.add_result(*r);
      const auto g = golden_.find(stream_[i].request.script);
      s.ok = g != golden_.end() && matches(*r, g->second);
    }
    fp.add(s.sim_latency_s);
    if (!s.ok) {
      s.sim_latency_s = kInf;
      s.wall_s = kInf;
      ++pass.failed;
    }
    pass.requests.push_back(s);
    if (tracer != nullptr) {
      pass.sim_slices.push_back({static_cast<std::uint32_t>(i), due[i],
                                 finish[i], stream_[i].request.name});
    }
  }
  pass.sim_fingerprint = fp.hex();
  pass.due = due;
  const cb::frontend::ServiceMetrics sm = fe.metrics();
  pass.counts.queued_peak = sm.queued_peak;
  pass.counts.frontend_p99_s = sm.p99_latency_s;
  pass.counts.sim_slot_s = (last_finish - due.front()) * kSlots;
  pass.counts.dfs_read_bytes = w->dfs.metrics().bytes_read;
  pass.counts.dfs_write_bytes = w->dfs.metrics().bytes_written;
  pass.counts.journal_records = w->journal.size();
  pass.counts.journal_bytes = file_bytes(journal_path_);
  // The front end's own percentiles use index (n-1)*p over the same
  // latencies; they must agree exactly with the journal-derived ones.
  std::sort(raw.begin(), raw.end());
  pass.frontend_agrees = raw[(raw.size() - 1) / 2] == sm.p50_latency_s &&
                         raw[(raw.size() - 1) * 99 / 100] == sm.p99_latency_s;
  return pass;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& out_dir) {
  if (name == "follower_bft") return std::make_unique<FollowerBft>();
  if (name == "tenant_stream") return std::make_unique<TenantStream>(out_dir);
  if (name == "byzantine_failover") {
    return std::make_unique<ByzantineFailover>(out_dir);
  }
  return nullptr;
}

}  // namespace perfbench
