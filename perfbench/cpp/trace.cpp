#include "trace.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.request = request_;
  s.sim_start = sim_now();
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::end(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.sim_end = sim_now();
  open_ = s.parent;
}

std::map<std::string, LayerTotal> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTotal> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTotal& t = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

double Tracer::top_level_s() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

namespace {

void write_name(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool Tracer::write_chrome_json(const std::string& path, std::size_t last,
                               const std::vector<SimSlice>& sim_requests,
                               std::size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
               "\"args\":{\"name\":\"wall clock (bench spans)\"}},\n"
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
               "\"args\":{\"name\":\"sim clock (requests)\"}}");
  std::size_t events = 0;
  if (last > spans_.size()) last = spans_.size();
  const std::int64_t base = last > 0 ? spans_[0].start_ns : std::int64_t{0};
  for (std::size_t i = 0; i < last && events < max_events; ++i, ++events) {
    const Span& s = spans_[i];
    std::fprintf(f, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":");
    write_name(f, s.name);
    std::fprintf(f,
                 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu32
                 ",\"sim_start_s\":%.9g,\"sim_end_s\":%.9g}}",
                 static_cast<double>(s.start_ns - base) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.request,
                 s.sim_start, s.sim_end);
  }
  // Requests overlap in simulated time (open loop); give each its own
  // lane so slices on one thread track never partially overlap.
  std::vector<double> lane_end;
  for (const SimSlice& r : sim_requests) {
    if (events >= max_events) break;
    if (!std::isfinite(r.sim_end)) continue;  // failed: never finished
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > r.sim_start) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = r.sim_end;
    std::fprintf(f, ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%zu,\"name\":",
                 lane + 1);
    write_name(f, r.label);
    std::fprintf(f,
                 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu32
                 "}}",
                 r.sim_start * 1e6, (r.sim_end - r.sim_start) * 1e6,
                 r.request);
    ++events;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
