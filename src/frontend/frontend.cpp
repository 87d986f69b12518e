#include "frontend/frontend.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "dataflow/parser.hpp"

namespace clusterbft::frontend {

Frontend::Frontend(core::ClusterBft& controller, cluster::EventSim& sim,
                   FrontendOptions options)
    : controller_(controller), sim_(sim), options_(options) {
  CBFT_CHECK_MSG(options_.max_concurrent >= 1,
                 "Frontend: max_concurrent must be >= 1");
  CBFT_CHECK_MSG(options_.per_tenant_inflight >= 1,
                 "Frontend: per_tenant_inflight must be >= 1");
}

std::size_t Frontend::submit(Submission submission) {
  const std::size_t ticket = tickets_.size();
  Ticket t;
  t.submission = std::move(submission);
  t.submit_time = sim_.now();
  Tenant& tenant = tenants_[t.submission.tenant];
  tenant.weight =
      std::max(tenant.weight, std::max<std::size_t>(1, t.submission.weight));
  // Priority-ordered insertion; FIFO within a class (stable by arrival
  // since tickets are appended in submit order).
  const std::size_t prio = t.submission.priority;
  auto pos = tenant.queued.end();
  while (pos != tenant.queued.begin()) {
    auto prev = pos;
    --prev;
    if (tickets_[*prev].submission.priority <= prio) break;
    pos = prev;
  }
  tenant.queued.insert(pos, ticket);
  tickets_.push_back(std::move(t));
  ++metrics_.submitted;
  metrics_.queued_peak = std::max(metrics_.queued_peak, queued_total());
  return ticket;
}

std::size_t Frontend::queued_total() const {
  std::size_t n = 0;
  for (const auto& [name, tenant] : tenants_) n += tenant.queued.size();
  return n;
}

bool Frontend::can_admit(const Ticket& t) const {
  if (inflight_total_ >= options_.max_concurrent) return false;
  const auto it = tenants_.find(t.submission.tenant);
  if (it != tenants_.end() &&
      it->second.inflight >= options_.per_tenant_inflight) {
    return false;
  }
  if (options_.respect_pool_capacity) {
    // Adaptive requests only launch f+1 chains up front, so that is the
    // capacity they reserve; escalations borrow from the pool like rerun
    // waves always have (base_replication keeps this in lock-step with
    // the controller's wave scheduling).
    const std::size_t demand = core::base_replication(t.submission.request);
    // One session may always run: a pool permanently smaller than one
    // request's r must reach the controller's degraded-mode machinery,
    // not starve in this queue. Capacity is placement-aware (ISSUE 10):
    // a request pinned to one cloud weighs its demand against that
    // cloud's healthy nodes, not the whole fleet — with one cloud
    // attached this is exactly healthy_pool_size().
    if (inflight_total_ > 0 &&
        inflight_demand_ + demand >
            controller_.placement_capacity(t.submission.request)) {
      return false;
    }
  }
  return true;
}

void Frontend::admit(std::size_t ticket) {
  Ticket& t = tickets_[ticket];
  Tenant& tenant = tenants_[t.submission.tenant];
  try {
    t.session = controller_.begin_session(t.submission.request);
  } catch (const core::InputError&) {
    reject(t);
    return;
  } catch (const dataflow::ParseError&) {
    reject(t);
    return;
  }
  ++tenant.inflight;
  ++inflight_total_;
  inflight_demand_ += core::base_replication(t.submission.request);
  ++metrics_.admitted;
}

void Frontend::reject(Ticket& t) {
  // The controller refused the script before it became a session (bad
  // syntax, missing input, unknown verification-point alias): this one
  // request fails, every other tenant keeps running.
  t.result.emplace();
  t.result->failure = core::FailureReason::kRejected;
  t.collected = true;
  t.finish_time = sim_.now();
  ++metrics_.failed;
}

bool Frontend::admit_some() {
  bool admitted_any = false;
  for (;;) {
    // Replenish WRR credits when every backlogged tenant spent its round.
    bool backlog = false;
    bool credits_left = false;
    for (const auto& [name, tenant] : tenants_) {
      if (tenant.queued.empty()) continue;
      backlog = true;
      if (tenant.credits > 0) credits_left = true;
    }
    if (!backlog) break;
    if (!credits_left) {
      for (auto& [name, tenant] : tenants_) tenant.credits = tenant.weight;
    }
    bool progress = false;
    for (auto& [name, tenant] : tenants_) {
      while (tenant.credits > 0 && !tenant.queued.empty()) {
        const std::size_t ticket = tenant.queued.front();
        if (!can_admit(tickets_[ticket])) break;
        tenant.queued.pop_front();
        --tenant.credits;
        admit(ticket);
        admitted_any = true;
        progress = true;
      }
    }
    if (!progress) break;  // caps or pool demand block everything queued
  }
  return admitted_any;
}

void Frontend::collect_finished() {
  for (std::size_t i = 0; i < tickets_.size(); ++i) {
    Ticket& t = tickets_[i];
    if (t.session == 0 || t.collected) continue;
    if (!controller_.session_finished(t.session)) continue;
    t.result = controller_.collect_session(t.session);
    t.collected = true;
    t.finish_time = sim_.now();
    Tenant& tenant = tenants_.at(t.submission.tenant);
    --tenant.inflight;
    --inflight_total_;
    inflight_demand_ -= core::base_replication(t.submission.request);
    if (t.result->verified) {
      ++metrics_.completed;
    } else {
      ++metrics_.failed;
    }
    metrics_.cache_hits += t.result->metrics.cache_hits;
  }
}

void Frontend::run() {
  for (;;) {
    admit_some();
    collect_finished();  // a fully cache-hit admission finishes instantly
    bool pending = inflight_total_ > 0 || queued_total() > 0;
    for (const Ticket& t : tickets_) {
      pending = pending || (t.session != 0 && !t.collected);
    }
    if (!pending) break;
    if (!sim_.step()) {
      // Event queue drained under unfinished sessions: they can never
      // make progress. The controller diagnoses each (kStalled audit
      // event naming wave and unmet dependency) and fails it; the next
      // collect sweep picks the failures up, freeing queue slots.
      if (inflight_total_ > 0) {
        controller_.fail_stalled_sessions();
        collect_finished();
        continue;
      }
      // No events and nothing in flight, but a queue remains: every
      // queued request is blocked by caps that can no longer change.
      CBFT_CHECK_MSG(queued_total() == 0,
                     "Frontend: queued requests unadmittable (caps)");
    }
  }

  // Freeze latency/throughput metrics over everything collected so far.
  std::vector<double> lat;
  cluster::SimTime first_submit = 0;
  cluster::SimTime last_finish = 0;
  bool any = false;
  for (const Ticket& t : tickets_) {
    if (!t.collected) continue;
    lat.push_back(t.finish_time - t.submit_time);
    first_submit = any ? std::min(first_submit, t.submit_time) : t.submit_time;
    last_finish = std::max(last_finish, t.finish_time);
    any = true;
  }
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    metrics_.p50_latency_s = lat[(lat.size() - 1) / 2];
    metrics_.p99_latency_s = lat[(lat.size() - 1) * 99 / 100];
    const double span = last_finish - first_submit;
    metrics_.requests_per_s =
        span > 0 ? static_cast<double>(lat.size()) / span : 0;
  }
}

const core::ScriptResult* Frontend::result(std::size_t ticket) const {
  CBFT_CHECK_MSG(ticket < tickets_.size(), "Frontend: unknown ticket");
  const Ticket& t = tickets_[ticket];
  return t.result.has_value() ? &*t.result : nullptr;
}

ServiceMetrics Frontend::metrics() const { return metrics_; }

}  // namespace clusterbft::frontend
