#include "checks.hpp"

#include <cstdio>
#include <unordered_set>

#include "hermes/engine/engine.hpp"

namespace perfbench {

namespace he = hermes::engine;

namespace {

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

std::string check_all_finished(const FlowSpecs& flows, const FlowRecords& recs) {
  if (recs.size() != flows.size())
    return format("all-finished: %llu records for %llu generated flows", ull(recs.size()),
                  ull(flows.size()));
  std::unordered_set<std::uint64_t> ids;
  for (const auto& f : flows) ids.insert(f.id);
  for (const auto& r : recs) {
    if (ids.erase(r.id) == 0)
      return format("all-finished: record for unknown or repeated flow %llu", ull(r.id));
    if (!r.finished)
      return format("all-finished: flow %llu unfinished (size %llu)", ull(r.id), ull(r.size));
  }
  return {};
}

std::string check_first_transmissions(const FlowSpecs& flows, const FlowRecords& recs,
                                      std::uint32_t mss) {
  std::uint64_t expected = 0;
  for (const auto& f : flows) expected += (f.size + mss - 1) / mss;
  std::uint64_t first = 0;
  for (const auto& r : recs) first += r.packets_sent - r.packets_retransmitted;
  if (first != expected)
    return format("first-transmissions: %llu first transmissions, %llu segments generated",
                  ull(first), ull(expected));
  return {};
}

std::string check_line_rate(const FlowSpecs& flows, const FlowRecords& recs, double host_rate_bps,
                            hermes::sim::SimTime link_delay,
                            const std::function<int(const hermes::transport::FlowSpec&)>& links) {
  std::unordered_map<std::uint64_t, const hermes::transport::FlowSpec*> by_id;
  for (const auto& f : flows) by_id.emplace(f.id, &f);
  for (const auto& r : recs) {
    if (!r.finished) continue;  // check_all_finished reports these
    const auto it = by_id.find(r.id);
    if (it == by_id.end()) continue;
    const auto& f = *it->second;
    const double floor_ns = static_cast<double>(f.size) * 8.0 / host_rate_bps * 1e9 +
                            2.0 * links(f) * static_cast<double>(link_delay.ns());
    if (static_cast<double>(r.fct().ns()) < floor_ns)
      return format("line-rate: flow %llu finished in %lld ns, under its floor of %.0f ns",
                    ull(r.id), static_cast<long long>(r.fct().ns()), floor_ns);
  }
  return {};
}

std::string check_probe_conservation(std::uint64_t sent, std::uint64_t replies,
                                     std::uint64_t one_round) {
  if (replies > sent || sent - replies > one_round)
    return format("probe-conservation: %llu probes sent, %llu replies", ull(sent), ull(replies));
  return {};
}

void EngineAuditor::fail(std::uint64_t& counter, const char* property, const Decide& d) {
  if (counter++ < 3) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s: flow %d->%d chose path %d (was %d) at %lld ns", property,
                  d.src, d.dst, d.chosen, d.prev_path, static_cast<long long>(d.now));
    examples_.emplace_back(buf);
  }
}

void EngineAuditor::audit(const Decide& d, const he::HostSet& declared) {
  if (d.chosen < 0 || d.chosen >= num_paths_ ||
      static_cast<std::size_t>(d.chosen) >= declared.size()) {
    fail(out_of_range_, "decide-in-range", d);
    return;
  }
  const bool moved = d.had_sent && d.chosen != d.prev_path;
  if (moved) ++path_changes_;
  // A placement, a timeout escape or any move is a choice; keeping the
  // current path is not. Outside panic a choice avoids declared-down paths
  // (the replay never takes down more than leaves an eligible one).
  if (!d.had_sent || d.timeout_pending || moved) {
    std::size_t healthy = 0;
    for (const he::Host& h : declared.hosts())
      if (h.health == he::Health::kHealthy) ++healthy;
    const bool panic = static_cast<double>(healthy) <
                       panic_threshold_ * static_cast<double>(declared.size());
    const he::Host& h = declared.host(static_cast<std::size_t>(d.chosen));
    if (!panic && (h.health == he::Health::kUnhealthy || h.weight == 0))
      fail(ineligible_, "declared-health", d);
  }
  if (!tracks_.empty()) {
    const auto it = tracks_.find(he::Engine::hole_key(d.src, d.dst, d.chosen));
    if (it != tracks_.end() && it->second.latched && d.now >= it->second.latched_at &&
        d.now - it->second.latched_at <= latch_lifetime_)
      fail(latched_path_, "blackhole-latch", d);
  }
}

void EngineAuditor::on_ack(std::int32_t src, std::int32_t dst, int path) {
  if (tracks_.empty()) return;
  const auto it = tracks_.find(he::Engine::hole_key(src, dst, path));
  if (it != tracks_.end() && !it->second.latched) it->second.timeouts = 0;
}

void EngineAuditor::on_timeout(std::int32_t src, std::int32_t dst, int path, he::TimeNs now) {
  // Until its first latch the engine's per-(src, dst, path) count moves
  // only with timeouts and ACKs, so the mirror is exact up to that point.
  Track& t = tracks_[he::Engine::hole_key(src, dst, path)];
  if (t.latched) return;
  if (++t.timeouts >= blackhole_timeouts_) {
    t.latched = true;
    t.latched_at = now;
    ++latches_;
  }
}

void EngineAuditor::on_decision(const he::DecisionEvent& ev) {
  switch (ev.kind) {
    case he::DecisionKind::kTimeoutEscape:
    case he::DecisionKind::kFailureEscape:
    case he::DecisionKind::kCongestionReroute:
      if (ev.from_path != ev.to_path) ++sink_changes_;
      break;
    default:
      break;
  }
}

std::vector<std::string> EngineAuditor::failures() const {
  std::vector<std::string> out = examples_;
  if (path_changes_ != sink_changes_)
    out.push_back(format("path-changes: %llu seen in decide() results, %llu in the decision stream",
                         ull(path_changes_), ull(sink_changes_)));
  return out;
}

}  // namespace perfbench
