#include "hermes/faults/invariant_checker.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hermes/obs/metrics.hpp"

namespace hermes::faults {

const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kByteConservation: return "byte-conservation";
    case Invariant::kQueueBound: return "queue-bound";
    case Invariant::kSharedBuffer: return "shared-buffer";
  }
  return "?";
}

InvariantChecker::InvariantChecker(sim::Simulator& simulator, net::Topology& topo,
                                   InvariantCheckerConfig config)
    : simulator_{simulator}, topo_{topo}, config_{config} {
  if (config_.period > sim::SimTime::zero()) {
    simulator_.after(config_.period, [this] { tick(); });
  }
}

template <typename Fn>
void InvariantChecker::for_each_port(Fn&& fn) const {
  for (int h = 0; h < topo_.num_hosts(); ++h) fn(topo_.host(h).nic());
  for (int l = 0; l < topo_.config().num_leaves; ++l) {
    net::Switch& sw = topo_.leaf(l);
    for (int p = 0; p < sw.num_ports(); ++p) fn(sw.port(p));
  }
  for (int s = 0; s < topo_.config().num_spines; ++s) {
    net::Switch& sw = topo_.spine(s);
    for (int p = 0; p < sw.num_ports(); ++p) fn(sw.port(p));
  }
}

// Leaf ports [0, hosts_per_leaf) are the downlinks to the leaf's hosts.
template <typename Fn>
void InvariantChecker::for_each_host_port(Fn&& fn) const {
  for (int l = 0; l < topo_.config().num_leaves; ++l) {
    for (int p = 0; p < topo_.hosts_per_leaf(); ++p) fn(topo_.leaf(l).port(p));
  }
}

// Every byte the fabric carries enters through a host NIC (data, ACKs,
// probes, probe replies alike). A NIC drop still counts as injected: the
// byte entered the accounting and left it as a drop.
std::uint64_t InvariantChecker::injected_bytes() const {
  std::uint64_t b = 0;
  for (int h = 0; h < topo_.num_hosts(); ++h) {
    const net::Port& nic = topo_.host(h).nic();
    b += nic.stats().tx_bytes + nic.backlog_bytes() + nic.stats().drop_bytes;
  }
  return b;
}

// A host-facing port's wire always drains into its host: a link cut
// loses what is sent into it, not what already left.
std::uint64_t InvariantChecker::delivered_bytes() const {
  std::uint64_t b = 0;
  for_each_host_port([&b](const net::Port& p) { b += p.stats().tx_bytes - p.wire_bytes(); });
  return b;
}

std::uint64_t InvariantChecker::dropped_bytes() const {
  std::uint64_t b = 0;
  for_each_port([&b](const net::Port& p) { b += p.stats().drop_bytes; });
  for (int l = 0; l < topo_.config().num_leaves; ++l) b += topo_.leaf(l).failure_drop_bytes();
  for (int s = 0; s < topo_.config().num_spines; ++s) b += topo_.spine(s).failure_drop_bytes();
  return b;
}

std::uint64_t InvariantChecker::in_flight_bytes() const {
  std::uint64_t b = 0;
  for_each_port([&b](const net::Port& p) { b += p.backlog_bytes() + p.wire_bytes(); });
  return b;
}

void InvariantChecker::violation(Invariant inv, const std::string& what,
                                 std::uint64_t flow_id) {
  // Triage-grade message: self-contained even when the surrounding run
  // context (log file, FUZZ trace name) is lost. Fixed field order so
  // fuzz reports diff cleanly across seeds.
  const sim::SimTime now = simulator_.now();
  std::string msg = "t=" + std::to_string(now.ns()) + "ns invariant=" + to_string(inv) +
                    " flow=" +
                    (flow_id == InvariantViolation::kNoFlow ? std::string("-")
                                                            : std::to_string(flow_id)) +
                    " " + what;
  ++violation_counts_[static_cast<int>(inv)];
  violations_.push_back({now, inv, flow_id, std::move(msg)});
}

void InvariantChecker::register_metrics(obs::MetricsRegistry& reg) {
  reg.counter_fn("invariants.checks_run", [this] { return checks_run_; });
  reg.counter_fn("invariants.violations.byte_conservation", [this] {
    return violation_counts_[static_cast<int>(Invariant::kByteConservation)];
  });
  reg.counter_fn("invariants.violations.queue_bound", [this] {
    return violation_counts_[static_cast<int>(Invariant::kQueueBound)];
  });
  reg.counter_fn("invariants.violations.shared_buffer", [this] {
    return violation_counts_[static_cast<int>(Invariant::kSharedBuffer)];
  });
  reg.counter_fn("invariants.stuck_flows_max",
                 [this] { return static_cast<std::uint64_t>(max_stuck_flows_); });
}

void InvariantChecker::check_conservation(const char* context) {
  const std::uint64_t injected = injected_bytes();
  const std::uint64_t accounted = delivered_bytes() + dropped_bytes() + in_flight_bytes();
  if (injected != accounted) {
    violation(Invariant::kByteConservation,
              std::string("broken (") + context + "): injected=" + std::to_string(injected) +
                  " accounted=" + std::to_string(accounted) + " delta=" +
                  std::to_string(static_cast<std::int64_t>(injected) -
                                 static_cast<std::int64_t>(accounted)));
  }
}

void InvariantChecker::check_queue_bounds(const char* context) {
  for_each_port([&](const net::Port& p) {
    // Shared-buffer ports are bounded by the pool, checked below.
    if (p.pooled()) return;
    if (p.backlog_bytes() > p.config().queue_capacity_bytes) {
      violation(Invariant::kQueueBound,
                std::string("exceeded (") + context + "): " + p.name() + " holds " +
                    std::to_string(p.backlog_bytes()) + " > cap " +
                    std::to_string(p.config().queue_capacity_bytes));
    }
  });
  auto check_pool = [&](const net::Switch& sw) {
    const net::DynamicThresholdPool* pool = sw.shared_buffer();
    if (pool && pool->used() > pool->total()) {
      violation(Invariant::kSharedBuffer,
                std::string("overflow (") + context + "): " + sw.name() + " uses " +
                    std::to_string(pool->used()) + " > " + std::to_string(pool->total()));
    }
  };
  for (int l = 0; l < topo_.config().num_leaves; ++l) check_pool(topo_.leaf(l));
  for (int s = 0; s < topo_.config().num_spines; ++s) check_pool(topo_.spine(s));
}

void InvariantChecker::update_watchdog() {
  if (!snapshot_fn_) return;
  const sim::SimTime now = simulator_.now();
  const std::vector<FlowProgress> snap = snapshot_fn_();
  std::size_t stuck = 0;
  // In-place epoch-stamped update: live flows refresh their entry, and a
  // single erase pass drops finished flows — no per-tick map rebuild.
  ++watchdog_epoch_;
  progress_.reserve(snap.size());
  for (const FlowProgress& fp : snap) {
    auto [it, inserted] = progress_.try_emplace(fp.id, Progress{fp.bytes_acked, now, 0});
    if (!inserted && it->second.bytes != fp.bytes_acked) {
      it->second.bytes = fp.bytes_acked;
      it->second.since = now;
    } else if (!inserted && now - it->second.since >= config_.stuck_after) {
      ++stuck;
    }
    it->second.epoch = watchdog_epoch_;
  }
  std::erase_if(progress_,
                [this](const auto& kv) { return kv.second.epoch != watchdog_epoch_; });
  stuck_flows_ = stuck;
  if (stuck > max_stuck_flows_) max_stuck_flows_ = stuck;
}

void InvariantChecker::check_now(const char* context) {
  ++checks_run_;
  check_conservation(context);
  if (config_.check_queue_bounds) check_queue_bounds(context);
  update_watchdog();
}

void InvariantChecker::on_fault_transition(const FaultEvent& e) {
  check_now(to_string(e.action));
}

void InvariantChecker::tick() {
  check_now("periodic");
  simulator_.after(config_.period, [this] { tick(); });
}

}  // namespace hermes::faults
