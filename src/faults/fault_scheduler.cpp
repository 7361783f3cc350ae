#include "hermes/faults/fault_scheduler.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "hermes/net/port.hpp"
#include "hermes/net/switch.hpp"
#include "hermes/obs/records.hpp"

namespace hermes::faults {

namespace {
net::Switch& target_switch(net::Fabric& topo, const FaultEvent& e) {
  return e.tier == SwitchTier::kLeaf ? topo.leaf(e.switch_id) : topo.spine(e.switch_id);
}
}  // namespace

FaultScheduler::FaultScheduler(sim::Simulator& simulator, net::Fabric& topo)
    : simulator_{simulator}, topo_{topo} {}

void FaultScheduler::install(const FaultPlan& plan) {
  // Events are stored on the scheduler and the queue carries only an
  // index: the capture stays tiny (fits the inline event callback) and a
  // FaultEvent's std::string/std::function members are never copied
  // through the event queue.
  for (const FaultEvent& e : plan.sorted()) {
    const std::size_t idx = installed_events_.size();
    installed_events_.push_back(e);
    ++installed_;
    simulator_.at(e.at, [this, idx] { apply(installed_events_[idx]); });
  }
}

void FaultScheduler::apply(const FaultEvent& e) {
  switch (e.action) {
    case FaultAction::kBlackholeOn: {
      net::Switch& sw = target_switch(topo_, e);
      if (!sw.failure().blackhole) ++active_;  // replacing a hole is not a new fault
      sw.set_blackhole(e.blackhole);
      break;
    }
    case FaultAction::kBlackholeOff: {
      net::Switch& sw = target_switch(topo_, e);
      if (sw.failure().blackhole) --active_;
      sw.clear_blackhole();
      break;
    }
    case FaultAction::kRandomDropSet: {
      net::Switch& sw = target_switch(topo_, e);
      const double prev = sw.failure().random_drop_rate;
      if (prev <= 0.0 && e.rate > 0.0) ++active_;
      if (prev > 0.0 && e.rate <= 0.0) --active_;
      sw.set_random_drop_rate(e.rate);
      break;
    }
    case FaultAction::kLinkDown: {
      if (topo_.leaf_uplink(e.link.leaf, e.link.spine, e.link.k).link_up()) ++active_;
      topo_.set_link_state(e.link.leaf, e.link.spine, false, e.link.k);
      break;
    }
    case FaultAction::kLinkUp: {
      if (!topo_.leaf_uplink(e.link.leaf, e.link.spine, e.link.k).link_up()) --active_;
      topo_.set_link_state(e.link.leaf, e.link.spine, true, e.link.k);
      break;
    }
    case FaultAction::kLinkRate: {
      const double nominal = topo_.configured_link_rate(e.link.leaf, e.link.spine, e.link.k);
      const double prev =
          topo_.leaf_uplink(e.link.leaf, e.link.spine, e.link.k).config().rate_bps;
      if (prev >= nominal && e.rate < nominal) ++active_;
      if (prev < nominal && e.rate >= nominal) --active_;
      topo_.set_link_rate(e.link.leaf, e.link.spine, e.rate, e.link.k);
      break;
    }
  }
  log_.push_back({simulator_.now(), e.action, describe(e)});
  if (rec_ != nullptr) {
    // Onset vs recovery by action semantics (a kLinkRate below the
    // configured capacity is a degradation onset; at/above it, recovery).
    bool onset = true;
    switch (e.action) {
      case FaultAction::kBlackholeOn:
      case FaultAction::kLinkDown: onset = true; break;
      case FaultAction::kBlackholeOff:
      case FaultAction::kLinkUp: onset = false; break;
      case FaultAction::kRandomDropSet: onset = e.rate > 0.0; break;
      case FaultAction::kLinkRate:
        onset = e.rate < topo_.configured_link_rate(e.link.leaf, e.link.spine, e.link.k);
        break;
    }
    record_fault(e, onset);
  }
  if (on_transition) on_transition(e);
}

void FaultScheduler::record_fault(const FaultEvent& e, bool onset) {
  obs::TraceRecord r = obs::make_record(obs::RecordKind::kFault,
                                        static_cast<std::uint64_t>(simulator_.now().ns()),
                                        name_id_, 0);
  const bool link_event = e.action == FaultAction::kLinkDown || e.action == FaultAction::kLinkUp ||
                          e.action == FaultAction::kLinkRate;
  r.u.fault.switch_id = link_event ? -1 : e.switch_id;
  r.u.fault.leaf = static_cast<std::int16_t>(
      link_event ? e.link.leaf : (e.tier == SwitchTier::kLeaf ? e.switch_id : -1));
  r.u.fault.spine = static_cast<std::int16_t>(
      link_event ? e.link.spine : (e.tier == SwitchTier::kSpine ? e.switch_id : -1));
  r.u.fault.action = static_cast<std::uint8_t>(e.action);
  r.u.fault.onset = onset ? 1 : 0;
  rec_->append(r);
}

std::string FaultScheduler::describe(const FaultEvent& e) {
  std::string s = to_string(e.action);
  if (e.action == FaultAction::kBlackholeOn || e.action == FaultAction::kBlackholeOff ||
      e.action == FaultAction::kRandomDropSet) {
    s += e.tier == SwitchTier::kLeaf ? " leaf" : " spine";
    s += std::to_string(e.switch_id);
    if (e.action == FaultAction::kRandomDropSet)
      s += " rate=" + std::to_string(e.rate);
  } else {
    s += " leaf" + std::to_string(e.link.leaf) + "<->spine" + std::to_string(e.link.spine) +
         "/" + std::to_string(e.link.k);
    if (e.action == FaultAction::kLinkRate) s += " bps=" + std::to_string(e.rate);
  }
  if (!e.note.empty()) s += " (" + e.note + ")";
  return s;
}

}  // namespace hermes::faults
