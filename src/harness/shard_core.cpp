#include "hermes/harness/shard_core.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hermes/lb/clove.hpp"
#include "hermes/lb/conga.hpp"
#include "hermes/lb/drill.hpp"
#include "hermes/lb/ecmp.hpp"
#include "hermes/lb/flowbender.hpp"
#include "hermes/lb/letflow.hpp"
#include "hermes/lb/spray.hpp"
#include "hermes/lb/wcmp.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/transport/tcp_sender.hpp"

namespace hermes::harness {

void normalize_config(Scheme scheme, transport::TcpConfig& tcp, bool& ecn_enabled) {
  if (!tcp.dctcp) ecn_enabled = false;
  if (scheme == Scheme::kPrestoStar || scheme == Scheme::kDrb || scheme == Scheme::kDrill) {
    tcp.reorder_buffer = true;
  }
}

std::unique_ptr<lb::LoadBalancer> make_balancer(const ScenarioConfig& config,
                                                sim::Simulator& simulator,
                                                net::Fabric& fabric) {
  auto* topo = dynamic_cast<net::Topology*>(&fabric);
  switch (config.scheme) {
    case Scheme::kEcmp:
      return std::make_unique<lb::EcmpLb>(fabric, config.seed);
    case Scheme::kWcmp:
      return std::make_unique<lb::WcmpLb>(fabric, config.seed);
    case Scheme::kDrb:
      return std::make_unique<lb::SprayLb>(
          fabric, lb::SprayConfig{.cell_bytes = 0, .weighted = false}, "drb");
    case Scheme::kPrestoStar:
      return std::make_unique<lb::SprayLb>(
          fabric,
          lb::SprayConfig{.cell_bytes = config.presto_cell_bytes,
                          .weighted = config.presto_weighted},
          "presto*");
    case Scheme::kLetFlow:
      return std::make_unique<lb::LetFlowLb>(simulator, fabric, config.letflow);
    case Scheme::kCloveEcn:
      return std::make_unique<lb::CloveLb>(simulator, fabric, config.clove);
    case Scheme::kFlowBender:
      return std::make_unique<lb::FlowBenderLb>(simulator, fabric, config.flowbender);
    case Scheme::kConga:
    case Scheme::kDrill:
      if (topo == nullptr) {
        throw std::invalid_argument(
            "CONGA/DRILL read global fabric state through net::Topology and are serial-only");
      }
      if (config.scheme == Scheme::kConga) {
        return std::make_unique<lb::CongaLb>(simulator, *topo, config.conga);
      }
      return std::make_unique<lb::DrillLb>(simulator, *topo, config.drill);
    case Scheme::kHermes: {
      lb::HermesConfig hc = config.hermes;
      const auto defaults = lb::HermesConfig::defaults_for(fabric);
      if (hc.t_rtt_low == sim::SimTime::zero()) hc.t_rtt_low = defaults.t_rtt_low;
      if (hc.t_rtt_high == sim::SimTime::zero()) hc.t_rtt_high = defaults.t_rtt_high;
      if (hc.delta_rtt == sim::SimTime::zero()) hc.delta_rtt = defaults.delta_rtt;
      return std::make_unique<lb::HermesLb>(simulator, fabric, hc);
    }
  }
  return nullptr;
}

void FlowBook::add_flows(const std::vector<transport::FlowSpec>& flows) {
  // Upper bound: every scheduled flow in flight at once. Sizing the map
  // up front removes rehash churn from the middle of the run.
  live_.reserve(live_.size() + pending_ + flows.size());
  for (const auto& f : flows) schedule(f);
}

void FlowBook::schedule(const transport::FlowSpec& f) {
  ++pending_;
  simulator_.at(f.start, [this, f] {
    live_.emplace(f.id, f);
    stacks_[f.src]->start_flow(f, [this, id = f.id](const transport::FlowRecord& r) {
      collector_.add(r);
      absorb(r);
      live_.erase(id);
      if (--pending_ == 0 && stop_when_drained_) simulator_.stop();
    });
  });
}

void FlowBook::absorb(const transport::FlowRecord& r) {
  if (r.finished) {
    ++totals_.flows_completed;
  } else {
    ++totals_.flows_unfinished;
  }
  totals_.timeouts += r.timeouts;
  totals_.fast_retransmits += r.fast_retransmits;
  totals_.packets_sent += r.packets_sent;
  totals_.packets_retransmitted += r.packets_retransmitted;
  totals_.reroutes += r.reroutes;
}

std::vector<std::uint64_t> FlowBook::sorted_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(live_.size());
  for (const auto& [id, spec] : live_) {  // hermeslint:allow(determinism.unordered-iter) key harvest only; sorted on the next line before anything consumes the order
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void FlowBook::harvest(sim::SimTime end) {
  // Live senders still carry timeout and retransmission counters, so an
  // unfinished record keeps them; a flow whose start never ran has none.
  for (const std::uint64_t id : sorted_ids()) {
    const transport::FlowSpec& spec = live_.at(id);
    if (transport::TcpSender* snd = stacks_[spec.src]->sender(id)) {
      transport::FlowRecord r = snd->record();
      r.finished = false;
      r.end = end;
      collector_.add(r);
      absorb(r);
    } else {
      collector_.add_unfinished(spec.size, spec.start, end);
      ++totals_.flows_unfinished;
    }
  }
}

ShardCore::ShardCore(ScenarioConfig config, sim::Simulator& simulator, net::Fabric& fabric,
                     const std::vector<int>& leaves, HostStacks& stacks,
                     obs::FlightRecorder* rec, bool stop_when_drained)
    : config_{std::move(config)},
      simulator_{simulator},
      flows_{simulator, stacks, stop_when_drained} {
  lb_ = make_balancer(config_, simulator_, fabric);
  hermes_ = dynamic_cast<lb::HermesLb*>(lb_.get());
  auto* topo = dynamic_cast<net::Topology*>(&fabric);
  if (config_.wrap_balancer) lb_ = config_.wrap_balancer(simulator_, *topo, std::move(lb_));

  for (const int l : leaves) {
    for (int i = 0; i < fabric.hosts_per_leaf(); ++i) {
      const int h = l * fabric.hosts_per_leaf() + i;
      stacks[h] = std::make_unique<transport::HostStack>(simulator_, fabric, h, *lb_,
                                                         config_.tcp);
    }
  }

  // Hermes probes only from the rack agents of this core's leaves, and
  // the replies return to those same agents, so probe state never
  // crosses a shard boundary except as ordinary packets.
  if (hermes_ != nullptr) {
    hermes_->set_probe_sources(leaves);
    hermes_->enable_probing(
        [&stacks](int src_host, net::Packet p) { stacks[src_host]->send_raw(std::move(p)); });
    for (const int l : leaves) {
      stacks[fabric.first_host_of_leaf(l)]->on_probe_reply =
          [h = hermes_](const net::Packet& p) { h->on_probe_reply(p); };
    }
  }

  // The checker exists before the fault scheduler so every transition
  // triggers a checker pass.
  if (config_.check_invariants) {
    checker_ = std::make_unique<faults::InvariantChecker>(simulator_, *topo,
                                                          config_.invariant_config);
    checker_->set_flow_snapshot([this, &stacks] {
      std::vector<faults::FlowProgress> snap;
      snap.reserve(flows_.live().size());
      for (const std::uint64_t id : flows_.sorted_ids()) {
        const transport::FlowSpec& spec = flows_.live().at(id);
        if (transport::TcpSender* snd = stacks[spec.src]->sender(id)) {
          snap.push_back({id, snd->snd_una()});
        }
      }
      return snap;
    });
  }
  if (!config_.fault_plan.empty()) {
    fault_sched_ = std::make_unique<faults::FaultScheduler>(simulator_, fabric);
    if (checker_) {
      fault_sched_->on_transition = [this](const faults::FaultEvent& e) {
        checker_->on_fault_transition(e);
      };
    }
    fault_sched_->install(config_.fault_plan);
  }

  if (rec != nullptr) {
    if (hermes_ != nullptr) hermes_->set_recorder(rec);
    if (fault_sched_) fault_sched_->set_recorder(rec);
  }
}

ShardCore::~ShardCore() = default;

void register_core_metrics(obs::MetricsRegistry& reg, std::vector<ShardCore*> cores) {
  // The registry keys one reader per name, so per-core instances cannot
  // each register: every reader sums over the cores.
  const auto sum = [&cores](auto pick) {
    return [cores, pick] {
      std::uint64_t total = 0;
      for (ShardCore* c : cores) total += pick(*c);
      return total;
    };
  };
  reg.counter_fn("sim.events_processed", sum([](ShardCore& c) {
                   return c.simulator().events().events_processed();
                 }));

  const auto transport = [&sum](std::uint64_t TransportTotals::* f) {
    return sum([f](ShardCore& c) { return c.flows().totals().*f; });
  };
  reg.counter_fn("transport.flows_completed", transport(&TransportTotals::flows_completed));
  reg.counter_fn("transport.flows_unfinished", transport(&TransportTotals::flows_unfinished));
  reg.counter_fn("transport.timeouts", transport(&TransportTotals::timeouts));
  reg.counter_fn("transport.fast_retransmits", transport(&TransportTotals::fast_retransmits));
  reg.counter_fn("transport.packets_sent", transport(&TransportTotals::packets_sent));
  reg.counter_fn("transport.packets_retransmitted",
                 transport(&TransportTotals::packets_retransmitted));
  reg.counter_fn("transport.reroutes", transport(&TransportTotals::reroutes));

  if (std::any_of(cores.begin(), cores.end(), [](ShardCore* c) { return c->hermes(); })) {
    const auto decisions = [&sum](std::uint64_t engine::DecisionStats::* f) {
      return sum([f](ShardCore& c) { return c.hermes()->decision_stats().*f; });
    };
    reg.counter_fn("lb.initial_placements",
                   decisions(&engine::DecisionStats::initial_placements));
    reg.counter_fn("lb.timeout_escapes", decisions(&engine::DecisionStats::timeout_escapes));
    reg.counter_fn("lb.failure_escapes", decisions(&engine::DecisionStats::failure_escapes));
    reg.counter_fn("lb.congestion_reroutes",
                   decisions(&engine::DecisionStats::congestion_reroutes));
    reg.counter_fn("lb.blackhole_latches", decisions(&engine::DecisionStats::blackhole_latches));
    reg.counter_fn("lb.latch_expiries", decisions(&engine::DecisionStats::latch_expiries));
    const auto probes = [&sum](std::uint64_t lb::ProbeStats::* f) {
      return sum([f](ShardCore& c) { return c.hermes()->probe_stats().*f; });
    };
    reg.counter_fn("lb.probes_sent", probes(&lb::ProbeStats::probes_sent));
    reg.counter_fn("lb.probe_replies", probes(&lb::ProbeStats::replies_received));
    reg.counter_fn("lb.probe_bytes", probes(&lb::ProbeStats::probe_bytes));
  }

  if (std::any_of(cores.begin(), cores.end(), [](ShardCore* c) { return c->fault_scheduler(); })) {
    // A shard whose devices the plan never touches has no scheduler.
    const auto faults = [&sum](auto pick) {
      return sum([pick](ShardCore& c) -> std::uint64_t {
        const faults::FaultScheduler* fs = c.fault_scheduler();
        return fs != nullptr ? static_cast<std::uint64_t>(pick(*fs)) : 0;
      });
    };
    reg.counter_fn("faults.installed", faults([](const faults::FaultScheduler& fs) {
                     return fs.applied() + fs.pending();
                   }));
    reg.counter_fn("faults.applied",
                   faults([](const faults::FaultScheduler& fs) { return fs.applied(); }));
    reg.gauge_fn("faults.active", [active = faults([](const faults::FaultScheduler& fs) {
                   return fs.active_faults();
                 })] { return static_cast<double>(active()); });
  }
}

}  // namespace hermes::harness
