#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hermes/faults/fault_scheduler.hpp"
#include "hermes/faults/invariant_checker.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/lb/hermes.hpp"
#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/transport/flow.hpp"
#include "hermes/transport/host_stack.hpp"
#include "hermes/transport/tcp_config.hpp"

namespace hermes::harness {

/// Per-host transport stacks, indexed by global host id. The front door
/// owns the table; each shard core fills the slots of the hosts it owns.
using HostStacks = std::vector<std::unique_ptr<transport::HostStack>>;

/// Plain-TCP mode (§5.4) marks nothing, so switches drop at the buffer;
/// spraying schemes run with the reordering mask, as the paper does for
/// Presto* ("we implement a reordering buffer to mask packet
/// reordering", §5.1).
void normalize_config(Scheme scheme, transport::TcpConfig& tcp, bool& ecn_enabled);

/// Builds the balancer `config.scheme` names on `fabric`, seeded from
/// `config.seed`; zero Hermes RTT thresholds are filled in from
/// HermesConfig::defaults_for. CONGA and DRILL read global congestion
/// state through the concrete net::Topology, so they throw
/// std::invalid_argument on any other fabric.
[[nodiscard]] std::unique_ptr<lb::LoadBalancer> make_balancer(const ScenarioConfig& config,
                                                              sim::Simulator& simulator,
                                                              net::Fabric& fabric);

/// Flow-level totals accumulated as FlowRecords arrive (completion
/// callback and end-of-run harvest), so "transport.*" metrics never
/// iterate the unordered live-flow map.
struct TransportTotals {
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_unfinished = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_retransmitted = 0;
  std::uint64_t reroutes = 0;
};

/// One event stream's flows: scheduled-but-unfinished count, the live
/// set, the FCT collector and the transport totals.
class FlowBook {
 public:
  /// `stop_when_drained` stops the simulator once the last scheduled
  /// flow completes (the serial run loop); the sharded executor instead
  /// polls pending() at each barrier.
  FlowBook(sim::Simulator& simulator, HostStacks& stacks, bool stop_when_drained)
      : simulator_{simulator}, stacks_{stacks}, stop_when_drained_{stop_when_drained} {}

  /// Sizes the live map for every flow that could be in flight at once,
  /// then schedules each flow.
  void add_flows(const std::vector<transport::FlowSpec>& flows);
  /// Starts `f` at f.start on its source host's stack.
  void schedule(const transport::FlowSpec& f);
  /// Records every live flow as unfinished at `end`, in flow-id order, so
  /// the record stream does not inherit hash order.
  void harvest(sim::SimTime end);

  /// Live flow ids in ascending order — the deterministic view of live().
  [[nodiscard]] std::vector<std::uint64_t> sorted_ids() const;
  [[nodiscard]] const std::unordered_map<std::uint64_t, transport::FlowSpec>& live() const {
    return live_;
  }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] const TransportTotals& totals() const { return totals_; }
  [[nodiscard]] stats::FctCollector& collector() { return collector_; }

 private:
  void absorb(const transport::FlowRecord& r);

  sim::Simulator& simulator_;
  HostStacks& stacks_;
  bool stop_when_drained_;
  std::size_t pending_ = 0;
  std::unordered_map<std::uint64_t, transport::FlowSpec> live_;
  stats::FctCollector collector_;
  TransportTotals totals_;
};

/// Everything one event stream runs: its balancer, the stacks of the
/// hosts under `leaves`, Hermes probing from those leaves' rack agents,
/// its share of the fault plan, the invariant checker (net::Topology
/// only), and its flow book. A serial Scenario is one core over every
/// leaf; a ShardedScenario is one core per shard.
class ShardCore {
 public:
  /// `config` is already normalised and carries this core's seed and
  /// fault plan; only its scheme, transport, fault and invariant fields
  /// are read. `rec` (null when observability is off) receives decision
  /// and fault records.
  ShardCore(ScenarioConfig config, sim::Simulator& simulator, net::Fabric& fabric,
            const std::vector<int>& leaves, HostStacks& stacks, obs::FlightRecorder* rec,
            bool stop_when_drained);
  ~ShardCore();

  ShardCore(const ShardCore&) = delete;
  ShardCore& operator=(const ShardCore&) = delete;

  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] lb::LoadBalancer& balancer() { return *lb_; }
  /// Non-null only when the scheme is Hermes (owned by the balancer).
  [[nodiscard]] lb::HermesLb* hermes() { return hermes_; }
  [[nodiscard]] faults::FaultScheduler* fault_scheduler() { return fault_sched_.get(); }
  [[nodiscard]] faults::InvariantChecker* invariants() { return checker_.get(); }
  [[nodiscard]] FlowBook& flows() { return flows_; }

 private:
  ScenarioConfig config_;
  sim::Simulator& simulator_;
  std::unique_ptr<lb::LoadBalancer> lb_;
  lb::HermesLb* hermes_ = nullptr;
  std::unique_ptr<faults::InvariantChecker> checker_;
  std::unique_ptr<faults::FaultScheduler> fault_sched_;
  FlowBook flows_;
};

/// Registers sim.events_processed, transport.*, lb.* (Hermes) and
/// faults.* (with a fault plan), each summed over `cores`.
void register_core_metrics(obs::MetricsRegistry& reg, std::vector<ShardCore*> cores);

}  // namespace hermes::harness
