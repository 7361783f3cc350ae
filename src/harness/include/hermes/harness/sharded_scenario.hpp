#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/lb/hermes.hpp"
#include "hermes/net/fattree.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/obs/string_table.hpp"
#include "hermes/sim/sharded_executor.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/transport/host_stack.hpp"
#include "hermes/transport/tcp_config.hpp"

namespace hermes::harness {

/// Configuration of a sharded fat-tree run. Reuses the serial harness's
/// Scheme and ObsConfig; the schemes that read global fabric congestion
/// state through the concrete Topology (CONGA, DRILL) are not available
/// sharded and are rejected at construction.
struct ShardedScenarioConfig {
  net::FatTreeConfig fabric;
  Scheme scheme = Scheme::kEcmp;
  transport::TcpConfig tcp;

  lb::HermesConfig hermes;
  lb::CloveConfig clove;
  lb::LetFlowConfig letflow;
  lb::FlowBenderConfig flowbender;
  bool presto_weighted = true;
  std::uint32_t presto_cell_bytes = 0;

  std::uint64_t seed = 1;
  sim::SimTime max_sim_time = sim::sec(10);

  /// Topology partitions (clamped to [1, k pods]). This — not the thread
  /// count — is what determines simulation results: a fixed shard count
  /// produces byte-identical output for every thread count.
  int num_shards = 1;
  /// Worker threads for the executor; 0 resolves via
  /// sim::resolve_threads() (HERMES_THREADS, then hardware concurrency)
  /// and is additionally capped at num_shards.
  unsigned threads = 0;

  faults::FaultPlan fault_plan;
  ObsConfig obs;
};

class ShardCore;

/// The sharded composition root: a FatTree partitioned across per-shard
/// Simulators, one ShardCore per shard (balancer, host stacks, fault
/// schedule, flow book), run under sim::ShardedExecutor with the
/// fabric's mailbox exchange as the barrier. The division of state
/// follows flow ownership: a flow lives entirely in the shard of its
/// source host (sender, receiver-side bookkeeping callbacks, LB decisions
/// and probe state are all keyed by source), so per-shard mutable state
/// is only ever touched from that shard's event stream and rounds can run
/// on parallel threads.
///
/// Determinism contract: for a fixed config (including num_shards), the
/// merged results — FCT records, metrics, merged trace bytes — are
/// identical for any thread count (pinned by ShardedDeterminism tests).
/// Results for different *shard counts* are each self-consistent but not
/// byte-comparable to one another (cross-switch arrival interleavings
/// legitimately differ).
class ShardedScenario {
 public:
  explicit ShardedScenario(ShardedScenarioConfig config);
  ~ShardedScenario();

  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  [[nodiscard]] net::FatTree& fabric() { return *fabric_; }
  [[nodiscard]] sim::Simulator& shard_sim(int shard) { return *sims_[shard]; }
  [[nodiscard]] int num_shards() const { return static_cast<int>(sims_.size()); }
  [[nodiscard]] const ShardedScenarioConfig& config() const { return config_; }
  [[nodiscard]] transport::HostStack& stack(int host_id) { return *stacks_[host_id]; }
  /// The shard-local Hermes instance (null unless scheme is Hermes).
  [[nodiscard]] lb::HermesLb* hermes(int shard);

  /// Schedule flows; each is owned by (scheduled on, completed in) the
  /// shard of its source host.
  void add_flows(const std::vector<transport::FlowSpec>& flows);
  std::uint64_t add_flow(std::int32_t src, std::int32_t dst, std::uint64_t size,
                         sim::SimTime start);

  /// Run to completion (all flows done) or max_sim_time; returns the
  /// merged FCT collector with records in ascending flow-id order.
  stats::FctCollector run();

  /// Executor facts from the last run().
  [[nodiscard]] const sim::ShardedExecutor::Stats& executor_stats() const { return exec_stats_; }
  [[nodiscard]] unsigned threads_used() const { return threads_used_; }
  /// Events processed across every shard.
  [[nodiscard]] std::uint64_t events_processed() const;

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Per-shard recorder (null when obs is off).
  [[nodiscard]] obs::FlightRecorder* recorder(int shard) {
    return recorders_.empty() ? nullptr : recorders_[shard].get();
  }
  /// Dump all shards' rings as one merged schema-v2 trace (sorted by
  /// (time, shard), shared string table). False when obs is off.
  [[nodiscard]] bool dump_trace(const std::string& path) const;

 private:
  [[nodiscard]] int fault_owner_shard(const faults::FaultEvent& e) const;

  ShardedScenarioConfig config_;
  // HERMES_SHARD_OWNED one Simulator per shard; index only by shard id
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::unique_ptr<net::FatTree> fabric_;
  obs::StringTable trace_names_;  ///< shared by every shard recorder
  // HERMES_SHARD_OWNED per-shard flight recorder
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;
  // HERMES_SHARD_OWNED per-shard balancer, faults and flow book; a wrong
  // index here is a cross-shard data race under the parallel executor
  std::vector<std::unique_ptr<ShardCore>> shard_cores_;
  // Declared after shard_cores_ so the stacks go before the balancers they use.
  std::vector<std::unique_ptr<transport::HostStack>> stacks_;  ///< per host
  obs::MetricsRegistry metrics_;

  sim::ShardedExecutor::Stats exec_stats_;
  unsigned threads_used_ = 0;
  std::uint64_t next_flow_id_ = 1'000'000;
};

}  // namespace hermes::harness
