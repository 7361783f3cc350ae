#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hermes/lb/hermes.hpp"
#include "hermes/faults/fault_plan.hpp"
#include "hermes/faults/fault_scheduler.hpp"
#include "hermes/faults/invariant_checker.hpp"
#include "hermes/lb/clove.hpp"
#include "hermes/lb/conga.hpp"
#include "hermes/lb/drill.hpp"
#include "hermes/lb/flowbender.hpp"
#include "hermes/lb/letflow.hpp"
#include "hermes/lb/load_balancer.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/transport/host_stack.hpp"
#include "hermes/transport/tcp_config.hpp"

namespace hermes::harness {

/// The load balancing schemes the paper evaluates (§5.1), plus the two
/// extra baselines of Table 1 (FlowBender was implemented but its results
/// omitted by the paper; DRILL was related work).
enum class Scheme {
  kEcmp,
  kDrb,
  kPrestoStar,  ///< per-packet spray + reordering buffer, weighted if asym.
  kLetFlow,
  kConga,
  kCloveEcn,
  kHermes,
  kFlowBender,
  kDrill,
  kWcmp,
};

[[nodiscard]] const char* to_string(Scheme s);

/// Flight-recorder settings. Off by default: with `enabled == false` no
/// recorder exists and every instrumented hot-path site reduces to one
/// predicted-not-taken null check (measured at zero extra allocations by
/// bench_core_micro). The metrics registry is independent of this flag —
/// pull-model counters cost nothing until snapshotted.
struct ObsConfig {
  bool enabled = false;
  /// Ring capacity in records (rounded up to a power of two). The ring
  /// keeps the *last* `ring_capacity` records — black-box semantics.
  std::size_t ring_capacity = 1u << 16;
  /// Record per-packet port lifecycle events (the bulk of trace volume).
  /// Decision/fault/queue records are always on when `enabled`.
  bool trace_packets = true;
  /// Auto-triage: when the run ends with invariant violations or
  /// unfinished flows, dump the ring to `dump_path` (default
  /// "FUZZ_<seed>.htrc") and print a one-line repro hint to stderr.
  /// Requires `enabled`; used by the fuzz harness, harmless elsewhere.
  bool dump_on_violation = false;
  /// Override for the triage dump path; empty selects FUZZ_<seed>.htrc
  /// in the working directory.
  std::string dump_path;
};

/// Everything needed to run one experiment: fabric, scheme, transport.
struct ScenarioConfig {
  net::TopologyConfig topo;
  Scheme scheme = Scheme::kEcmp;
  transport::TcpConfig tcp;

  // Scheme parameters; zero-valued Hermes RTT thresholds are derived from
  // the topology via HermesConfig::defaults_for.
  lb::HermesConfig hermes;
  lb::CongaConfig conga;
  lb::CloveConfig clove;
  lb::LetFlowConfig letflow;
  lb::FlowBenderConfig flowbender;
  lb::DrillConfig drill;
  bool presto_weighted = true;
  /// 0 = spray per packet (the paper's Presto*); 64KB reproduces the
  /// original Presto flowcell granularity (used by Examples 2/3).
  std::uint32_t presto_cell_bytes = 0;

  std::uint64_t seed = 1;
  /// Wall guard: absolute simulated-time cap. Flows still running when it
  /// is reached are reported as unfinished (blackholed ECMP flows never
  /// finish; the cap is what ends them).
  sim::SimTime max_sim_time = sim::sec(10);

  /// Timed fault events (onset AND recovery) executed mid-run through a
  /// FaultScheduler — dynamic failures, unlike the static
  /// Switch::set_failure calls an experiment makes before traffic starts.
  faults::FaultPlan fault_plan;
  /// Wire an InvariantChecker across the fabric: byte conservation,
  /// bounded queues, and the stuck-flow watchdog, verified after every
  /// fault transition and every `invariant_config.period`.
  bool check_invariants = false;
  faults::InvariantCheckerConfig invariant_config;

  /// Observability (flight recorder) settings for this run.
  ObsConfig obs;

  /// Optional decorator wrapped around the built balancer — used by the
  /// microbenchmarks to pin initial placements, and by applications to
  /// substitute entirely custom schemes (see examples/custom_scheme.cpp).
  /// Receives the simulator, the built topology, and the scheme built
  /// from `scheme`; returns the balancer the fabric will actually use.
  std::function<std::unique_ptr<lb::LoadBalancer>(
      sim::Simulator&, net::Topology&, std::unique_ptr<lb::LoadBalancer>)>
      wrap_balancer;
};

class ShardCore;

/// Builds a fabric + per-host transport stacks + the selected load
/// balancer, runs flow workloads, and collects FCT results. This is the
/// per-experiment composition root used by examples, tests and benches:
/// one ShardCore over every leaf of a net::Topology, on one Simulator.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
  [[nodiscard]] net::Topology& topology() { return *topo_; }
  [[nodiscard]] lb::LoadBalancer& balancer();
  [[nodiscard]] transport::HostStack& stack(int host_id) { return *stacks_[host_id]; }
  [[nodiscard]] const ScenarioConfig& config() const;
  /// Non-null only when the scheme is Hermes.
  [[nodiscard]] lb::HermesLb* hermes();
  /// Non-null only when the config carried a fault plan.
  [[nodiscard]] faults::FaultScheduler* fault_scheduler();
  /// Non-null only when check_invariants was set.
  [[nodiscard]] faults::InvariantChecker* invariants();

  /// Non-null only when config.obs.enabled: the flight recorder wired
  /// into every port, the balancer, and the fault scheduler.
  [[nodiscard]] obs::FlightRecorder* recorder() { return recorder_.get(); }
  /// Always-on metrics registry: sim/net/transport/lb/faults counters are
  /// registered at construction; snapshot in sorted-name order.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Dump the flight recorder to a schema-v1 trace file readable by
  /// `hermestrace`. Returns false when observability is off or on I/O
  /// failure.
  [[nodiscard]] bool dump_trace(const std::string& path) const;
  /// Non-empty once run() auto-dumped a triage trace (obs.dump_on_violation
  /// and the run ended with violations or unfinished flows).
  [[nodiscard]] const std::string& triage_path() const { return triage_path_; }

  /// Schedule a list of flows (e.g. from workload::generate_poisson_traffic).
  void add_flows(const std::vector<transport::FlowSpec>& flows);
  /// Schedule a single flow; returns its id.
  std::uint64_t add_flow(std::int32_t src, std::int32_t dst, std::uint64_t size,
                         sim::SimTime start);

  /// Run until every scheduled flow finishes or max_sim_time is reached;
  /// returns FCT statistics (unfinished flows included as such).
  stats::FctCollector run();
  /// Run for a fixed simulated duration (microbenchmarks / traces).
  void run_for(sim::SimTime duration);

  /// Flows currently in flight (visibility sampling, Table 2).
  [[nodiscard]] const std::unordered_map<std::uint64_t, transport::FlowSpec>& active_flows()
      const;
  [[nodiscard]] std::uint64_t next_flow_id() { return next_flow_id_++; }

  /// In-flight flow ids in ascending order — the deterministic view of
  /// active_flows() for anything that feeds results or reports.
  [[nodiscard]] std::vector<std::uint64_t> sorted_active_ids() const;

 private:
  void maybe_dump_triage();

  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<ShardCore> core_;
  // Declared after core_ so the stacks go before the balancer they use.
  std::vector<std::unique_ptr<transport::HostStack>> stacks_;
  obs::MetricsRegistry metrics_;

  std::string triage_path_;
  std::uint64_t next_flow_id_ = 1'000'000;  // manual flows; workloads use small ids
};

}  // namespace hermes::harness
