#include "hermes/harness/scenario.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hermes/harness/shard_core.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/trace_io.hpp"

namespace hermes::harness {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kEcmp: return "ECMP";
    case Scheme::kDrb: return "DRB";
    case Scheme::kPrestoStar: return "Presto*";
    case Scheme::kLetFlow: return "LetFlow";
    case Scheme::kConga: return "CONGA";
    case Scheme::kCloveEcn: return "CLOVE-ECN";
    case Scheme::kHermes: return "Hermes";
    case Scheme::kFlowBender: return "FlowBender";
    case Scheme::kDrill: return "DRILL";
    case Scheme::kWcmp: return "WCMP";
  }
  return "?";
}

Scenario::Scenario(ScenarioConfig config) {
  normalize_config(config.scheme, config.tcp, config.topo.ecn_enabled);
  simulator_ = std::make_unique<sim::Simulator>(config.seed);
  topo_ = std::make_unique<net::Topology>(*simulator_, config.topo);
  if (config.obs.enabled) {
    recorder_ = std::make_unique<obs::FlightRecorder>(config.obs.ring_capacity);
    if (config.obs.trace_packets) topo_->set_recorder(recorder_.get());
  }
  // In-band congestion stamping costs a DRE read per fabric hop; only
  // CONGA consumes it.
  if (config.scheme != Scheme::kConga) {
    for (int l = 0; l < topo_->num_leaves(); ++l) topo_->leaf(l).conga_stamping = false;
    for (int s = 0; s < topo_->num_spines(); ++s) topo_->spine(s).conga_stamping = false;
  }

  std::vector<int> leaves(static_cast<std::size_t>(topo_->num_leaves()));
  std::iota(leaves.begin(), leaves.end(), 0);
  stacks_.resize(static_cast<std::size_t>(topo_->num_hosts()));
  core_ = std::make_unique<ShardCore>(std::move(config), *simulator_, *topo_, leaves, stacks_,
                                      recorder_.get(), /*stop_when_drained=*/true);

  // The registry is always on: pull closures read counters the modules
  // maintain anyway, so there is no per-packet cost until snapshot time.
  register_core_metrics(metrics_, {core_.get()});
  topo_->register_metrics(metrics_);
  // Serial only: one histogram observed from several shard threads
  // would race.
  if (lb::HermesLb* h = core_->hermes()) {
    h->set_latch_histogram(&metrics_.histogram("lb.latch_lifetime_us"));
  }
  if (faults::InvariantChecker* inv = core_->invariants()) inv->register_metrics(metrics_);
}

Scenario::~Scenario() = default;

lb::LoadBalancer& Scenario::balancer() { return core_->balancer(); }
const ScenarioConfig& Scenario::config() const { return core_->config(); }
lb::HermesLb* Scenario::hermes() { return core_->hermes(); }
faults::FaultScheduler* Scenario::fault_scheduler() { return core_->fault_scheduler(); }
faults::InvariantChecker* Scenario::invariants() { return core_->invariants(); }

const std::unordered_map<std::uint64_t, transport::FlowSpec>& Scenario::active_flows() const {
  return core_->flows().live();
}

std::vector<std::uint64_t> Scenario::sorted_active_ids() const {
  return core_->flows().sorted_ids();
}

bool Scenario::dump_trace(const std::string& path) const {
  if (!recorder_) return false;
  return obs::write_trace(path, *recorder_);
}

void Scenario::add_flows(const std::vector<transport::FlowSpec>& flows) {
  core_->flows().add_flows(flows);
}

std::uint64_t Scenario::add_flow(std::int32_t src, std::int32_t dst, std::uint64_t size,
                                 sim::SimTime start) {
  transport::FlowSpec f;
  f.id = next_flow_id();
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.start = start;
  add_flows({f});
  return f.id;
}

stats::FctCollector Scenario::run() {
  simulator_->run_until(config().max_sim_time);
  core_->flows().harvest(simulator_->now());
  maybe_dump_triage();
  return std::move(core_->flows().collector());
}

void Scenario::maybe_dump_triage() {
  const ScenarioConfig& cfg = config();
  if (!cfg.obs.dump_on_violation || !recorder_) return;
  const faults::InvariantChecker* checker = core_->invariants();
  const std::uint64_t unfinished = core_->flows().totals().flows_unfinished;
  const bool violated = checker != nullptr && !checker->ok();
  const bool stranded = unfinished > 0;
  if (!violated && !stranded) return;
  triage_path_ = cfg.obs.dump_path.empty() ? "FUZZ_" + std::to_string(cfg.seed) + ".htrc"
                                            : cfg.obs.dump_path;
  if (!dump_trace(triage_path_)) {
    triage_path_.clear();
    return;
  }
  // One line per failing run, stderr, grep-able: what fired, where the
  // flight-recorder ring went, and the command that replays the seed.
  const std::string why = violated ? checker->violations().front().what
                                   : std::to_string(unfinished) + " unfinished flows at time cap";
  std::fprintf(stderr,
               "[triage] seed=%llu scheme=%s: %s\n"
               "[triage]   trace: %s  repro: hermesfuzz --seed=%llu --scheme=%s\n",
               static_cast<unsigned long long>(cfg.seed), to_string(cfg.scheme), why.c_str(),
               triage_path_.c_str(), static_cast<unsigned long long>(cfg.seed),
               to_string(cfg.scheme));
}

void Scenario::run_for(sim::SimTime duration) {
  simulator_->run_until(simulator_->now() + duration);
}

}  // namespace hermes::harness
