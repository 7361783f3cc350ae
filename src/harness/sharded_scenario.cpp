#include "hermes/harness/sharded_scenario.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hermes/harness/shard_core.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/trace_io.hpp"

namespace hermes::harness {

namespace {

/// Per-shard seed derivation (splitmix64 of the scenario seed and the
/// shard index): fixed for a given (seed, shard), never dependent on the
/// thread count.
std::uint64_t shard_seed(std::uint64_t seed, int shard) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(shard + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The scheme parameters of a sharded run as the config one shard's core
/// reads: its own seed and its own slice of the fault plan.
ScenarioConfig shard_config(const ShardedScenarioConfig& c, std::uint64_t seed,
                            faults::FaultPlan plan) {
  ScenarioConfig sc;
  sc.scheme = c.scheme;
  sc.tcp = c.tcp;
  sc.hermes = c.hermes;
  sc.clove = c.clove;
  sc.letflow = c.letflow;
  sc.flowbender = c.flowbender;
  sc.presto_weighted = c.presto_weighted;
  sc.presto_cell_bytes = c.presto_cell_bytes;
  sc.seed = seed;
  sc.fault_plan = std::move(plan);
  return sc;
}

}  // namespace

ShardedScenario::ShardedScenario(ShardedScenarioConfig config) : config_{std::move(config)} {
  normalize_config(config_.scheme, config_.tcp, config_.fabric.ecn_enabled);
  const int S = std::clamp(config_.num_shards, 1, config_.fabric.k);
  config_.num_shards = S;
  sims_.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>(shard_seed(config_.seed, s)));
  }
  std::vector<sim::Simulator*> raw;
  raw.reserve(sims_.size());
  for (auto& s : sims_) raw.push_back(s.get());
  fabric_ = std::make_unique<net::FatTree>(std::move(raw), config_.fabric);

  // No sharded scheme consumes in-band CONGA stamps; skip the DRE reads.
  for (int e = 0; e < fabric_->num_leaves(); ++e) fabric_->leaf(e).conga_stamping = false;
  for (int p = 0; p < fabric_->num_pods(); ++p) {
    for (int a = 0; a < fabric_->k() / 2; ++a) fabric_->agg(p, a).conga_stamping = false;
  }
  for (int c = 0; c < fabric_->num_cores(); ++c) fabric_->spine(c).conga_stamping = false;

  if (config_.obs.enabled) {
    std::vector<obs::FlightRecorder*> recs;
    for (int s = 0; s < num_shards(); ++s) {
      recorders_.push_back(
          std::make_unique<obs::FlightRecorder>(config_.obs.ring_capacity, &trace_names_));
      recorders_[s]->set_shard(static_cast<std::uint8_t>(s));
      recs.push_back(recorders_[s].get());
    }
    if (config_.obs.trace_packets) fabric_->set_recorders(recs);
  }

  // Faults: split the plan by the single shard whose event stream owns
  // the targeted device, so every mutation happens inside that shard's
  // rounds (edge switch / edge<->agg link -> the pod's shard; core
  // switch -> the core's shard).
  std::vector<faults::FaultPlan> plans(static_cast<std::size_t>(S));
  for (const faults::FaultEvent& e : config_.fault_plan.events()) {
    plans[static_cast<std::size_t>(fault_owner_shard(e))].add(e);
  }

  stacks_.resize(static_cast<std::size_t>(fabric_->num_hosts()));
  for (int s = 0; s < num_shards(); ++s) {
    shard_cores_.push_back(std::make_unique<ShardCore>(
        shard_config(config_, shard_seed(config_.seed, s), std::move(plans[s])), *sims_[s],
        *fabric_, fabric_->leaves_of_shard(s), stacks_, recorder(s),
        /*stop_when_drained=*/false));
  }

  std::vector<ShardCore*> cores;
  for (auto& c : shard_cores_) cores.push_back(c.get());
  register_core_metrics(metrics_, std::move(cores));
  fabric_->register_metrics(metrics_);
  metrics_.gauge_fn("sharding.shards", [this] { return static_cast<double>(num_shards()); });
  metrics_.gauge_fn("sharding.threads", [this] { return static_cast<double>(threads_used_); });
  metrics_.counter_fn("sharding.rounds", [this] { return exec_stats_.rounds; });
  metrics_.counter_fn("sharding.boundary_packets",
                      [this] { return fabric_->boundary_packets(); });
  metrics_.gauge_fn("sharding.horizon_mean_ns", [this] {
    return exec_stats_.rounds == 0
               ? 0.0
               : static_cast<double>(exec_stats_.horizon_ns_total) /
                     static_cast<double>(exec_stats_.rounds);
  });
  for (int s = 0; s < num_shards(); ++s) {
    metrics_.counter_fn("sharding.shard" + std::to_string(s) + ".events",
                        [this, s] { return sims_[s]->events().events_processed(); });
  }
}

ShardedScenario::~ShardedScenario() = default;

lb::HermesLb* ShardedScenario::hermes(int shard) { return shard_cores_[shard]->hermes(); }

int ShardedScenario::fault_owner_shard(const faults::FaultEvent& e) const {
  switch (e.action) {
    case faults::FaultAction::kBlackholeOn:
    case faults::FaultAction::kBlackholeOff:
    case faults::FaultAction::kRandomDropSet:
      return e.tier == faults::SwitchTier::kLeaf ? fabric_->shard_of_leaf(e.switch_id)
                                                 : fabric_->shard_of_core(e.switch_id);
    case faults::FaultAction::kLinkDown:
    case faults::FaultAction::kLinkUp:
    case faults::FaultAction::kLinkRate:
      // Edge uplinks run edge<->agg, both endpoints inside the pod.
      return fabric_->shard_of_leaf(e.link.leaf);
  }
  return 0;
}

std::uint64_t ShardedScenario::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events().events_processed();
  return total;
}

void ShardedScenario::add_flows(const std::vector<transport::FlowSpec>& flows) {
  for (const auto& f : flows) {
    const int shard = fabric_->shard_of_host(f.src);
    shard_cores_[static_cast<std::size_t>(shard)]->flows().schedule(f);
  }
}

std::uint64_t ShardedScenario::add_flow(std::int32_t src, std::int32_t dst, std::uint64_t size,
                                        sim::SimTime start) {
  transport::FlowSpec f;
  f.id = next_flow_id_++;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.start = start;
  add_flows({f});
  return f.id;
}

stats::FctCollector ShardedScenario::run() {
  std::vector<sim::EventQueue*> queues;
  queues.reserve(sims_.size());
  for (auto& s : sims_) queues.push_back(&s->events());
  sim::ShardedExecutor exec{std::move(queues), fabric_->lookahead(), config_.threads};
  threads_used_ = exec.threads();
  exec.run_until(config_.max_sim_time, [this] {
    fabric_->exchange_boundary();
    std::size_t pending = 0;
    for (const auto& core : shard_cores_) pending += core->flows().pending();
    return pending > 0;
  });
  exec_stats_ = exec.stats();

  // Harvest unfinished flows at the time cap, then merge every shard's
  // records into ascending flow-id order — flow ids are unique, so the
  // merged stream is one canonical sequence independent of shard/thread
  // interleaving.
  std::vector<transport::FlowRecord> all;
  for (int s = 0; s < num_shards(); ++s) {
    FlowBook& book = shard_cores_[s]->flows();
    book.harvest(config_.max_sim_time);
    const auto& recs = book.collector().records();
    all.insert(all.end(), recs.begin(), recs.end());
  }
  std::sort(all.begin(), all.end(),
            [](const transport::FlowRecord& a, const transport::FlowRecord& b) {
              return a.id < b.id;
            });
  stats::FctCollector merged;
  for (const transport::FlowRecord& r : all) merged.add(r);
  return merged;
}

bool ShardedScenario::dump_trace(const std::string& path) const {
  if (recorders_.empty()) return false;
  std::vector<const obs::FlightRecorder*> raw;
  raw.reserve(recorders_.size());
  for (const auto& r : recorders_) raw.push_back(r.get());
  return obs::write_merged_trace(path, raw);
}

}  // namespace hermes::harness
