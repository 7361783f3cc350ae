// The two simulation workloads, driven through the public harness and
// workload APIs:
//   fattree-probe     k=16 fat-tree, 16 pod shards, Hermes with the paper's
//                     probing, 1000 web-search x0.1 flows at 25% load;
//   leafspine-faults  8x8 leaf-spine, serial Scenario, Hermes, invariant
//                     checker on, 1000 web-search flows at 60% load, a
//                     transient half-pair blackhole and a 2% random drop.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/harness/sharded_scenario.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"
#include "trace.hpp"
#include "workload_sizes.hpp"

namespace perfbench {

namespace {

using namespace hermes;

/// The fat-tree run always covers this much simulated time: a one-byte
/// horizon flow starts here, so the probe plane's work does not depend
/// on when the slowest of the 1000 flows happens to finish (a single
/// 10 ms RTO would otherwise double it for some seeds).
constexpr sim::SimTime kFatTreeHorizon = sim::msec(16);

using Counters = std::map<std::string, double>;

Counters read_counters(const obs::MetricsRegistry& reg) {
  Counters out;
  std::istringstream in{reg.snapshot_text()};
  std::string name;
  double value = 0;
  while (in >> name >> value) out[name] = value;
  return out;
}

double get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// FCT of every generated flow (ids up to `max_id`), unfinished flows
/// included at their time-in-system.
void summarize(const stats::FctCollector& fct, std::uint64_t max_id, RoundResult& res) {
  stats::FctCollector generated;
  for (const auto& r : fct.records()) {
    if (r.id > max_id) continue;
    generated.add(r);
    res.fct_ns.push_back(r.fct().ns());
  }
  res.flows = generated.total_flows();
  res.unfinished = generated.unfinished_flows();
}

void add_check(RoundResult& res, std::string failure) {
  if (!failure.empty()) res.failures.push_back(std::move(failure));
}

/// Per-layer metrics both simulations read from the scenario registry.
void common_layers(const Counters& c, double wall_s, std::uint64_t run_allocs, RoundResult& res) {
  auto& L = res.layers;
  const double events = get(c, "sim.events_processed");
  const double data = get(c, "transport.packets_sent");
  const double probes = get(c, "lb.probes_sent");
  L["sim.events"] = {events, "count"};
  L["sim.ns_per_event"] = {ratio(wall_s * 1e9, events), "ns"};
  L["sim.allocs_per_event"] = {ratio(static_cast<double>(run_allocs), events), "ratio"};
  L["net.link_tx"] = {get(c, "net.tx_packets"), "count"};
  L["net.link_tx_per_data_packet"] = {ratio(get(c, "net.tx_packets"), data), "ratio"};
  L["net.ecn_marks"] = {get(c, "net.ecn_marks"), "count"};
  L["net.drops"] = {get(c, "net.drops"), "count"};
  L["net.failure_drops"] = {get(c, "net.failure_drops"), "count"};
  L["transport.data_packets"] = {data, "count"};
  L["transport.retransmits"] = {get(c, "transport.packets_retransmitted"), "count"};
  L["transport.timeouts"] = {get(c, "transport.timeouts"), "count"};
  L["transport.fast_retransmits"] = {get(c, "transport.fast_retransmits"), "count"};
  L["lb.probes"] = {probes, "count"};
  L["lb.probe_share"] = {ratio(probes, probes + data), "ratio"};
  L["lb.congestion_reroutes"] = {get(c, "lb.congestion_reroutes"), "count"};
  L["lb.timeout_escapes"] = {get(c, "lb.timeout_escapes"), "count"};
  L["lb.failure_escapes"] = {get(c, "lb.failure_escapes"), "count"};
  L["lb.blackhole_latches"] = {get(c, "lb.blackhole_latches"), "count"};
  L["faults.applied"] = {get(c, "faults.applied"), "count"};
  L["faults.invariant_checks"] = {get(c, "invariants.checks_run"), "count"};
}

/// Times every probe reply a rack agent handles. `lane(leaf)` picks the
/// CallStats of the thread that runs that agent.
template <typename Stacks, typename Lane>
void time_probe_replies(Stacks stack_of, int num_leaves, const net::Fabric& fabric, Lane lane) {
  for (int l = 0; l < num_leaves; ++l) {
    transport::HostStack& st = stack_of(fabric.first_host_of_leaf(l));
    if (!st.on_probe_reply) continue;
    st.on_probe_reply = [inner = std::move(st.on_probe_reply),
                         cs = lane(l)](const net::Packet& p) {
      const Clock::time_point t0 = Clock::now();
      inner(p);
      cs->add(t0, Clock::now());
    };
  }
}

/// wrap_balancer decorator: forwards every call, timing select_path().
class TimedBalancer final : public lb::LoadBalancer {
 public:
  TimedBalancer(std::unique_ptr<lb::LoadBalancer> inner, CallStats* select)
      : inner_{std::move(inner)}, select_{select} {}

  int select_path(lb::FlowCtx& flow, const net::Packet& pkt) override {
    const Clock::time_point t0 = Clock::now();
    const int path = inner_->select_path(flow, pkt);
    select_->add(t0, Clock::now());
    return path;
  }
  void on_ack(lb::FlowCtx& flow, const net::Packet& ack) override { inner_->on_ack(flow, ack); }
  void on_data_arrival(const net::Packet& data) override { inner_->on_data_arrival(data); }
  void decorate_ack(const net::Packet& data, net::Packet& ack) override {
    inner_->decorate_ack(data, ack);
  }
  void on_timeout(lb::FlowCtx& flow) override { inner_->on_timeout(flow); }
  void on_retransmit(lb::FlowCtx& flow, int path_id) override {
    inner_->on_retransmit(flow, path_id);
  }
  void on_flow_complete(lb::FlowCtx& flow) override { inner_->on_flow_complete(flow); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lb::LoadBalancer> inner_;
  CallStats* select_;
};

void finish_trace(const Tracer& tr, const Options& opt, RoundResult& res) {
  if (tr.enabled() && !tr.write(opt.trace_out))
    res.failures.push_back("trace: cannot write " + opt.trace_out);
}

}  // namespace

RoundResult run_fattree_probe(const Options& opt) {
  RoundResult res;
  Tracer tr{!opt.trace_out.empty()};
  const int setup = tr.begin("setup");

  harness::ShardedScenarioConfig cfg;
  cfg.fabric.k = 16;
  cfg.scheme = harness::Scheme::kHermes;
  cfg.seed = opt.seed;
  cfg.max_sim_time = sim::msec(200);
  cfg.num_shards = 16;
  cfg.threads = opt.threads;

  int span = tr.begin("harness.build", setup);
  const Clock::time_point t_build = Clock::now();
  harness::ShardedScenario s{cfg};
  const Clock::time_point t_generate = Clock::now();
  tr.end(span);

  span = tr.begin("workload.generate", setup);
  const workload::SizeDist dist = workload::SizeDist::web_search().scaled(0.1);
  workload::TrafficConfig tc;
  tc.load = 0.25;
  tc.num_flows = 1000;
  tc.seed = opt.seed;
  std::vector<transport::FlowSpec> flows =
      workload::generate_poisson_traffic(s.fabric(), dist, tc);
  const Clock::time_point t_generated = Clock::now();
  stratify_sizes(flows, dist);
  tr.end(span);

  span = tr.begin("harness.add_flows", setup);
  const Clock::time_point t_add = Clock::now();
  s.add_flows(flows);
  transport::FlowSpec horizon;
  horizon.src = 0;
  horizon.dst = s.fabric().num_hosts() - 1;
  horizon.size = 1;
  horizon.start = kFatTreeHorizon;
  horizon.id = s.add_flow(horizon.src, horizon.dst, horizon.size, horizon.start);
  const Clock::time_point t_setup = Clock::now();
  tr.end(span);
  tr.end(setup);

  res.setup_s = seconds_between(process_start(), t_setup);
  auto& L = res.layers;
  L["harness.build_s"] = {seconds_between(t_build, t_generate), "s"};
  L["workload.generate_s"] = {seconds_between(t_generate, t_generated), "s"};
  L["harness.add_flows_s"] = {seconds_between(t_add, t_setup), "s"};
  L["harness.rss_after_setup_mib"] = {peak_rss_mib(), "MiB"};

  const int run = tr.begin("run");
  std::vector<CallStats*> lanes;
  if (tr.enabled()) {
    for (int sh = 0; sh < s.num_shards(); ++sh) lanes.push_back(&tr.calls("lb.probe_reply", run));
    time_probe_replies([&](int h) -> transport::HostStack& { return s.stack(h); },
                       s.fabric().num_leaves(), s.fabric(),
                       [&](int leaf) { return lanes[s.fabric().shard_of_leaf(leaf)]; });
  }
  const std::uint64_t allocs0 = alloc_count();
  const Clock::time_point t0 = Clock::now();
  const stats::FctCollector fct = s.run();
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t run_allocs = alloc_count() - allocs0;
  tr.end(run);
  res.wall_s = seconds_between(t0, t1);
  res.peak_rss_mib = peak_rss_mib();

  summarize(fct, flows.size(), res);
  res.digest = hex64(fnv1a64(stats::to_csv(fct)));

  const Counters c = read_counters(s.metrics());
  common_layers(c, res.wall_s, run_allocs, res);
  const double rounds = get(c, "sharding.rounds");
  double max_events = 0;
  double sum_events = 0;
  for (int sh = 0; sh < s.num_shards(); ++sh) {
    const double e = get(c, "sharding.shard" + std::to_string(sh) + ".events");
    max_events = std::max(max_events, e);
    sum_events += e;
  }
  L["sim.rounds"] = {rounds, "count"};
  L["sim.horizon_mean_ns"] = {get(c, "sharding.horizon_mean_ns"), "ns"};
  L["sim.boundary_packets"] = {get(c, "sharding.boundary_packets"), "count"};
  L["sim.shard_imbalance"] = {ratio(max_events, sum_events / s.num_shards()), "ratio"};
  if (tr.enabled()) {
    CallStats all{"lb.probe_reply", run};
    for (const CallStats* lane : lanes) all.merge(*lane);
    L["lb.probe_reply_ns"] = {net_mean_ns(all), "ns"};
  }

  std::vector<transport::FlowSpec> all_flows = flows;
  all_flows.push_back(horizon);
  add_check(res, check_all_finished(all_flows, fct.records()));
  add_check(res, check_first_transmissions(all_flows, fct.records(), cfg.tcp.mss));
  const net::FatTree& ft = s.fabric();
  add_check(res, check_line_rate(all_flows, fct.records(), ft.host_rate_bps(),
                                 cfg.fabric.link_delay, [&ft](const transport::FlowSpec& f) {
                                   const bool same_pod = ft.pod_of_leaf(ft.leaf_of(f.src)) ==
                                                         ft.pod_of_leaf(ft.leaf_of(f.dst));
                                   return same_pod ? 4 : 6;
                                 }));
  // One probe round: up to three probes per ordered rack pair.
  const auto leaves = static_cast<std::uint64_t>(ft.num_leaves());
  add_check(res, check_probe_conservation(static_cast<std::uint64_t>(get(c, "lb.probes_sent")),
                                          static_cast<std::uint64_t>(get(c, "lb.probe_replies")),
                                          3 * leaves * (leaves - 1)));
  finish_trace(tr, opt, res);
  return res;
}

RoundResult run_leafspine_faults(const Options& opt) {
  RoundResult res;
  Tracer tr{!opt.trace_out.empty()};
  const int setup = tr.begin("setup");

  harness::ScenarioConfig cfg;
  cfg.scheme = harness::Scheme::kHermes;
  cfg.seed = opt.seed;
  cfg.check_invariants = true;
  const int hpl = cfg.topo.hosts_per_leaf;
  cfg.fault_plan.transient_blackhole(sim::msec(5), sim::msec(60), 2,
                                     faults::rack_pair_blackhole(hpl, 0, 7, /*half_pairs=*/true));
  cfg.fault_plan.transient_random_drop(sim::msec(10), sim::msec(50), 5, 0.02);
  CallStats* select = nullptr;
  if (tr.enabled()) {
    select = &tr.calls("lb.select_path", -1);  // parented to "run" once it opens
    cfg.wrap_balancer = [select](sim::Simulator&, net::Topology&,
                                 std::unique_ptr<lb::LoadBalancer> built) {
      return std::make_unique<TimedBalancer>(std::move(built), select);
    };
  }

  int span = tr.begin("harness.build", setup);
  const Clock::time_point t_build = Clock::now();
  harness::Scenario s{cfg};
  const Clock::time_point t_generate = Clock::now();
  tr.end(span);

  span = tr.begin("workload.generate", setup);
  const workload::SizeDist dist = workload::SizeDist::web_search();
  workload::TrafficConfig tc;
  tc.load = 0.6;
  tc.num_flows = 1000;
  tc.seed = opt.seed;
  std::vector<transport::FlowSpec> flows =
      workload::generate_poisson_traffic(s.topology(), dist, tc);
  const Clock::time_point t_generated = Clock::now();
  stratify_sizes(flows, dist);
  tr.end(span);

  span = tr.begin("harness.add_flows", setup);
  const Clock::time_point t_add = Clock::now();
  s.add_flows(flows);
  const Clock::time_point t_setup = Clock::now();
  tr.end(span);
  tr.end(setup);

  res.setup_s = seconds_between(process_start(), t_setup);
  auto& L = res.layers;
  L["harness.build_s"] = {seconds_between(t_build, t_generate), "s"};
  L["workload.generate_s"] = {seconds_between(t_generate, t_generated), "s"};
  L["harness.add_flows_s"] = {seconds_between(t_add, t_setup), "s"};
  L["harness.rss_after_setup_mib"] = {peak_rss_mib(), "MiB"};

  const int run = tr.begin("run");
  CallStats* replies = nullptr;
  if (tr.enabled()) {
    select->set_parent(run);
    replies = &tr.calls("lb.probe_reply", run);
    time_probe_replies([&](int h) -> transport::HostStack& { return s.stack(h); },
                       s.topology().num_leaves(), s.topology(), [replies](int) { return replies; });
  }
  const std::uint64_t allocs0 = alloc_count();
  const Clock::time_point t0 = Clock::now();
  const stats::FctCollector fct = s.run();
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t run_allocs = alloc_count() - allocs0;
  tr.end(run);
  res.wall_s = seconds_between(t0, t1);
  res.peak_rss_mib = peak_rss_mib();

  summarize(fct, flows.size(), res);
  res.digest = hex64(fnv1a64(stats::to_csv(fct)));

  const Counters c = read_counters(s.metrics());
  common_layers(c, res.wall_s, run_allocs, res);
  if (tr.enabled()) {
    L["lb.probe_reply_ns"] = {net_mean_ns(*replies), "ns"};
    L["lb.select_path_ns"] = {net_mean_ns(*select), "ns"};
    L["lb.select_path_calls"] = {static_cast<double>(select->calls()), "count"};
  }

  add_check(res, check_all_finished(flows, fct.records()));
  add_check(res, check_first_transmissions(flows, fct.records(), cfg.tcp.mss));
  add_check(res, check_line_rate(flows, fct.records(), cfg.topo.host_rate_bps,
                                 cfg.topo.link_delay,
                                 [](const transport::FlowSpec&) { return 4; }));
  for (const auto& [name, value] : c) {
    if (name.rfind("invariants.violations.", 0) == 0 && value != 0)
      res.failures.push_back("invariants: " + name + " = " + std::to_string(value));
  }
  if (get(c, "faults.applied") != 4)
    res.failures.push_back("faults: " + std::to_string(get(c, "faults.applied")) +
                           " fault transitions applied, 4 planned");
  finish_trace(tr, opt, res);
  return res;
}

}  // namespace perfbench
