// The benchmark's own tests: every correctness check passes on real
// outputs and fails when fed a corrupted one (a dropped flow record, an
// FCT pushed under its floor, a decision moved onto an unhealthy path).
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "hermes/engine/engine.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/workload/flow_gen.hpp"
#include "hermes/workload/size_dist.hpp"
#include "workload_sizes.hpp"

namespace {

using namespace hermes;
namespace he = hermes::engine;
using perfbench::EngineAuditor;

int g_failed = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failed;
}

struct SmallRun {
  std::vector<transport::FlowSpec> flows;
  std::vector<transport::FlowRecord> records;
  transport::TcpConfig tcp;
  net::TopologyConfig topo;
};

SmallRun small_leafspine() {
  harness::ScenarioConfig cfg;
  cfg.scheme = harness::Scheme::kHermes;
  cfg.seed = 7;
  harness::Scenario s{cfg};
  workload::TrafficConfig tc;
  tc.load = 0.5;
  tc.num_flows = 60;
  tc.seed = 7;
  const workload::SizeDist dist = workload::SizeDist::web_search().scaled(0.1);
  SmallRun run;
  run.flows = workload::generate_poisson_traffic(s.topology(), dist, tc);
  perfbench::stratify_sizes(run.flows, dist);
  s.add_flows(run.flows);
  run.records = s.run().records();
  run.tcp = cfg.tcp;
  run.topo = cfg.topo;
  return run;
}

std::string line_rate(const SmallRun& r, const std::vector<transport::FlowRecord>& recs) {
  return perfbench::check_line_rate(r.flows, recs, r.topo.host_rate_bps, r.topo.link_delay,
                                    [](const transport::FlowSpec&) { return 4; });
}

void flow_checks() {
  const SmallRun run = small_leafspine();
  expect(perfbench::check_all_finished(run.flows, run.records).empty(),
         "all-finished holds on a real run");
  expect(perfbench::check_first_transmissions(run.flows, run.records, run.tcp.mss).empty(),
         "first-transmissions holds on a real run");
  expect(line_rate(run, run.records).empty(), "line-rate holds on a real run");

  std::vector<transport::FlowRecord> dropped = run.records;
  dropped.erase(dropped.begin() + 17);
  expect(!perfbench::check_all_finished(run.flows, dropped).empty(),
         "all-finished fails with one flow record dropped");
  expect(!perfbench::check_first_transmissions(run.flows, dropped, run.tcp.mss).empty(),
         "first-transmissions fails with one flow record dropped");

  std::vector<transport::FlowRecord> unfinished = run.records;
  unfinished[3].finished = false;
  expect(!perfbench::check_all_finished(run.flows, unfinished).empty(),
         "all-finished fails with one flow unfinished");

  std::vector<transport::FlowRecord> fast = run.records;
  fast[5].end = fast[5].start + sim::SimTime::nanoseconds(1);
  expect(!line_rate(run, fast).empty(), "line-rate fails with one FCT pushed under its floor");

  expect(perfbench::check_probe_conservation(1000, 990, 20).empty(),
         "probe-conservation holds within one round in flight");
  expect(!perfbench::check_probe_conservation(1000, 900, 20).empty(),
         "probe-conservation fails with more than a round missing");
  expect(!perfbench::check_probe_conservation(1000, 1001, 20).empty(),
         "probe-conservation fails with more replies than probes");
}

void stratified_sizes() {
  const workload::SizeDist dist = workload::SizeDist::web_search();
  std::vector<transport::FlowSpec> flows(4);
  const std::uint64_t raw[] = {50, 10, 40, 20};
  for (int i = 0; i < 4; ++i) flows[static_cast<std::size_t>(i)].size = raw[i];
  perfbench::stratify_sizes(flows, dist);
  expect(flows[1].size == perfbench::size_quantile(dist, 0.125) &&
             flows[3].size == perfbench::size_quantile(dist, 0.375) &&
             flows[2].size == perfbench::size_quantile(dist, 0.625) &&
             flows[0].size == perfbench::size_quantile(dist, 0.875),
         "stratified sizes keep the generator's ranks");
}

/// Group pair (0, 1) with four paths: 1 unhealthy, 2 drained.
struct EngineFixture {
  he::Engine engine{he::Config{}, 2, 11};
  he::HostSet members;
  EngineAuditor auditor{4, engine.config().panic_threshold, engine.config().blackhole_timeouts,
                        engine.config().failure_expiry};

  EngineFixture() {
    for (int p = 0; p < 4; ++p) members.add(p);
    members.set_health(1, he::Health::kUnhealthy);
    members.set_weight(2, 0);
    engine.sync_pair(0, 1, members);
    engine.set_sink(&auditor);
  }

  he::FlowView flow(std::uint64_t id) const {
    he::FlowView f;
    f.flow_id = id;
    f.src = 3;
    f.dst = 20;
    f.src_group = 0;
    f.dst_group = 1;
    return f;
  }

  int decide(he::FlowView& f, he::TimeNs now) {
    EngineAuditor::Decide d{f.src, f.dst, f.cur_local, f.has_sent, f.timeout_pending, -1, now};
    d.chosen = engine.decide(f, 1500, now);
    auditor.audit(d, members);
    f.cur_local = d.chosen;
    f.has_sent = true;
    return d.chosen;
  }
};

void engine_checks() {
  {
    EngineFixture fx;
    bool avoided = true;
    for (int i = 0; i < 200; ++i) {
      he::FlowView f = fx.flow(static_cast<std::uint64_t>(i));
      const int p = fx.decide(f, he::usec(i));
      avoided = avoided && p != 1 && p != 2;
    }
    expect(avoided && fx.auditor.failures().empty(),
           "the engine's placements pass the declared-health audit");
  }
  {
    EngineFixture fx;
    fx.auditor.audit(EngineAuditor::Decide{3, 20, -1, false, false, 1, 5}, fx.members);
    expect(!fx.auditor.failures().empty(), "declared-health fails on a decision moved onto an "
                                           "unhealthy path");
  }
  {
    EngineFixture fx;
    fx.auditor.audit(EngineAuditor::Decide{3, 20, -1, false, false, 2, 5}, fx.members);
    expect(!fx.auditor.failures().empty(), "declared-health fails on a drained path");
  }
  {
    EngineFixture fx;
    fx.auditor.audit(EngineAuditor::Decide{3, 20, 0, true, false, 1, 5}, fx.members);
    expect(fx.auditor.failures().size() == 2,
           "a move the decision stream never saw fails the path-change count");
  }
  {
    EngineFixture fx;
    fx.auditor.audit(EngineAuditor::Decide{3, 20, -1, false, false, 4, 5}, fx.members);
    expect(!fx.auditor.failures().empty(), "decide-in-range fails on path 4 of 4");
  }
  {
    // Three timeouts on (3, 20, path 0) latch it; the engine then keeps
    // every fresh placement of that pair off path 0.
    EngineFixture fx;
    he::FlowView f = fx.flow(1);
    f.cur_local = 0;
    f.has_sent = true;
    for (int i = 1; i <= 3; ++i) {
      fx.engine.on_timeout(f, he::msec(i));
      fx.auditor.on_timeout(f.src, f.dst, 0, he::msec(i));
    }
    bool avoided = true;
    for (int i = 0; i < 100; ++i) {
      he::FlowView g = fx.flow(100 + static_cast<std::uint64_t>(i));
      avoided = avoided && fx.decide(g, he::msec(4) + he::usec(i)) != 0;
    }
    expect(avoided && fx.auditor.latches_seen() == 1 && fx.auditor.failures().empty(),
           "the engine keeps a latched path off its host pair");
    fx.auditor.audit(EngineAuditor::Decide{3, 20, 3, true, true, 0, he::msec(50)}, fx.members);
    expect(!fx.auditor.failures().empty(), "blackhole-latch fails on a latched path returned");
  }
}

}  // namespace

int main() {
  flow_checks();
  stratified_sizes();
  engine_checks();
  std::printf("%s: %d failed\n", g_failed == 0 ? "OK" : "FAILED", g_failed);
  return g_failed == 0 ? 0 : 1;
}
