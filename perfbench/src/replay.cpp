// engine-replay: hermes::engine::Engine alone, with no simulator. A seeded
// flow-level model drives every engine entry point in time order:
//
//   - flows (web-search sizes, Poisson arrivals, hosts in different racks)
//     send windows of up to kWindow packets; each packet is one decide();
//     each delivered packet one on_ack() one round trip later;
//   - a lost packet stalls its flow for one RTO, then on_timeout() and
//     on_retransmit() fire and the packet is sent again;
//   - every 500 us each ordered rack pair gets feed_probe_sample() on two
//     random paths and the best one;
//   - every 2 ms one path of one rack pair is declared unhealthy or
//     drained (weight 0) through sync_pair(), and restored 4 ms later.
//
// Path p of a rack pair crosses spine p: its round trip is the base RTT
// plus the fluid queues of the source rack's uplink and the destination
// rack's downlink at that spine; spine kSlowSpine runs at a quarter rate.
// Faults: spine 2 blackholes half the host pairs between rack 0 and rack
// 15, both ways, in [5 ms, 60 ms); spine 5 drops 2% of packets in
// [10 ms, 50 ms).
//
// The model's clock is the FCT clock: a flow's FCT is the model time from
// its arrival to the ACK of its last packet, so it reflects the engine's
// path choices.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "hermes/engine/engine.hpp"
#include "hermes/stats/fct.hpp"
#include "hermes/workload/size_dist.hpp"
#include "trace.hpp"
#include "workload_sizes.hpp"

namespace perfbench {

namespace {

namespace he = hermes::engine;

constexpr int kGroups = 16;
constexpr int kHostsPerGroup = 16;
constexpr int kPaths = 8;
constexpr int kFlows = 44000;   ///< Poisson web-search flows
constexpr double kLoad = 0.6;  ///< of the racks' uplink capacity
/// Repeated one-packet flows between four fixed host pairs of rack 15 ->
/// rack 0, two of them inside the blackhole: the traffic that lets the
/// per-(src, dst, path) detector reach its third timeout. No other flow
/// uses that rack pair, so its paths carry about 6 packets each per
/// 10 ms retransmission epoch (50 flows over 8 paths), far under the 25
/// the path-level drop detector needs: spine 2 is not condemned for the whole rack pair
/// before a blackholed host pair has timed out on it three times, which
/// takes about 24 of its flows (one path in 8), against ~69 in the window.
constexpr int kHotPairs = 4;
constexpr int kHotFlowsPerPair = 1000;
constexpr double kHotMeanGapNs = 800e3;  ///< Poisson arrivals per pair
constexpr std::uint64_t kHotPackets = 1;
constexpr double kLinkBps = 10e9;
constexpr std::uint32_t kPacketBytes = 1500;
constexpr he::TimeNs kSerialization = 1200;  ///< one packet at 10 Gb/s
constexpr he::TimeNs kBaseRtt = he::usec(20);
constexpr int kSlowSpine = 3;  ///< its links run at a quarter rate
constexpr double kEcnPackets = 65;  ///< marking threshold at 10 Gb/s
constexpr double kMinEcnPackets = 20;
constexpr int kWindow = 10;
constexpr he::TimeNs kRto = he::msec(1);
constexpr he::TimeNs kProbeInterval = he::usec(500);
constexpr he::TimeNs kChurnInterval = he::msec(2);
constexpr he::TimeNs kChurnHold = he::msec(4);
constexpr he::TimeNs kModelCap = he::sec(10);

constexpr int kHoleSrc = 0;
constexpr int kHoleDst = kGroups - 1;
constexpr int kHotSrc = kHoleDst;  ///< the hot pairs' racks
constexpr int kHotDst = kHoleSrc;
constexpr int kHolePath = 2;
constexpr he::TimeNs kHoleOn = he::msec(5);
constexpr he::TimeNs kHoleOff = he::msec(60);
constexpr int kDropPath = 5;
constexpr double kDropRate = 0.02;
constexpr he::TimeNs kDropOn = he::msec(10);
constexpr he::TimeNs kDropOff = he::msec(50);

/// splitmix64: the model's own deterministic stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// FIFO link drained at line rate: backlog is queued work in ns.
struct Queue {
  he::TimeNs serialization = kSerialization;
  double backlog = 0;
  he::TimeNs last = 0;

  [[nodiscard]] double at(he::TimeNs now) const {
    return std::max(0.0, backlog - static_cast<double>(now - last));
  }
  /// Enqueue one packet; returns the queueing delay it sees.
  double push(he::TimeNs now) {
    const double wait = at(now);
    backlog = wait + static_cast<double>(serialization);
    last = now;
    return wait;
  }
  /// ECN at a rate-scaled threshold (65 packets at 10 Gb/s, at least 20).
  [[nodiscard]] bool marks(double wait) const {
    const double rate_share = static_cast<double>(kSerialization) / static_cast<double>(serialization);
    return wait > std::max(kMinEcnPackets, kEcnPackets * rate_share) *
                      static_cast<double>(serialization);
  }
};

struct Flow {
  std::uint64_t id = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::uint64_t packets = 0;
  he::TimeNs start = 0;
  he::TimeNs end = -1;
  std::uint64_t unsent = 0;
  std::uint64_t acked_bytes = 0;
  he::FlowView view;
  int burst = 0;
  int path[kWindow] = {};
  he::TimeNs rtt[kWindow] = {};
  bool ecn[kWindow] = {};
  bool lost[kWindow] = {};
};

double flow_rate(const void* ctx, he::TimeNs now) {
  const Flow& f = *static_cast<const Flow*>(ctx);
  return now > f.start ? static_cast<double>(f.acked_bytes) * 8e9 / static_cast<double>(now - f.start)
                       : 0.0;
}

enum class Kind : std::uint8_t { kFlow, kProbe, kChurn, kRestore };

struct Event {
  he::TimeNs at = 0;
  std::uint64_t seq = 0;
  Kind kind = Kind::kFlow;
  std::uint32_t index = 0;
};
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

struct Churn {
  int src_group = 0;
  int dst_group = 0;
  int path = 0;
  bool drain = false;  ///< weight 0 instead of unhealthy
};

/// Times one engine call in traced mode (null stats: untimed).
class Timed {
 public:
  explicit Timed(CallStats* stats) : stats_{stats} {
    if (stats_ != nullptr) {
      allocs_ = alloc_count();
      t0_ = Clock::now();
    }
  }
  ~Timed() {
    if (stats_ != nullptr) stats_->add(t0_, Clock::now(), alloc_count() - allocs_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  CallStats* stats_;
  Clock::time_point t0_{};
  std::uint64_t allocs_ = 0;
};

class Replay {
 public:
  Replay(std::uint64_t seed, Tracer& tr)
      : engine_{engine_config(), kGroups, seed},
        auditor_{kPaths, engine_.config().panic_threshold, engine_.config().blackhole_timeouts,
                 engine_.config().failure_expiry},
        rng_{seed ^ 0xA5A5A5A5DEADBEEFULL},
        members_(static_cast<std::size_t>(kGroups * kGroups)),
        uplinks_(static_cast<std::size_t>(kGroups * kPaths)),
        downlinks_(static_cast<std::size_t>(kGroups * kPaths)),
        events_{Later{}, reserved_events()} {
    engine_.set_sink(&auditor_);
    for (int g = 0; g < kGroups; ++g) {
      uplinks_[static_cast<std::size_t>(g * kPaths + kSlowSpine)].serialization *= 4;
      downlinks_[static_cast<std::size_t>(kSlowSpine * kGroups + g)].serialization *= 4;
    }
    if (tr.enabled()) {
      decide_ = &tr.calls("engine.decide", -1);
      ack_ = &tr.calls("engine.on_ack", -1);
      timeout_ = &tr.calls("engine.on_timeout", -1);
      retransmit_ = &tr.calls("engine.on_retransmit", -1);
      probe_ = &tr.calls("engine.feed_probe_sample", -1);
      sync_ = &tr.calls("engine.sync_pair", -1);
    }
    for (int a = 0; a < kGroups; ++a) {
      for (int b = 0; b < kGroups; ++b) {
        if (a == b) continue;
        he::HostSet& hs = members(a, b);
        for (int p = 0; p < kPaths; ++p) hs.add(p);
        sync(a, b);
      }
    }
    generate_flows(seed);
  }
  // The engine holds &auditor_ and every FlowView points into flows_.
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  void set_run_span(int span) {
    for (CallStats* c : {decide_, ack_, timeout_, retransmit_, probe_, sync_})
      if (c != nullptr) c->set_parent(span);
  }

  void run() {
    push(kProbeInterval, Kind::kProbe, 0);
    push(kChurnInterval, Kind::kChurn, 0);
    while (!events_.empty() && done_ < flows_.size()) {
      const Event ev = events_.top();
      events_.pop();
      if (ev.at > kModelCap) break;
      now_ = ev.at;
      switch (ev.kind) {
        case Kind::kFlow: step(flows_[ev.index]); break;
        case Kind::kProbe: probe_round(); break;
        case Kind::kChurn: churn(); break;
        case Kind::kRestore: restore(churns_[ev.index]); break;
      }
    }
  }

  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }
  [[nodiscard]] const he::Engine& engine() const { return engine_; }
  [[nodiscard]] const EngineAuditor& auditor() const { return auditor_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

  /// Traced mode: mean time and allocations per engine entry point.
  void report_calls(RoundResult& res) const {
    if (decide_ == nullptr) return;
    auto& L = res.layers;
    L["engine.decide_ns"] = {net_mean_ns(*decide_), "ns"};
    L["engine.on_ack_ns"] = {net_mean_ns(*ack_), "ns"};
    L["engine.timeout_ns"] = {net_mean_ns(*timeout_), "ns"};
    L["engine.probe_ns"] = {net_mean_ns(*probe_), "ns"};
    L["engine.sync_pair_ns"] = {net_mean_ns(*sync_), "ns"};
    std::uint64_t allocs = 0;
    std::uint64_t calls = 0;
    for (const CallStats* c : {decide_, ack_, timeout_, retransmit_, probe_, sync_}) {
      allocs += c->allocs();
      calls += c->calls();
    }
    L["engine.allocs_per_call"] = {
        calls == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(calls), "ratio"};
  }

 private:
  static he::Config engine_config() {
    he::Config c;
    // The paper's derivation (§3.3) for this fabric: one-hop delay is the
    // ECN threshold's queueing delay.
    const he::TimeNs one_hop = static_cast<he::TimeNs>(kEcnPackets) * kSerialization;
    const he::TimeNs base = kBaseRtt + 2 * kSerialization;
    c.t_rtt_low = base + he::usec(30);
    c.t_rtt_high = base + one_hop * 3 / 2;
    c.delta_rtt = one_hop;
    c.reroute_rate_limit_bps = 0.3 * kLinkBps;
    return c;
  }
  static std::vector<Event> reserved_events() {
    std::vector<Event> v;
    v.reserve(kFlows + kHotPairs * kHotFlowsPerPair + 64);
    return v;
  }

  he::HostSet& members(int a, int b) { return members_[static_cast<std::size_t>(a * kGroups + b)]; }
  Queue& uplink(int group, int path) {
    return uplinks_[static_cast<std::size_t>(group * kPaths + path)];
  }
  Queue& downlink(int path, int group) {
    return downlinks_[static_cast<std::size_t>(path * kGroups + group)];
  }
  static int group_of(std::int32_t host) { return host / kHostsPerGroup; }
  /// The blackhole drops half the host pairs, by a fixed header pattern.
  static bool in_blackhole_half(std::int32_t src, std::int32_t dst) {
    return ((static_cast<std::uint32_t>(src) * 31u + static_cast<std::uint32_t>(dst)) & 1u) != 0;
  }

  void push(he::TimeNs at, Kind kind, std::uint32_t index) {
    events_.push(Event{at, seq_++, kind, index});
  }

  void sync(int a, int b) {
    Timed t{sync_};
    ++calls_;
    engine_.sync_pair(a, b, members(a, b));
  }

  void generate_flows(std::uint64_t seed) {
    Rng rng{seed};
    const hermes::workload::SizeDist dist = hermes::workload::SizeDist::web_search();
    const double capacity_bps = kGroups * kPaths * kLinkBps;
    const double mean_gap_ns = 1e9 * dist.mean_bytes() * 8.0 / (kLoad * capacity_bps);
    std::vector<hermes::transport::FlowSpec> specs(kFlows);
    double t = 0;
    const auto hosts = static_cast<std::uint64_t>(kGroups * kHostsPerGroup);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      t += -mean_gap_ns * std::log(1.0 - rng.uniform());
      auto& s = specs[i];
      s.id = i + 1;
      s.start = hermes::sim::SimTime::nanoseconds(static_cast<std::int64_t>(t));
      s.size = static_cast<std::uint64_t>(rng.next());  // rank only; stratified below
      s.src = static_cast<std::int32_t>(rng.below(hosts));
      do {
        s.dst = static_cast<std::int32_t>(rng.below(hosts));
      } while (group_of(s.dst) == group_of(s.src) ||
               (group_of(s.src) == kHotSrc && group_of(s.dst) == kHotDst));
    }
    stratify_sizes(specs, dist);
    for (int h = 0; h < kHotPairs; ++h) {
      // Alternate pairs inside and outside the blackhole's half.
      std::int32_t src = 0;
      std::int32_t dst = 0;
      do {
        src = static_cast<std::int32_t>(kHotSrc * kHostsPerGroup + rng.below(kHostsPerGroup));
        dst = static_cast<std::int32_t>(kHotDst * kHostsPerGroup + rng.below(kHostsPerGroup));
      } while (in_blackhole_half(src, dst) != (h % 2 == 0));
      // Random arrivals, so that no pair is kept off a path by falling
      // into step with the least-rate choice's rotation over the paths.
      double at = 0;
      for (int i = 0; i < kHotFlowsPerPair; ++i) {
        at += -kHotMeanGapNs * std::log(1.0 - rng.uniform());
        hermes::transport::FlowSpec hot;
        hot.id = specs.size() + 1;
        hot.src = src;
        hot.dst = dst;
        hot.size = kHotPackets * kPacketBytes;
        hot.start = hermes::sim::SimTime::nanoseconds(static_cast<std::int64_t>(at));
        specs.push_back(hot);
      }
    }
    flows_.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Flow& f = flows_[i];
      f.id = specs[i].id;
      f.src = specs[i].src;
      f.dst = specs[i].dst;
      f.packets = (specs[i].size + kPacketBytes - 1) / kPacketBytes;
      f.unsent = f.packets;
      f.start = specs[i].start.ns();
      f.view.flow_id = f.id;
      f.view.src = f.src;
      f.view.dst = f.dst;
      f.view.src_group = group_of(f.src);
      f.view.dst_group = group_of(f.dst);
      f.view.rate_ctx = &f;
      f.view.rate_fn = &flow_rate;
      push(f.start, Kind::kFlow, static_cast<std::uint32_t>(i));
    }
  }

  [[nodiscard]] bool dropped(const Flow& f, int path) {
    const bool hole_pair = (f.view.src_group == kHoleSrc && f.view.dst_group == kHoleDst) ||
                           (f.view.src_group == kHoleDst && f.view.dst_group == kHoleSrc);
    if (path == kHolePath && hole_pair && now_ >= kHoleOn && now_ < kHoleOff &&
        in_blackhole_half(f.src, f.dst))
      return true;
    return path == kDropPath && now_ >= kDropOn && now_ < kDropOff && rng_.uniform() < kDropRate;
  }

  void step(Flow& f) {
    const int sg = f.view.src_group;
    const int dg = f.view.dst_group;
    if (f.burst > 0) {
      int lost = 0;
      for (int i = 0; i < f.burst; ++i) {
        if (f.lost[i]) {
          ++lost;
          continue;
        }
        {
          Timed t{ack_};
          ++calls_;
          engine_.on_ack(sg, dg, f.path[i], f.src, f.dst, true, f.rtt[i], f.ecn[i]);
        }
        auditor_.on_ack(f.src, f.dst, f.path[i]);
        f.acked_bytes += kPacketBytes;
      }
      if (lost > 0) {
        // The retransmission timer fired on the flow's current path.
        {
          Timed t{timeout_};
          ++calls_;
          engine_.on_timeout(f.view, now_);
        }
        auditor_.on_timeout(f.src, f.dst, f.view.cur_local, now_);
        for (int i = 0; i < f.burst; ++i) {
          if (!f.lost[i]) continue;
          Timed t{retransmit_};
          ++calls_;
          engine_.on_retransmit(sg, dg, f.path[i], now_);
        }
        f.view.timeout_pending = true;
        f.unsent += static_cast<std::uint64_t>(lost);
      }
      f.burst = 0;
    }
    if (f.unsent == 0) {
      f.end = now_;
      ++done_;
      return;
    }

    const int n = static_cast<int>(std::min<std::uint64_t>(kWindow, f.unsent));
    bool any_lost = false;
    he::TimeNs slowest = 0;
    const he::HostSet& declared = members(sg, dg);
    for (int i = 0; i < n; ++i) {
      EngineAuditor::Decide d{f.src, f.dst, f.view.cur_local, f.view.has_sent,
                              f.view.timeout_pending, -1, now_};
      {
        Timed t{decide_};
        ++calls_;
        d.chosen = engine_.decide(f.view, kPacketBytes, now_);
      }
      auditor_.audit(d, declared);
      const int p = d.chosen >= 0 && d.chosen < kPaths ? d.chosen : 0;
      f.view.cur_local = p;
      f.view.has_sent = true;
      f.view.bytes_sent += kPacketBytes;
      f.path[i] = p;
      f.lost[i] = dropped(f, p);
      if (f.lost[i]) {
        any_lost = true;
        continue;
      }
      Queue& up = uplink(sg, p);
      Queue& down = downlink(p, dg);
      const double w_up = up.push(now_);
      const double w_down = down.push(now_);
      f.rtt[i] = kBaseRtt + up.serialization + down.serialization +
                 static_cast<he::TimeNs>(w_up + w_down);
      f.ecn[i] = up.marks(w_up) || down.marks(w_down);
      slowest = std::max(slowest, f.rtt[i]);
    }
    f.burst = n;
    f.unsent -= static_cast<std::uint64_t>(n);
    push(now_ + (any_lost ? kRto : slowest), Kind::kFlow,
         static_cast<std::uint32_t>(&f - flows_.data()));
  }

  void probe_round() {
    for (int a = 0; a < kGroups; ++a) {
      for (int b = 0; b < kGroups; ++b) {
        if (a == b) continue;
        const int r1 = static_cast<int>(rng_.below(kPaths));
        const int r2 = (r1 + 1 + static_cast<int>(rng_.below(kPaths - 1))) % kPaths;
        const int best = engine_.best_path(a, b);
        probe(a, b, r1);
        probe(a, b, r2);
        if (best >= 0 && best != r1 && best != r2) probe(a, b, best);
      }
    }
    push(now_ + kProbeInterval, Kind::kProbe, 0);
  }

  void probe(int a, int b, int p) {
    if (p == kDropPath && now_ >= kDropOn && now_ < kDropOff && rng_.uniform() < kDropRate) return;
    const Queue& up = uplink(a, p);
    const Queue& down = downlink(p, b);
    const double w_up = up.at(now_);
    const double w_down = down.at(now_);
    const he::TimeNs rtt =
        kBaseRtt + up.serialization + down.serialization + static_cast<he::TimeNs>(w_up + w_down);
    Timed t{probe_};
    ++calls_;
    engine_.feed_probe_sample(a, b, p, rtt, up.marks(w_up) || down.marks(w_down));
  }

  void churn() {
    Churn c;
    c.src_group = static_cast<int>(rng_.below(kGroups));
    c.dst_group = (c.src_group + 1 + static_cast<int>(rng_.below(kGroups - 1))) % kGroups;
    c.path = static_cast<int>(rng_.below(kPaths));
    c.drain = (churns_.size() & 1u) != 0;
    he::HostSet& hs = members(c.src_group, c.dst_group);
    if (c.drain) {
      hs.set_weight(c.path, 0);
    } else {
      hs.set_health(c.path, he::Health::kUnhealthy);
    }
    sync(c.src_group, c.dst_group);
    churns_.push_back(c);
    push(now_ + kChurnHold, Kind::kRestore, static_cast<std::uint32_t>(churns_.size() - 1));
    push(now_ + kChurnInterval, Kind::kChurn, 0);
  }

  void restore(const Churn& c) {
    he::HostSet& hs = members(c.src_group, c.dst_group);
    if (c.drain) {
      hs.set_weight(c.path, 1);
    } else {
      hs.set_health(c.path, he::Health::kHealthy);
    }
    sync(c.src_group, c.dst_group);
  }

  he::Engine engine_;
  EngineAuditor auditor_;
  Rng rng_;
  std::vector<he::HostSet> members_;  ///< declared membership per rack pair
  std::vector<Queue> uplinks_;
  std::vector<Queue> downlinks_;
  std::vector<Flow> flows_;
  std::vector<Churn> churns_;
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::uint64_t seq_ = 0;
  std::size_t done_ = 0;
  he::TimeNs now_ = 0;
  std::uint64_t calls_ = 0;
  CallStats* decide_ = nullptr;
  CallStats* ack_ = nullptr;
  CallStats* timeout_ = nullptr;
  CallStats* retransmit_ = nullptr;
  CallStats* probe_ = nullptr;
  CallStats* sync_ = nullptr;
};

}  // namespace

RoundResult run_engine_replay(const Options& opt) {
  RoundResult res;
  Tracer tr{!opt.trace_out.empty()};
  const int setup = tr.begin("setup");
  Replay replay{opt.seed, tr};
  const Clock::time_point t_setup = Clock::now();
  tr.end(setup);
  res.setup_s = seconds_between(process_start(), t_setup);

  const int run = tr.begin("run");
  replay.set_run_span(run);
  const Clock::time_point t0 = Clock::now();
  replay.run();
  const Clock::time_point t1 = Clock::now();
  tr.end(run);
  res.wall_s = seconds_between(t0, t1);
  res.peak_rss_mib = peak_rss_mib();

  hermes::stats::FctCollector fct;
  std::string digest;
  for (const Flow& f : replay.flows()) {
    hermes::transport::FlowRecord r;
    r.id = f.id;
    r.size = f.packets * kPacketBytes;
    r.start = hermes::sim::SimTime::nanoseconds(f.start);
    r.finished = f.end >= 0;
    r.end = hermes::sim::SimTime::nanoseconds(r.finished ? f.end : kModelCap);
    fct.add(r);
    res.fct_ns.push_back(r.fct().ns());
    digest += std::to_string(f.id) + ',' + std::to_string(r.end.ns()) + ',' +
              std::to_string(f.view.bytes_sent) + '\n';
  }
  const he::DecisionStats& st = replay.engine().stats();
  digest += std::to_string(st.initial_placements) + ',' + std::to_string(st.timeout_escapes) +
            ',' + std::to_string(st.failure_escapes) + ',' +
            std::to_string(st.congestion_reroutes) + ',' + std::to_string(st.blackhole_latches) +
            ',' + std::to_string(st.latch_expiries) + ',' + std::to_string(replay.calls());
  res.digest = hex64(fnv1a64(digest));
  res.flows = fct.total_flows();
  res.unfinished = fct.unfinished_flows();
  if (res.unfinished != 0)
    res.failures.push_back("all-finished: " + std::to_string(res.unfinished) +
                           " replayed flows never completed");
  for (std::string& f : replay.auditor().failures()) res.failures.push_back(std::move(f));
  if (replay.auditor().latches_seen() == 0)
    res.failures.push_back("blackhole-latch: the replay never reached a third timeout");

  auto& L = res.layers;
  L["engine.calls"] = {static_cast<double>(replay.calls()), "count"};
  L["lb.congestion_reroutes"] = {static_cast<double>(st.congestion_reroutes), "count"};
  L["lb.timeout_escapes"] = {static_cast<double>(st.timeout_escapes), "count"};
  L["lb.failure_escapes"] = {static_cast<double>(st.failure_escapes), "count"};
  L["lb.blackhole_latches"] = {static_cast<double>(st.blackhole_latches), "count"};
  replay.report_calls(res);
  if (tr.enabled() && !tr.write(opt.trace_out))
    res.failures.push_back("trace: cannot write " + opt.trace_out);
  return res;
}

}  // namespace perfbench
