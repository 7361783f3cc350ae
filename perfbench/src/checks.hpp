// Correctness checks computed apart from the program: each recomputes
// what the outputs must satisfy from the generated inputs and the fabric
// configuration, and returns an empty string when it holds or a one-line
// description of the first violation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hermes/engine/decision.hpp"
#include "hermes/engine/host_set.hpp"
#include "hermes/sim/time.hpp"
#include "hermes/transport/flow.hpp"

namespace perfbench {

using FlowSpecs = std::vector<hermes::transport::FlowSpec>;
using FlowRecords = std::vector<hermes::transport::FlowRecord>;

/// Every generated flow has exactly one record, and it finished.
[[nodiscard]] std::string check_all_finished(const FlowSpecs& flows, const FlowRecords& recs);

/// Σ(packets sent − packets retransmitted) over the records equals
/// Σ⌈size/MSS⌉ over the generated flows: every segment went out once
/// before any retransmission.
[[nodiscard]] std::string check_first_transmissions(const FlowSpecs& flows,
                                                    const FlowRecords& recs, std::uint32_t mss);

/// No finished flow beats its line-rate floor: its bytes serialised at the
/// host rate plus the propagation round trip over `links(flow)` links.
[[nodiscard]] std::string check_line_rate(
    const FlowSpecs& flows, const FlowRecords& recs, double host_rate_bps,
    hermes::sim::SimTime link_delay,
    const std::function<int(const hermes::transport::FlowSpec&)>& links);

/// On a fault-free fabric every probe is answered except those still in
/// flight when the run ends, which is at most one probe round.
[[nodiscard]] std::string check_probe_conservation(std::uint64_t sent, std::uint64_t replies,
                                                   std::uint64_t one_round);

/// Checks the engine's decisions against the membership the replay
/// declared and the timeouts it fed, and counts path changes two ways:
/// from the decide() results and from the decision stream (as a sink).
class EngineAuditor final : public hermes::engine::DecisionSink {
 public:
  struct Decide {
    std::int32_t src = -1;
    std::int32_t dst = -1;
    int prev_path = -1;           ///< flow.cur_local before the call
    bool had_sent = false;        ///< flow.has_sent before the call
    bool timeout_pending = false; ///< flow.timeout_pending before the call
    int chosen = -1;
    hermes::engine::TimeNs now = 0;
  };

  EngineAuditor(int num_paths, double panic_threshold, std::uint32_t blackhole_timeouts,
                hermes::engine::TimeNs latch_lifetime)
      : num_paths_{num_paths},
        panic_threshold_{panic_threshold},
        blackhole_timeouts_{blackhole_timeouts},
        latch_lifetime_{latch_lifetime} {}

  /// One decide() result; `declared` is the pair's membership as last
  /// pushed with sync_pair().
  void audit(const Decide& d, const hermes::engine::HostSet& declared);
  /// Mirror of the blackhole detector's inputs.
  void on_ack(std::int32_t src, std::int32_t dst, int path);
  void on_timeout(std::int32_t src, std::int32_t dst, int path, hermes::engine::TimeNs now);

  void on_decision(const hermes::engine::DecisionEvent& ev) override;

  [[nodiscard]] std::uint64_t path_changes() const { return path_changes_; }
  [[nodiscard]] std::uint64_t sink_path_changes() const { return sink_changes_; }
  [[nodiscard]] std::uint64_t latches_seen() const { return latches_; }
  /// Every violation so far (the first few of each property spelled out),
  /// plus a path-change mismatch if the two counts differ.
  [[nodiscard]] std::vector<std::string> failures() const;

 private:
  struct Track {
    std::uint32_t timeouts = 0;
    bool latched = false;  ///< first latch seen; the mirror stops counting
    hermes::engine::TimeNs latched_at = 0;
  };
  void fail(std::uint64_t& counter, const char* property, const Decide& d);

  int num_paths_;
  double panic_threshold_;
  std::uint32_t blackhole_timeouts_;
  hermes::engine::TimeNs latch_lifetime_;
  std::unordered_map<std::uint64_t, Track> tracks_;
  std::uint64_t path_changes_ = 0;
  std::uint64_t sink_changes_ = 0;
  std::uint64_t latches_ = 0;
  std::uint64_t out_of_range_ = 0;
  std::uint64_t ineligible_ = 0;
  std::uint64_t latched_path_ = 0;
  std::vector<std::string> examples_;
};

}  // namespace perfbench
