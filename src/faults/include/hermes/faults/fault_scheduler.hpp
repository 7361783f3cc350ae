#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <deque>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/net/fabric.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::faults {

/// One executed fault transition, for post-run reporting.
struct AppliedFault {
  sim::SimTime at{};
  FaultAction action{};
  std::string what;
};

/// Executes a FaultPlan against a live fabric: every event is posted on
/// the simulator's event queue and, when it fires, drives the Switch /
/// Topology runtime mutators. The scheduler is the single writer of
/// injected-fault state, so experiments can ask it what is currently
/// broken (`active_faults()`) and subscribe to transitions
/// (`on_transition`, which the InvariantChecker uses to run its checks
/// right after every fault boundary).
class FaultScheduler {
 public:
  FaultScheduler(sim::Simulator& simulator, net::Fabric& topo);

  /// Schedule every event of `plan`. Events timed in the past (relative
  /// to the simulator clock) fire on the next queue pop. May be called
  /// multiple times; plans accumulate.
  void install(const FaultPlan& plan);

  /// Fired after each event has been applied to the fabric.
  std::function<void(const FaultEvent&)> on_transition;

  [[nodiscard]] const std::vector<AppliedFault>& log() const { return log_; }
  [[nodiscard]] std::size_t applied() const { return log_.size(); }
  [[nodiscard]] std::size_t pending() const { return installed_ - log_.size(); }
  /// Number of fault conditions currently active (onsets minus clears);
  /// 0 means the fabric is nominally healthy again.
  [[nodiscard]] int active_faults() const { return active_; }

  /// Attach (null detaches) the scenario's flight recorder: every applied
  /// transition lands in the trace as a kFault record, so `hermestrace`
  /// can correlate reroute decisions with fault boundaries.
  void set_recorder(obs::FlightRecorder* rec) {
    rec_ = rec;
    name_id_ = rec != nullptr ? rec->intern("faults") : 0;
  }

 private:
  void apply(const FaultEvent& e);
  [[nodiscard]] static std::string describe(const FaultEvent& e);
  void record_fault(const FaultEvent& e, bool onset);

  sim::Simulator& simulator_;
  net::Fabric& topo_;
  obs::FlightRecorder* rec_ = nullptr;  ///< null when observability is off
  std::uint32_t name_id_ = 0;
  std::vector<AppliedFault> log_;
  /// Installed events, owned here; queued callbacks index into this
  /// (append-only, so indices stay stable across install() calls).
  std::deque<FaultEvent> installed_events_;
  std::size_t installed_ = 0;
  int active_ = 0;
};

}  // namespace hermes::faults
