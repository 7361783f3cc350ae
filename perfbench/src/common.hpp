// Shared vocabulary of the benchmark program: the clock, process-level
// measurements (set-up start, peak RSS, heap allocation count) and the
// result one measured round reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Captured during static initialisation, before main(): the origin of
/// `setup_s` (a cold set-up timed from the process's start).
[[nodiscard]] Clock::time_point process_start();
[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
/// Peak resident set of this process so far (VmHWM), less the
/// file-backed pages it maps now (RssFile), in MiB.
[[nodiscard]] double peak_rss_mib();
/// Global operator new calls made by this process so far (every thread).
[[nodiscard]] std::uint64_t alloc_count();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned threads = 2;  ///< fattree-probe worker threads
  /// Traced mode: where the run writes its spans. Empty: untraced.
  std::string trace_out;
};

/// What one round — one workload run once in a fresh process — reports.
struct RoundResult {
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mib = 0;
  /// FCT of every generated flow in id order, unfinished flows at their
  /// time in system; run.py pools these over a run's inputs.
  std::vector<std::int64_t> fct_ns;
  std::uint64_t flows = 0;       ///< flows the round attempted
  std::uint64_t unfinished = 0;  ///< of those, flows that never completed
  /// FNV-1a of the simulated outputs (per-flow FCT records); equal digests
  /// mean byte-identical outputs.
  std::string digest;
  /// One line per failed correctness check; empty when the round is correct.
  std::vector<std::string> failures;
  /// Per-layer metrics by name: (value, unit).
  std::map<std::string, std::pair<double, std::string>> layers;
};

[[nodiscard]] RoundResult run_fattree_probe(const Options& opt);
[[nodiscard]] RoundResult run_leafspine_faults(const Options& opt);
[[nodiscard]] RoundResult run_engine_replay(const Options& opt);

[[nodiscard]] std::uint64_t fnv1a64(const std::string& s);
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace perfbench
