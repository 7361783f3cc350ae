// Spans for the traced mode. Phase spans (set-up steps, the run) are kept
// whole; per-call spans (balancer calls, probe replies, engine calls) are
// aggregated into CallStats and sampled, one in kSampleEvery, so memory
// stays bounded. Everything stays in memory until write().
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since process start
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing phase span, -1 = root
};

/// Aggregate of one kind of per-call span on one thread. Not shared
/// between threads: the sharded run gives every shard its own.
class CallStats {
 public:
  static constexpr std::uint64_t kSampleEvery = 1024;
  static constexpr std::size_t kMaxSamples = 4096;

  CallStats(const char* name, int parent) : name_{name}, parent_{parent} {
    samples_.reserve(kMaxSamples);
  }

  void add(Clock::time_point t0, Clock::time_point t1, std::uint64_t allocs = 0) {
    const std::int64_t ns = ns_between(t0, t1);
    if (calls_ % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
      const std::int64_t start = ns_between(process_start(), t0);
      samples_.push_back(Span{name_, start, start + ns, parent_});
    }
    ++calls_;
    total_ns_ += static_cast<std::uint64_t>(ns);
    allocs_ += allocs;
  }
  void merge(const CallStats& o) {
    calls_ += o.calls_;
    total_ns_ += o.total_ns_;
    allocs_ += o.allocs_;
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
  }

  void set_parent(int parent) { parent_ = parent; }
  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_; }
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }
  [[nodiscard]] double mean_ns() const {
    return calls_ == 0 ? 0.0 : static_cast<double>(total_ns_) / static_cast<double>(calls_);
  }
  [[nodiscard]] const std::vector<Span>& samples() const { return samples_; }

 private:
  const char* name_;
  int parent_;
  std::uint64_t calls_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t allocs_ = 0;
  std::vector<Span> samples_;
};

/// Mean host time of one traced call net of the timing itself: the cost
/// of an empty timed region (two clock reads), measured once per process,
/// is subtracted from the per-call mean.
[[nodiscard]] double net_mean_ns(const CallStats& calls);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}
  // Callers keep pointers to the CallStats it owns.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a phase span; returns its index (-1 when tracing is off).
  int begin(const char* name, int parent = -1);
  void end(int span);
  /// Per-call aggregate, owned by the tracer (stable address).
  CallStats& calls(const char* name, int parent);

  /// Write every span as JSON: {"spans":[...],"calls":[...]}. Sampled
  /// per-call spans are listed under "spans" with their parent.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::deque<CallStats> calls_;
};

}  // namespace perfbench
