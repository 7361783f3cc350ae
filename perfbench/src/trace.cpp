#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

double timer_overhead_ns() {
  CallStats empty{"calibration", -1};
  for (int i = 0; i < 200000; ++i) {
    const Clock::time_point t0 = Clock::now();
    empty.add(t0, Clock::now());
  }
  return empty.mean_ns();
}

}  // namespace

double net_mean_ns(const CallStats& calls) {
  static const double overhead = timer_overhead_ns();
  return calls.calls() == 0 ? 0.0 : std::max(0.0, calls.mean_ns() - overhead);
}

int Tracer::begin(const char* name, int parent) {
  if (!enabled_) return -1;
  const std::int64_t now = ns_between(process_start(), Clock::now());
  spans_.push_back(Span{name, now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = ns_between(process_start(), Clock::now());
}

CallStats& Tracer::calls(const char* name, int parent) { return calls_.emplace_back(name, parent); }

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[");
  bool first = true;
  const auto put = [&](const Span& s) {
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}",
                 first ? "" : ",", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
    first = false;
  };
  for (const Span& s : spans_) put(s);
  for (const CallStats& c : calls_)
    for (const Span& s : c.samples()) put(s);
  std::fprintf(f, "\n],\"calls\":[");
  first = true;
  for (const CallStats& c : calls_) {
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"calls\":%llu,\"total_ns\":%llu,\"allocs\":%llu}",
                 first ? "" : ",", c.name(), static_cast<unsigned long long>(c.calls()),
                 static_cast<unsigned long long>(c.total_ns()),
                 static_cast<unsigned long long>(c.allocs()));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
