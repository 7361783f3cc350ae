// perfbench: runs one round of one workload in this process and prints
// its measurements as one JSON line. perfbench/run.py drives the rounds.
//
//   perfbench --workload <fattree-probe|leafspine-faults|engine-replay>
//             --seed <n> [--threads <n>] [--trace <spans.json>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using perfbench::RoundResult;

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

void print(const perfbench::Options& opt, const RoundResult& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%u,\"traced\":%s", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.threads, opt.trace_out.empty() ? "false" : "true");
  std::printf(",\"setup_s\":%.9g,\"wall_s\":%.9g,\"peak_rss_mib\":%.9g", r.setup_s, r.wall_s,
              r.peak_rss_mib);
  std::printf(",\"flows\":%llu,\"unfinished\":%llu", static_cast<unsigned long long>(r.flows),
              static_cast<unsigned long long>(r.unfinished));
  std::printf(",\"fct_ns\":[");
  for (std::size_t i = 0; i < r.fct_ns.size(); ++i)
    std::printf("%s%lld", i ? "," : "", static_cast<long long>(r.fct_ns[i]));
  std::printf("],\"digest\":\"%s\",\"failures\":[", r.digest.c_str());
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", escaped(r.failures[i]).c_str());
  std::printf("],\"layers\":{");
  bool first = true;
  for (const auto& [name, v] : r.layers) {
    std::printf("%s\"%s\":[%.17g,\"%s\"]", first ? "" : ",", name.c_str(), v.first,
                v.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fattree-probe|leafspine-faults|engine-replay> "
               "--seed <n> [--threads <n>] [--trace <spans.json>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--workload") == 0 && has_value) {
      opt.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--threads") == 0 && has_value) {
      opt.threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.threads == 0) opt.threads = 1;
  try {
    RoundResult r;
    if (opt.workload == "fattree-probe") {
      r = perfbench::run_fattree_probe(opt);
    } else if (opt.workload == "leafspine-faults") {
      r = perfbench::run_leafspine_faults(opt);
    } else if (opt.workload == "engine-replay") {
      r = perfbench::run_engine_replay(opt);
    } else {
      return usage();
    }
    print(opt, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
