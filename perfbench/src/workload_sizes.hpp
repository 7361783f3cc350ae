// Stratified flow sizes. The generator's sizes are i.i.d. draws, so the
// total bytes of 1000 heavy-tailed flows swing by several percent from
// seed to seed, and with them every figure of the run. The benchmark keeps
// the generator's arrivals, endpoints and size *ranks*, and replaces the
// sizes by the distribution's quantiles at (j + 0.5) / n: the j-th
// smallest flow gets the j-th quantile. The size distribution is then
// exactly the workload's CDF on every seed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "hermes/transport/flow.hpp"
#include "hermes/workload/size_dist.hpp"

namespace perfbench {

/// Inverse of the piecewise-linear CDF (as SizeDist::sample interpolates).
[[nodiscard]] inline std::uint64_t size_quantile(const hermes::workload::SizeDist& dist,
                                                 double u) {
  const auto& pts = dist.points();
  auto it = std::lower_bound(pts.begin(), pts.end(), u,
                             [](const auto& p, double v) { return p.second < v; });
  if (it == pts.begin()) return static_cast<std::uint64_t>(std::max(1.0, it->first));
  if (it == pts.end()) return static_cast<std::uint64_t>(pts.back().first);
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double span = hi.second - lo.second;
  const double frac = span > 0 ? (u - lo.second) / span : 1.0;
  return static_cast<std::uint64_t>(std::max(1.0, lo.first + frac * (hi.first - lo.first)));
}

inline void stratify_sizes(std::vector<hermes::transport::FlowSpec>& flows,
                           const hermes::workload::SizeDist& dist) {
  std::vector<std::size_t> rank(flows.size());
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  std::stable_sort(rank.begin(), rank.end(),
                   [&](std::size_t a, std::size_t b) { return flows[a].size < flows[b].size; });
  const double n = static_cast<double>(flows.size());
  for (std::size_t j = 0; j < rank.size(); ++j)
    flows[rank[j]].size = size_quantile(dist, (static_cast<double>(j) + 0.5) / n);
}

}  // namespace perfbench
