#include "core/ranking.h"

#include <algorithm>

namespace asrank::core {

std::vector<RankEntry> rank_by_cone(const ConeMap& cones, const Degrees& degrees) {
  std::vector<RankEntry> entries;
  entries.reserve(cones.size());
  for (const auto& [as, members] : cones) {
    entries.push_back({0, as, members.size(), degrees.transit_degree(as)});
  }
  std::sort(entries.begin(), entries.end(), [](const RankEntry& a, const RankEntry& b) {
    if (a.cone_size != b.cone_size) return a.cone_size > b.cone_size;
    if (a.transit_degree != b.transit_degree) return a.transit_degree > b.transit_degree;
    return a.as < b.as;
  });
  for (std::size_t i = 0; i < entries.size(); ++i) entries[i].rank = i + 1;
  return entries;
}

std::vector<RankEntry> top_n(const ConeMap& cones, const Degrees& degrees, std::size_t n) {
  auto entries = rank_by_cone(cones, degrees);
  if (entries.size() > n) entries.resize(n);
  return entries;
}

}  // namespace asrank::core
