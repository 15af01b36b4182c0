// Path corpus: the normalized input to every inference algorithm.
//
// A record is one (vantage point, prefix, AS path) row, exactly what a
// collector RIB provides after per-peer best-path extraction.  The corpus is
// format-agnostic: rows can come from the BGP simulator, an MRT dump, or a
// text table — anything with vp/prefix/path fields.  Each record owns its
// path by value: an AsPath holds up to six hops inline (asn/as_path.h), so
// most records need no allocation of their own.  A record is 56 bytes with
// no padding (a 4 B vp, a 20 B prefix, a 32 B path), and so is the
// bgpsim::ObservedRoute it is usually copied from.  The inference stages
// instead read a paths::PathArena (paths/arena.h), which stores each
// distinct path once in NodeId space.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "asn/asn.h"
#include "asn/as_path.h"
#include "asn/prefix.h"

namespace asrank::paths {

struct PathRecord {
  Asn vp;
  Prefix prefix;
  AsPath path;

  friend bool operator==(const PathRecord&, const PathRecord&) = default;
};
static_assert(sizeof(PathRecord) == 56, "a 4 B vp, a 20 B prefix and a 32 B path, unpadded");

class PathCorpus {
 public:
  PathCorpus() = default;

  void add(Asn vp, const Prefix& prefix, AsPath path) {
    records_.emplace_back(vp, prefix, std::move(path));
  }
  void add(PathRecord record) { records_.push_back(std::move(record)); }
  void reserve(std::size_t records) { records_.reserve(records); }

  /// Build from any range of records exposing .vp/.prefix/.path (e.g.
  /// bgpsim::ObservedRoute) without coupling this module to their types.
  template <typename Range>
  [[nodiscard]] static PathCorpus from_records(const Range& range) {
    PathCorpus corpus;
    corpus.reserve(std::size(range));
    for (const auto& record : range) {
      corpus.records_.emplace_back(record.vp, record.prefix, record.path);
    }
    return corpus;
  }

  [[nodiscard]] std::span<const PathRecord> records() const noexcept { return records_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// Distinct vantage points present.
  [[nodiscard]] std::vector<Asn> vantage_points() const;

  /// Distinct ASes appearing anywhere in paths.
  [[nodiscard]] std::vector<Asn> ases() const;

  /// Distinct prefixes.
  [[nodiscard]] std::size_t prefix_count() const;

  /// Count of observations per adjacent AS pair, keyed by the
  /// order-independent link key (see key()).
  [[nodiscard]] std::unordered_map<std::uint64_t, std::size_t> link_observations() const;

  /// Normalized key for an unordered AS pair, matching AsGraph::link_key.
  [[nodiscard]] static std::uint64_t key(Asn a, Asn b) noexcept;

 private:
  std::vector<PathRecord> records_;
};

}  // namespace asrank::paths
