// Text serialization in CAIDA's published dataset formats, so this library's
// outputs are drop-in compatible with tooling built around the AS Rank data:
//
//   .as-rel:    "<provider>|<customer>|-1", "<peer>|<peer>|0" (s2s = 2),
//               '#'-prefixed comment lines.
//   .ppdc-ases: "<as> <cone-member> <cone-member> ..." one AS per line,
//               members ascending, the AS itself among them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "asn/asn.h"
#include "topology/as_graph.h"
#include "util/result.h"

namespace asrank {

namespace topology {
class TopologyView;
}

/// Write the graph in .as-rel format (deterministic link order).  An
/// AsGraph is frozen first, so both overloads emit the same bytes for the
/// same graph.
void write_as_rel(const AsGraph& graph, std::ostream& os);
void write_as_rel(const topology::TopologyView& view, std::ostream& os);

/// Parse .as-rel text.  Strict: ASNs are plain decimal (no "AS" prefix or
/// asdot), relationship codes must be known, and duplicate links, self
/// links, and AS0 are rejected.  Every failure yields ErrorCode::kCorrupt
/// with context "line <n>: <what>".
[[nodiscard]] Result<AsGraph> try_read_as_rel(std::istream& is);

/// Throwing boundary wrapper over try_read_as_rel: Error ->
/// std::runtime_error carrying the identical "line <n>: ..." message.
[[nodiscard]] AsGraph read_as_rel(std::istream& is);

/// Customer cones as one CSR table, the layout of ASRK1's cone sections:
/// keys strictly ascending, keys+1 row offsets, one flat member array.  Each
/// row is strictly ascending and contains its key (CAIDA convention).
/// The table checks only key order; snapshot::build_snapshot checks rows.
class ConeMap {
 public:
  using value_type = std::pair<Asn, std::span<const Asn>>;
  /// Rows in key order, yielded as (AS, members) by value.
  struct const_iterator {
    const ConeMap* map;
    std::size_t index;
    value_type operator*() const { return {map->keys_[index], map->row(index)}; }
    const_iterator& operator++() noexcept { return ++index, *this; }
    bool operator==(const const_iterator&) const = default;
  };

  ConeMap() = default;
  /// Adopt a filled table: throws std::invalid_argument unless `keys` ascend
  /// and `offsets` steps from 0 to members.size() in keys.size()+1 entries.
  ConeMap(std::vector<Asn> keys, std::vector<std::uint64_t> offsets,
          std::vector<Asn> members);
  /// Append the row of `as`, which must exceed every key so far (throws
  /// std::invalid_argument otherwise).
  void append(Asn as, std::span<const Asn> members);

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool contains(Asn as) const noexcept {
    return std::binary_search(keys_.begin(), keys_.end(), as);
  }
  /// Members of `as`'s cone; throws std::out_of_range when it has no row.
  [[nodiscard]] std::span<const Asn> at(Asn as) const;
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size()}; }
  friend bool operator==(const ConeMap&, const ConeMap&) = default;

 private:
  [[nodiscard]] std::span<const Asn> row(std::size_t index) const noexcept {
    return std::span<const Asn>(members_).subspan(offsets_[index],
                                                  offsets_[index + 1] - offsets_[index]);
  }

  std::vector<Asn> keys_;
  std::vector<std::uint64_t> offsets_ = {0};
  std::vector<Asn> members_;
};

/// Write cones in .ppdc-ases format, one line per key in ascending order.
void write_ppdc(const ConeMap& cones, std::ostream& os);

/// Parse .ppdc-ases text.  Strict: plain decimal ASNs, members strictly
/// ascending and containing the AS itself, one line per AS, lines in any
/// key order.  Every failure yields ErrorCode::kCorrupt with context
/// "line <n>: <what>".
[[nodiscard]] Result<ConeMap> try_read_ppdc(std::istream& is);

/// Throwing boundary wrapper over try_read_ppdc: Error -> std::runtime_error
/// carrying the identical "line <n>: ..." message.
[[nodiscard]] ConeMap read_ppdc(std::istream& is);

}  // namespace asrank
