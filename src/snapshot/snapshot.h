// Versioned, checksummed binary snapshot of one inference run.
//
// A snapshot freezes the batch pipeline's outputs — annotated links, transit
// degrees, AS ranks, the clique, and flattened customer cones — into a
// single read-optimized artifact ("ASRK1", see format.h) that loads in one
// pass and answers lookups at interactive latency.  This is the substrate
// the serving layer (src/serve) and every future scaling direction
// (sharding, replication, multi-snapshot evolution queries) builds on.
//
// Design:
//   * CSR-style adjacency: one offsets array plus flat neighbour/relation
//     arrays, neighbours sorted per row, so a relationship lookup is a
//     binary search and neighbour-set queries are contiguous scans.
//   * Cones flattened the same way: offset+span into one sorted member
//     array; membership tests are O(log |cone|).
//   * Byte-for-byte deterministic: identical inputs produce identical files
//     (no timestamps, no pointers, fixed little-endian widths).
//   * Fail-loud: every section is CRC-checked and every structural
//     invariant re-validated on read, so corrupt or truncated files raise
//     SnapshotError instead of serving wrong answers.
//   * One loader, one representation: every index is a set of std::span
//     views into one little-endian ASRK1 byte image — an mmap'd file
//     (map_file) or an owned 8-byte-aligned buffer (stream reads, the
//     builder, combine_snapshots) — so the accessors cannot tell where the
//     bytes came from, and N processes mapping one snapshot share a single
//     page-cache copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asn/asn.h"
#include "core/degrees.h"
#include "snapshot/format.h"
#include "topology/as_graph.h"
#include "topology/serialization.h"
#include "topology/topology_view.h"
#include "util/mmap_file.h"
#include "util/result.h"

namespace asrank::snapshot {

struct ContainerView;  // snapshot.cpp: one parsed ASRK1 section table

/// One row of the frozen ranking (mirrors core::RankEntry).
struct TopEntry {
  std::uint32_t rank = 0;  ///< 1-based
  Asn as;
  std::size_t cone_size = 0;
  std::size_t transit_degree = 0;

  friend bool operator==(const TopEntry&, const TopEntry&) = default;
};

/// Sentinel in neighbor_ids() rows for a neighbour ASN that resolves to no
/// dense id.  Unreachable through files the writer produced (the id
/// translation is total there); it exists so a crafted CRC-valid file can
/// never make the lazily-derived id arrays index out of bounds.
inline constexpr std::uint32_t kNoNeighborId = 0xffffffffu;

/// Immutable read-optimized view over one frozen inference run.  All
/// accessors are const and safe to call concurrently.  Move-only (it owns
/// its derived tables and extra slots); share one through std::shared_ptr.
class SnapshotIndex {
 public:
  SnapshotIndex() = default;
  SnapshotIndex(const SnapshotIndex&) = delete;
  SnapshotIndex& operator=(const SnapshotIndex&) = delete;
  SnapshotIndex(SnapshotIndex&&) noexcept = default;
  SnapshotIndex& operator=(SnapshotIndex&&) noexcept = default;

  /// Zero-copy load: mmap `path` and serve every section straight from the
  /// mapping.  Container integrity is fully checked (magic, version, file
  /// size, header and per-section CRCs, bounds, alignment) plus the O(n)
  /// structural invariants (sorted AS table, offset-table shape, rank
  /// uniqueness, clique validity); the O(links)+O(cone) deep invariants are
  /// attested by the section CRCs and re-checked only by the full-depth
  /// loads (try_read_snapshot, build_snapshot).  On a big-endian host the
  /// loader serves a byte-swapped copy of the mapped image instead.
  [[nodiscard]] static Result<SnapshotIndex> map_file(const std::string& path);

  /// True when the section spans point into an mmap'd file.
  [[nodiscard]] bool mmap_backed() const noexcept;

  [[nodiscard]] std::size_t as_count() const noexcept { return asns_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return link_count_; }
  [[nodiscard]] bool has_as(Asn as) const noexcept { return id_of(as).has_value(); }

  /// All ASes, sorted ascending.
  [[nodiscard]] std::span<const Asn> ases() const noexcept { return asns_; }

  /// Relationship of `neighbor` from `as`'s perspective (O(log degree)).
  [[nodiscard]] std::optional<RelView> relationship(Asn as, Asn neighbor) const noexcept;

  /// All neighbours of `as`, sorted ascending (empty span if unknown).
  [[nodiscard]] std::span<const Asn> neighbors(Asn as) const noexcept;

  [[nodiscard]] std::vector<Asn> providers(Asn as) const { return filter(as, RelView::kProvider); }
  [[nodiscard]] std::vector<Asn> customers(Asn as) const { return filter(as, RelView::kCustomer); }
  [[nodiscard]] std::vector<Asn> peers(Asn as) const { return filter(as, RelView::kPeer); }
  [[nodiscard]] std::vector<Asn> siblings(Asn as) const { return filter(as, RelView::kSibling); }

  /// 1-based rank, or nullopt for ASes the ranking did not cover.
  [[nodiscard]] std::optional<std::uint32_t> rank(Asn as) const noexcept;

  /// The AS holding 1-based rank `rank`, if any.
  [[nodiscard]] std::optional<Asn> as_at_rank(std::uint32_t rank) const noexcept;

  /// Top `n` entries in rank order.
  [[nodiscard]] std::vector<TopEntry> top(std::size_t n) const;

  /// Customer cone members (sorted ascending; empty if unknown/uncovered).
  [[nodiscard]] std::span<const Asn> cone(Asn as) const noexcept;
  [[nodiscard]] std::size_t cone_size(Asn as) const noexcept { return cone(as).size(); }

  /// O(log |cone|) membership test.
  [[nodiscard]] bool in_cone(Asn as, Asn member) const noexcept;

  [[nodiscard]] std::uint32_t transit_degree(Asn as) const noexcept;

  /// Clique members, sorted ascending.
  [[nodiscard]] std::span<const Asn> clique() const noexcept { return clique_; }

  // Flat-section accessors (the exact serialized layout): the substrate for
  // derived representations built outside this class, e.g. the serving
  // layer's core::ConeBitset.
  [[nodiscard]] std::span<const std::uint64_t> cone_offsets() const noexcept {
    return cone_off_;
  }
  [[nodiscard]] std::span<const Asn> cone_members() const noexcept { return cone_mem_; }

  // Dense-id accessors.  The node id space is the row index of the sorted AS
  // table — identical to the topology::AsnInterner id space of the view the
  // snapshot was built from.  The id-keyed adjacency and clique structures
  // are derived on load (never serialized); kMapped-depth indexes (mapped
  // and combined) defer the O(links · log n) neighbour-id translation until
  // the first caller needs it, so mapping stays CRC-bound.

  /// Dense id of `as` (row in the sorted AS table), or nullopt if unknown.
  [[nodiscard]] std::optional<std::uint32_t> node_id(Asn as) const noexcept {
    return id_of(as);
  }
  /// ASN at dense id `id` (must be < as_count()).
  [[nodiscard]] Asn asn_at(std::uint32_t id) const noexcept { return asns_[id]; }
  /// Neighbor ids of `id`, ascending (≡ ascending ASN).  Derived lazily and
  /// thread-safely on first use for kMapped-depth indexes.
  [[nodiscard]] std::span<const std::uint32_t> neighbor_ids(std::uint32_t id) const;
  /// RelView codes parallel to neighbor_ids(id).
  [[nodiscard]] std::span<const std::uint8_t> relationship_codes(std::uint32_t id) const noexcept;
  /// O(1) bitmap test; `id` must be < as_count().
  [[nodiscard]] bool id_in_clique(std::uint32_t id) const noexcept {
    return (clique_bits_[id >> 6] >> (id & 63)) & 1ULL;
  }

  // Multi-algorithm access.  One index can carry the full section set once
  // per inference algorithm (see format.h); slot 0 is the primary and is
  // served by this object's own accessors, so single-algorithm callers never
  // notice the machinery.  Files without a directory section load as
  // {"asrank"}.

  /// Number of algorithm section sets (>= 1).
  [[nodiscard]] std::size_t algorithm_count() const noexcept {
    return 1 + extras_.size();
  }
  /// Algorithm names in slot order; [0] names the primary.
  [[nodiscard]] std::span<const std::string> algorithm_names() const noexcept {
    return algo_names_;
  }
  /// Slot of `name`, nullopt when this snapshot does not carry it.
  [[nodiscard]] std::optional<std::size_t> algorithm_slot(
      std::string_view name) const noexcept;
  /// The index for slot `slot` (0 returns *this); `slot` must be
  /// < algorithm_count().  Extra slots are self-contained indexes over
  /// this object's image, validated to the same depth as slot 0.
  [[nodiscard]] const SnapshotIndex& algorithm_at(std::size_t slot) const noexcept {
    return slot == 0 ? *this : *extras_[slot - 1];
  }

 private:
  friend SnapshotIndex build_snapshot(const topology::TopologyView&,
                                      std::span<const std::uint32_t>, const ConeMap&,
                                      std::span<const Asn>);
  friend Result<SnapshotIndex> try_read_snapshot(std::istream&);
  friend Result<void> try_write_snapshot(const SnapshotIndex&, std::ostream&);
  friend Result<SnapshotIndex> combine_snapshots(
      std::vector<std::pair<std::string, SnapshotIndex>> parts);

  /// How much of the structure finalize_and_validate() re-checks.  kFull
  /// checks every per-link and per-cone-member invariant, in one pass with
  /// hashed table lookups and per-row cursors.  kMapped trusts the section
  /// CRCs for those O(links)+O(cone) properties and only runs the O(n)
  /// table checks required for memory-safe accessors.
  enum class Validation { kFull, kMapped };

  /// The bytes every section span points into: a read-only file mapping or
  /// an owned 8-byte-aligned buffer (snapshot.cpp).
  struct Image;

  /// neighbor_ids() backing store, derived on first use (std::once_flag is
  /// immovable, so it lives behind a pointer to keep the index movable).
  struct LazyNeighborIds {
    std::once_flag once;
    std::vector<std::uint32_t> ids;
  };

  [[nodiscard]] std::optional<std::uint32_t> id_of(Asn as) const noexcept;
  [[nodiscard]] std::vector<Asn> filter(Asn as, RelView want) const;

  /// The adj_nbr_ → dense-id translation, built once on demand.
  [[nodiscard]] const std::vector<std::uint32_t>& dense_neighbor_ids() const;

  /// Lay out `slots`' sections (slot s from slots[s]'s spans) and, when the
  /// file deviates from the plain single-"asrank" layout, the directory
  /// naming them, into one owned ASRK1 image.  The only writer.
  [[nodiscard]] static std::shared_ptr<Image> encode_image(
      std::span<const SnapshotIndex* const> slots,
      std::span<const std::string> names);

  /// The only loader: parse the container, view every algorithm slot's
  /// sections in place (map_sections), and validate each to `depth`.
  [[nodiscard]] static Result<SnapshotIndex> load(std::shared_ptr<const Image> image,
                                                  Validation depth);
  /// View algorithm slot `slot`'s nine sections in place (`image` keeps the
  /// spans alive) + finalize_and_validate(depth).
  [[nodiscard]] static Result<SnapshotIndex> map_sections(
      const ContainerView& container, std::size_t slot,
      std::shared_ptr<const Image> image, Validation depth);

  /// Re-derive by_rank_/link_count_/clique_bits_ and check structural
  /// invariants per `depth`; the Error names the violated invariant
  /// (ErrorCode::kCorrupt).  Every index passes through here, so
  /// corrupt-but-CRC-valid data fails loudly.
  [[nodiscard]] Result<void> finalize_and_validate(Validation depth);

  std::shared_ptr<const Image> image_;  ///< keeps the spans alive

  // Section views into image_; every accessor reads these.
  std::span<const Asn> asns_;                ///< sorted ascending; index = id
  std::span<const std::uint64_t> adj_off_;   ///< n+1
  std::span<const Asn> adj_nbr_;             ///< sorted ascending per row
  std::span<const std::uint8_t> adj_rel_;    ///< RelView codes, parallel to adj_nbr_
  std::span<const std::uint64_t> cone_off_;  ///< n+1
  std::span<const Asn> cone_mem_;            ///< sorted ascending per row
  std::span<const std::uint32_t> rank_;      ///< 1-based; 0 = unranked
  std::span<const std::uint32_t> tdeg_;
  std::span<const Asn> clique_;              ///< sorted ascending

  // Derived (not serialized).
  std::vector<std::uint32_t> by_rank_;     ///< by_rank_[r-1] = id with rank r
  std::vector<std::uint64_t> clique_bits_; ///< ceil(n/64) membership words
  std::size_t link_count_ = 0;
  std::unique_ptr<LazyNeighborIds> nbr_ids_ = std::make_unique<LazyNeighborIds>();

  // Multi-algorithm state.  algo_names_[0] names this index's own sections;
  // extras_[s-1] is slot s.  Extra indexes never nest further.
  std::vector<std::string> algo_names_ = {"asrank"};
  std::vector<std::unique_ptr<SnapshotIndex>> extras_;
};

/// Freeze one inference run from a TopologyView (an InferenceResult's
/// graph is one).  The view's CSR layout coincides with the ASRK1 section
/// layout (sorted AS table, id-ascending rows ≡ ASN-ascending rows, RelView
/// codes), so the adjacency sections are bulk copies plus one id→ASN
/// translation pass.  `transit_degrees` holds one entry per view node; every
/// cone key and clique member must be a node of `view`, and every cone must
/// contain its own AS — violations throw SnapshotError.
[[nodiscard]] SnapshotIndex build_snapshot(const topology::TopologyView& view,
                                           std::span<const std::uint32_t> transit_degrees,
                                           const ConeMap& cones,
                                           std::span<const Asn> clique);

/// Same, with transit degrees by ASN; the map may omit ASes (treated as 0).
[[nodiscard]] SnapshotIndex build_snapshot(
    const topology::TopologyView& view,
    const std::unordered_map<Asn, std::size_t>& transit_degrees,
    const ConeMap& cones, std::span<const Asn> clique);

/// Same, with transit degrees from a Degrees tally (0 for ASes it lacks).
[[nodiscard]] SnapshotIndex build_snapshot(const topology::TopologyView& view,
                                           const core::Degrees& degrees,
                                           const ConeMap& cones,
                                           std::span<const Asn> clique);

/// Convenience overload that freezes `graph` first (ground-truth graphs).
[[nodiscard]] SnapshotIndex build_snapshot(
    const AsGraph& graph, const std::unordered_map<Asn, std::size_t>& transit_degrees,
    const ConeMap& cones, const std::vector<Asn>& clique);

/// Merge per-algorithm indexes into one multi-algorithm index: parts[0]
/// becomes the primary (slot 0, served by the merged index's own
/// accessors), the rest become extra slots in order.  Each part must be
/// single-algorithm (kInvalidArgument otherwise); names must be unique,
/// 1..64 chars of [A-Za-z0-9._:-], and at most kMaxAlgorithms parts.  The
/// slots stay fully independent — AS tables, cones, and ranks may differ
/// per algorithm.  A one-part combine with name "asrank" round-trips
/// byte-identically to the plain single-algorithm writer.
[[nodiscard]] Result<SnapshotIndex> combine_snapshots(
    std::vector<std::pair<std::string, SnapshotIndex>> parts);

/// Serialize in ASRK1 format.  Deterministic: equal indexes produce
/// byte-identical output.  Fails with ErrorCode::kIo when the stream write
/// fails; never leaves `os` half-written short of that.
[[nodiscard]] Result<void> try_write_snapshot(const SnapshotIndex& index,
                                              std::ostream& os);

/// Parse and fully validate an ASRK1 stream.  Fails (kTruncated / kCorrupt /
/// kUnsupported / kNotFound, context naming the exact defect) on bad magic,
/// unsupported version, truncation, CRC mismatch, or any structural
/// inconsistency; never returns a partially-initialized index.
[[nodiscard]] Result<SnapshotIndex> try_read_snapshot(std::istream& is);

/// Throwing boundary wrapper over try_write_snapshot: Error → SnapshotError
/// with the identical message.
void write_snapshot(const SnapshotIndex& index, std::ostream& os);

/// Throwing boundary wrapper over try_read_snapshot: Error → SnapshotError
/// with the identical message.
[[nodiscard]] SnapshotIndex read_snapshot(std::istream& is);

/// File-path conveniences (binary mode; read slurps the whole file).
void write_snapshot_file(const SnapshotIndex& index, const std::string& path);
[[nodiscard]] SnapshotIndex read_snapshot_file(const std::string& path);

/// Result-rail variant of read_snapshot_file: kNotFound when the file cannot
/// be opened, otherwise the try_read_snapshot error class.  This is the
/// hot-reload entry point — a failed load must not throw across the serving
/// layer.
[[nodiscard]] Result<SnapshotIndex> try_read_snapshot_file(const std::string& path);

/// Zero-copy counterpart of try_read_snapshot_file: SnapshotIndex::map_file
/// on the Result rail, same error classes.  The serving layer's default
/// load path.
[[nodiscard]] Result<SnapshotIndex> try_map_snapshot_file(const std::string& path);

}  // namespace asrank::snapshot
