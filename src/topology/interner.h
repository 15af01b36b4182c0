// Dense ASN id space.
//
// Every hot layer of the library — staged inference, cone closure, the
// baselines, snapshot construction, and query serving — is dominated by
// per-AS lookups.  Raw 32-bit ASNs are sparse (a corpus of 50k ASes spans
// ids up to 2^32), so keying working state by Asn forces hash tables into
// every inner loop.  The AsnInterner maps the ASes that actually occur in a
// corpus or graph onto a dense, contiguous `NodeId` range [0, size()), so
// per-AS state becomes a flat array and adjacency becomes CSR
// (topology::TopologyView).
//
// The mapping is *deterministic and order-preserving*: NodeIds are assigned
// in ascending ASN order, so id comparisons equal ASN comparisons, sorted
// NodeId sequences translate to sorted ASN sequences without re-sorting, and
// the id space coincides with the node order of the ASRK1 snapshot format
// (whose AS table is also sorted ascending).  Two interners built from the
// same AS set are identical.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "asn/asn.h"

namespace asrank::topology {

/// Dense node index assigned by an AsnInterner.  32 bits: the public
/// Internet has < 2^17 ASes and every realistic corpus far fewer.
using NodeId = std::uint32_t;

/// Sentinel for "no node" (Asn not interned / BFS parent of a root).
inline constexpr NodeId kNoNode = 0xffffffffu;

class AsnInterner {
 public:
  AsnInterner() = default;

  /// Build from any list of ASNs (duplicates fine, order irrelevant).
  /// Invalid AS0 entries are ignored.
  [[nodiscard]] static AsnInterner from_asns(std::vector<Asn> asns) {
    std::sort(asns.begin(), asns.end());
    asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
    if (!asns.empty() && !asns.front().valid()) asns.erase(asns.begin());
    return AsnInterner(std::move(asns));
  }

  /// Build from an already sorted, strictly ascending, AS0-free list (e.g.
  /// AsGraph::ases() or a snapshot AS table).  Cheapest constructor; the
  /// precondition is the caller's to uphold (checked in debug builds only).
  [[nodiscard]] static AsnInterner from_sorted_unique(std::vector<Asn> asns) {
    return AsnInterner(std::move(asns));
  }

  [[nodiscard]] std::size_t size() const noexcept { return asns_.size(); }
  [[nodiscard]] bool empty() const noexcept { return asns_.empty(); }

  /// All interned ASNs ascending; the vector index *is* the NodeId.
  [[nodiscard]] std::span<const Asn> asns() const noexcept { return asns_; }

  /// Dense id of `as`, or kNoNode when not interned.  O(log n) on a flat
  /// sorted array — no hashing, no pointer chasing.
  [[nodiscard]] NodeId id_of(Asn as) const noexcept {
    const auto it = std::lower_bound(asns_.begin(), asns_.end(), as);
    if (it == asns_.end() || *it != as) return kNoNode;
    return static_cast<NodeId>(it - asns_.begin());
  }

  [[nodiscard]] bool contains(Asn as) const noexcept { return id_of(as) != kNoNode; }

  /// Inverse mapping; `id` must be < size().
  [[nodiscard]] Asn asn_of(NodeId id) const noexcept { return asns_[id]; }

  /// Translate a hop sequence; unknown ASes become kNoNode.
  void translate(std::span<const Asn> hops, std::vector<NodeId>& out) const {
    out.clear();
    out.reserve(hops.size());
    for (const Asn as : hops) out.push_back(id_of(as));
  }

  /// The id in `other` of each ASN here, indexed by this interner's ids
  /// (kNoNode where `other` lacks it).  Both ascend by ASN, so one merge
  /// walk pairs them.
  [[nodiscard]] std::vector<NodeId> ids_in(const AsnInterner& other) const {
    const auto to = other.asns();
    std::vector<NodeId> out(asns_.size(), kNoNode);
    for (std::size_t i = 0, j = 0; i < asns_.size(); ++i) {
      while (j < to.size() && to[j] < asns_[i]) ++j;
      if (j < to.size() && to[j] == asns_[i]) out[i] = static_cast<NodeId>(j);
    }
    return out;
  }

  friend bool operator==(const AsnInterner&, const AsnInterner&) = default;

 private:
  explicit AsnInterner(std::vector<Asn> sorted) : asns_(std::move(sorted)) {}

  std::vector<Asn> asns_;  ///< strictly ascending; index = NodeId
};

/// ASN -> dense first-seen id, open addressing with doubling.  A slot holds
/// the (ASN, id) pair and the slot index is a multiplicative hash, so a hit
/// reads one slot and nothing else.  Interning a hop sequence through it
/// touches each distinct ASN once instead of sorting every hop; renumber()
/// then moves the ids to the sorted AsnInterner order.  AS0 is never
/// interned: id() and find() give kNoNode for it.  find() is const and may
/// run on many threads at once; id() and renumber() may not.
class FirstSeenIds {
 public:
  FirstSeenIds() { rehash(1024); }

  /// The id of `as`, assigned now if `as` is new.
  NodeId id(Asn as) {
    if (!as.valid()) return kNoNode;
    for (std::size_t i = slot_of(as);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].id == kNoNode) return insert(as);
      if (slots_[i].asn == as) return slots_[i].id;
    }
  }

  /// The id of `as`, or kNoNode if it was never seen.
  [[nodiscard]] NodeId find(Asn as) const noexcept {
    for (std::size_t i = slot_of(as);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].id == kNoNode || slots_[i].asn == as) return slots_[i].id;
    }
  }

  /// Every ASN seen, indexed by first-seen id.
  [[nodiscard]] const std::vector<Asn>& asns() const noexcept { return asns_; }

  /// Replace every id by `interner`'s id of the same ASN (the interner must
  /// hold every ASN interned), so find() answers in the interner's id space.
  /// Returns the first-seen id -> interner id map.  Call id() no more.
  std::vector<NodeId> renumber(const AsnInterner& interner) {
    std::vector<NodeId> node_of(asns_.size());
    for (std::size_t i = 0; i < node_of.size(); ++i) node_of[i] = interner.id_of(asns_[i]);
    for (Slot& slot : slots_) {
      if (slot.id != kNoNode) slot.id = node_of[slot.id];
    }
    return node_of;
  }

 private:
  struct Slot {
    Asn asn;
    NodeId id = kNoNode;
  };

  [[nodiscard]] std::size_t slot_of(Asn as) const noexcept {
    return (as.value() * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  NodeId insert(Asn as) {
    if (2 * (asns_.size() + 1) > slots_.size()) rehash(2 * slots_.size());
    const auto id = static_cast<NodeId>(asns_.size());
    asns_.push_back(as);
    place({as, id});
    return id;
  }

  void place(Slot entry) noexcept {
    std::size_t i = slot_of(entry.asn);
    while (slots_[i].id != kNoNode) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = entry;
  }

  void rehash(std::size_t slots) {
    slots_.assign(slots, Slot{});
    shift_ = 64 - std::countr_zero(slots);
    for (NodeId id = 0; id < asns_.size(); ++id) place({asns_[id], id});
  }

  std::vector<Slot> slots_;
  int shift_ = 0;
  std::vector<Asn> asns_;
};

}  // namespace asrank::topology
