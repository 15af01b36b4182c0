#include "paths/arena.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/hash.h"

namespace asrank::paths {

namespace {

using topology::NodeId;

/// How many entries ahead a pass prefetches the hash slot it will probe.
constexpr std::size_t kAhead = 16;

constexpr std::uint32_t asn_word(Asn as) noexcept { return as.value(); }

/// ASN -> dense first-seen id, open addressing with doubling.  A slot holds
/// the (ASN, id) pair and the slot index is a multiplicative hash, so a hit
/// reads one slot and nothing else.  Interning through it touches each
/// distinct ASN once, instead of sorting every hop.
class FirstSeenIds {
 public:
  FirstSeenIds() { rehash(1024); }

  std::uint32_t id(Asn as) {
    for (std::size_t i = slot_of(as);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].id == kEmpty) return insert(as);
      if (slots_[i].asn == as) return slots_[i].id;
    }
  }

  /// Every ASN seen, indexed by id.
  [[nodiscard]] const std::vector<Asn>& asns() const noexcept { return asns_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  struct Slot {
    Asn asn;
    std::uint32_t id = kEmpty;
  };

  [[nodiscard]] std::size_t slot_of(Asn as) const noexcept {
    return (as.value() * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  std::uint32_t insert(Asn as) {
    if (2 * (asns_.size() + 1) > slots_.size()) rehash(2 * slots_.size());
    const auto id = static_cast<std::uint32_t>(asns_.size());
    asns_.push_back(as);
    place({as, id});
    return id;
  }

  void place(Slot entry) noexcept {
    std::size_t i = slot_of(entry.asn);
    while (slots_[i].id != kEmpty) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = entry;
  }

  void rehash(std::size_t slots) {
    slots_.assign(slots, Slot{});
    shift_ = 64 - std::countr_zero(slots);
    for (std::uint32_t id = 0; id < asns_.size(); ++id) place({asns_[id], id});
  }

  std::vector<Slot> slots_;
  int shift_ = 0;
  std::vector<Asn> asns_;
};

}  // namespace

PathArena PathArena::build(const PathCorpus& input, const SanitizerConfig& config) {
  PathArena arena;
  SanitizeStats& stats = arena.stats_;
  const auto records = input.records();
  stats.input_records = records.size();

  // Pass 1: hash every record's hops (and, for dedup, its vp and prefix),
  // then map each record to its distinct raw path.  A raw path is its first
  // record: later records compare their hops in place against that
  // record's, and nothing is copied.
  std::vector<std::uint64_t> hash(records.size());
  std::vector<std::uint64_t> row(config.dedup ? records.size() : 0);
  for (std::size_t r = 0; r < records.size(); ++r) {
    const PathRecord& record = records[r];
    hash[r] = util::hash_words(record.path.hops(), asn_word);
    if (config.dedup) {
      row[r] = util::mix64(std::hash<Prefix>{}(record.prefix), record.vp.value());
    }
  }
  struct RawPath {
    std::uint32_t first = 0;  ///< the first record carrying it
    std::uint32_t count = 0;  ///< records carrying it
  };
  std::vector<std::uint32_t> raw_of(records.size());
  std::vector<RawPath> raws;
  raws.reserve(records.size());
  std::size_t raw_hops = 0;
  {
    util::HashIndex raw_index(records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (r + kAhead < records.size()) raw_index.prefetch(hash[r + kAhead]);
      const auto raw = records[r].path.hops();
      const auto fresh = static_cast<std::uint32_t>(raws.size());
      const std::uint32_t k = raw_index.find_or_insert(hash[r], fresh, [&](std::uint32_t id) {
        return std::ranges::equal(raw, records[raws[id].first].path.hops());
      });
      if (k == fresh) {
        raws.push_back({static_cast<std::uint32_t>(r), 0});
        raw_hops += raw.size();
      }
      ++raws[k].count;
      raw_of[r] = k;
    }
  }

  // Pass 2: sanitize each distinct raw path once and add its counters,
  // weighted by the records that carry it.  Raw ids follow first
  // occurrence, so kept paths get ids in first-occurrence order too.  A
  // path the stages left as it was keeps its raw hash.
  constexpr std::uint32_t kDropped = 0xffffffffu;
  const bool strip_ixp = config.strip_ixp_asns && !config.ixp_asns.empty();
  FirstSeenIds first_seen;
  std::vector<NodeId>& flat = arena.hops_;  // first-seen ids until interned
  flat.reserve(raw_hops);
  arena.offsets_.reserve(raws.size() + 1);
  std::vector<Asn> hops;
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> path_of_raw(raws.size(), kDropped);
  util::HashIndex path_index(raws.size());
  for (std::size_t k = 0; k < raws.size(); ++k) {
    // Most paths keep their raw hash: prefetch the slot it probes.
    if (k + kAhead < raws.size()) path_index.prefetch(hash[raws[k + kAhead].first]);
    const std::size_t count = raws[k].count;
    const auto raw = records[raws[k].first].path.hops();
    hops.assign(raw.begin(), raw.end());
    if (strip_ixp) {
      const auto kept = std::remove_if(hops.begin(), hops.end(),
                                       [&](Asn a) { return config.ixp_asns.contains(a); });
      stats.ixp_hops_stripped += count * static_cast<std::size_t>(hops.end() - kept);
      hops.erase(kept, hops.end());
    }
    if (config.strip_reserved_asns) {
      const auto kept =
          std::remove_if(hops.begin(), hops.end(), [](Asn a) { return a.reserved(); });
      stats.reserved_hops_stripped += count * static_cast<std::size_t>(hops.end() - kept);
      hops.erase(kept, hops.end());
    }
    if (config.compress_prepending) {
      const auto kept = std::unique(hops.begin(), hops.end());
      if (kept != hops.end()) stats.prepended_compressed += count;
      hops.erase(kept, hops.end());
    }
    if (config.discard_loops && has_loop(hops)) {
      stats.loops_discarded += count;
      continue;
    }
    if (config.discard_reserved &&
        std::any_of(hops.begin(), hops.end(), [](Asn a) { return a.reserved(); })) {
      stats.reserved_discarded += count;
      continue;
    }
    if (hops.empty()) continue;

    ids.clear();
    for (const Asn hop : hops) ids.push_back(first_seen.id(hop));
    const std::uint64_t h =
        hops.size() == raw.size() ? hash[raws[k].first] : util::hash_words(hops, asn_word);
    const auto fresh = static_cast<std::uint32_t>(arena.path_count());
    path_of_raw[k] = path_index.find_or_insert(h, fresh, [&](std::uint32_t id) {
      return std::equal(ids.begin(), ids.end(), flat.begin() + arena.offsets_[id],
                        flat.begin() + arena.offsets_[id + 1]);
    });
    if (path_of_raw[k] == fresh) {
      flat.insert(flat.end(), ids.begin(), ids.end());
      arena.offsets_.push_back(static_cast<std::uint32_t>(flat.size()));
    }
  }

  // Dedup filter: two bitmaps of about 8 bits per record, indexed by the
  // top bits of each kept record's row hash ((vp, prefix) mixed with the
  // path id).  `seen` marks a bucket some row hashed to, `shared` one that
  // two or more did.  Duplicates share a bucket, so only rows in shared
  // buckets reach the exact table, which is sized for them alone.
  const int bucket_bits = std::bit_width(std::max<std::size_t>(64, 8 * records.size()) - 1);
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> shared;
  const auto bucket = [&](std::uint64_t h) { return h >> (64 - bucket_bits); };
  const auto test = [](const std::vector<std::uint64_t>& bits, std::uint64_t b) {
    return (bits[b >> 6] >> (b & 63)) & 1;
  };
  std::size_t shared_records = 0;
  if (config.dedup) {
    seen.assign(std::size_t{1} << (bucket_bits - 6), 0);
    shared.assign(seen.size(), 0);
    for (std::size_t r = 0; r < records.size(); ++r) {
      const std::uint32_t path = path_of_raw[raw_of[r]];
      if (path == kDropped) continue;
      row[r] = util::mix64(row[r], path);
      const std::uint64_t b = bucket(row[r]);
      const std::uint64_t bit = std::uint64_t{1} << (b & 63);
      if (!test(seen, b)) {
        seen[b >> 6] |= bit;
      } else {
        shared_records += test(shared, b) ? 1 : 2;
        shared[b >> 6] |= bit;
      }
    }
  }

  // Pass 3: every record takes its raw path's fate.  Records in shared
  // buckets are checked for an exact earlier duplicate.
  util::HashIndex record_index(shared_records);
  arena.multiplicity_.assign(arena.path_count(), 0);
  arena.records_.reserve(records.size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    const std::uint32_t path = path_of_raw[raw_of[r]];
    if (path == kDropped) continue;
    const PathRecord& record = records[r];
    if (config.dedup && test(shared, bucket(row[r]))) {
      const auto next = static_cast<std::uint32_t>(arena.records_.size());
      const auto same_row = [&](std::uint32_t id) {
        const ArenaRecord& other = arena.records_[id];
        return other.path == path && other.vp == record.vp && other.prefix == record.prefix;
      };
      const std::uint32_t kept = record_index.find_or_insert(row[r], next, same_row);
      if (kept != next) {
        ++stats.duplicates_removed;
        continue;
      }
    }
    arena.records_.push_back({record.prefix, record.vp, path});
    ++arena.multiplicity_[path];
  }
  stats.output_records = arena.records_.size();

  // Intern: sort the distinct ASNs once, then renumber the hop buffer in
  // place.
  arena.interner_ = topology::AsnInterner::from_asns(first_seen.asns());
  std::vector<NodeId> node_of(first_seen.asns().size());
  for (std::size_t i = 0; i < node_of.size(); ++i) {
    node_of[i] = arena.interner_.id_of(first_seen.asns()[i]);
  }
  for (NodeId& hop : arena.hops_) hop = node_of[hop];
  return arena;
}

AsPath PathArena::as_path(std::size_t id) const {
  AsPath out;
  out.reserve(offsets_[id + 1] - offsets_[id]);
  for (const NodeId node : path(id)) {
    out.push_back(node == topology::kNoNode ? Asn() : interner_.asn_of(node));
  }
  return out;
}

PathCorpus PathArena::materialize() const {
  PathCorpus corpus;
  corpus.reserve(records_.size());
  for (const ArenaRecord& row : records_) corpus.add(row.vp, row.prefix, as_path(row.path));
  return corpus;
}

}  // namespace asrank::paths
