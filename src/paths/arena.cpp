#include "paths/arena.h"

#include <algorithm>

#include "util/hash.h"

namespace asrank::paths {

namespace {

using topology::NodeId;

/// Order-dependent combine; every step avalanches, so structured inputs
/// (sequential ids, shared origins) do not cancel out.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept { return util::splitmix64(h ^ v); }

std::uint64_t hash_hops(std::span<const Asn> hops) noexcept {
  std::uint64_t h = util::splitmix64(hops.size());
  for (const Asn hop : hops) h = mix(h, hop.value());
  return h;
}

std::uint64_t hash_ids(std::span<const std::uint32_t> ids) noexcept {
  std::uint64_t h = util::splitmix64(ids.size());
  for (const std::uint32_t id : ids) h = mix(h, id);
  return h;
}

/// ASN -> dense first-seen id, open addressing with doubling.  Interning
/// through it touches each distinct ASN once, instead of sorting every hop.
class FirstSeenIds {
 public:
  std::uint32_t id(Asn as) {
    if (2 * (asns_.size() + 1) > slots_.size()) grow();
    for (std::size_t i = util::splitmix64(as.value()) & (slots_.size() - 1);;
         i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == kEmpty) {
        slots_[i] = static_cast<std::uint32_t>(asns_.size());
        asns_.push_back(as);
        return slots_[i];
      }
      if (asns_[slots_[i]] == as) return slots_[i];
    }
  }

  /// Every ASN seen, indexed by id.
  [[nodiscard]] const std::vector<Asn>& asns() const noexcept { return asns_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  void grow() {
    slots_.assign(std::max<std::size_t>(1024, 2 * slots_.size()), kEmpty);
    for (std::uint32_t id = 0; id < asns_.size(); ++id) {
      std::size_t i = util::splitmix64(asns_[id].value()) & (slots_.size() - 1);
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = id;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Asn> asns_;
};

/// What sanitizing one distinct raw path did.  Every record carrying that
/// raw path contributes the same counters and meets the same fate.
struct RawOutcome {
  enum class Fate : std::uint8_t { kKept, kLoop, kReserved, kEmpty };
  Fate fate = Fate::kKept;
  bool compressed = false;
  std::uint32_t ixp_stripped = 0;
  std::uint32_t reserved_stripped = 0;
  std::uint32_t path = 0;  ///< distinct sanitized path id when kept
};

}  // namespace

PathArena PathArena::build(const PathCorpus& input, const SanitizerConfig& config) {
  PathArena arena;
  SanitizeStats& stats = arena.stats_;
  const auto records = input.records();
  stats.input_records = records.size();

  // Pass 1: map every record to its distinct raw path, looked up by a hash
  // of its hop span.  Distinct raw paths are copied once, contiguously.
  std::vector<std::uint32_t> raw_of(records.size());
  std::vector<Asn> raw_flat;
  std::vector<std::uint32_t> raw_offsets{0};
  {
    util::HashIndex raw_index(records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      const auto raw = records[r].path.hops();
      const auto fresh = static_cast<std::uint32_t>(raw_offsets.size() - 1);
      raw_of[r] = raw_index.find_or_insert(hash_hops(raw), fresh, [&](std::uint32_t k) {
        return std::equal(raw.begin(), raw.end(), raw_flat.begin() + raw_offsets[k],
                          raw_flat.begin() + raw_offsets[k + 1]);
      });
      if (raw_of[r] == fresh) {
        raw_flat.insert(raw_flat.end(), raw.begin(), raw.end());
        raw_offsets.push_back(static_cast<std::uint32_t>(raw_flat.size()));
      }
    }
  }

  // Pass 2: sanitize each distinct raw path once.  Raw ids follow first
  // occurrence, so kept paths get ids in first-occurrence order too.
  const bool strip_ixp = config.strip_ixp_asns && !config.ixp_asns.empty();
  FirstSeenIds first_seen;
  std::vector<std::uint32_t> flat;  // distinct sanitized paths, first-seen ids
  std::vector<Asn> hops;
  std::vector<std::uint32_t> ids;
  util::HashIndex path_index(raw_offsets.size() - 1);

  std::vector<RawOutcome> raw_outcomes(raw_offsets.size() - 1);
  for (std::size_t k = 0; k < raw_outcomes.size(); ++k) {
    RawOutcome& out = raw_outcomes[k];
    hops.assign(raw_flat.begin() + raw_offsets[k], raw_flat.begin() + raw_offsets[k + 1]);
    if (strip_ixp) {
      const auto kept = std::remove_if(hops.begin(), hops.end(),
                                       [&](Asn a) { return config.ixp_asns.contains(a); });
      out.ixp_stripped = static_cast<std::uint32_t>(hops.end() - kept);
      hops.erase(kept, hops.end());
    }
    if (config.strip_reserved_asns) {
      const auto kept =
          std::remove_if(hops.begin(), hops.end(), [](Asn a) { return a.reserved(); });
      out.reserved_stripped = static_cast<std::uint32_t>(hops.end() - kept);
      hops.erase(kept, hops.end());
    }
    if (config.compress_prepending) {
      const auto kept = std::unique(hops.begin(), hops.end());
      out.compressed = kept != hops.end();
      hops.erase(kept, hops.end());
    }
    if (config.discard_loops && has_loop(hops)) {
      out.fate = RawOutcome::Fate::kLoop;
    } else if (config.discard_reserved &&
               std::any_of(hops.begin(), hops.end(), [](Asn a) { return a.reserved(); })) {
      out.fate = RawOutcome::Fate::kReserved;
    } else if (hops.empty()) {
      out.fate = RawOutcome::Fate::kEmpty;
    } else {
      ids.clear();
      for (const Asn hop : hops) ids.push_back(first_seen.id(hop));
      const auto fresh = static_cast<std::uint32_t>(arena.path_count());
      out.path = path_index.find_or_insert(hash_ids(ids), fresh, [&](std::uint32_t id) {
        return std::equal(ids.begin(), ids.end(), flat.begin() + arena.offsets_[id],
                          flat.begin() + arena.offsets_[id + 1]);
      });
      if (out.path == fresh) {
        flat.insert(flat.end(), ids.begin(), ids.end());
        arena.offsets_.push_back(static_cast<std::uint32_t>(flat.size()));
      }
    }
  }

  // Pass 3: every record inherits its raw path's counters and fate.
  util::HashIndex record_index(config.dedup ? records.size() : 0);
  arena.records_.reserve(records.size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    const PathRecord& record = records[r];
    const RawOutcome& out = raw_outcomes[raw_of[r]];
    stats.ixp_hops_stripped += out.ixp_stripped;
    stats.reserved_hops_stripped += out.reserved_stripped;
    if (out.compressed) ++stats.prepended_compressed;
    if (out.fate == RawOutcome::Fate::kLoop) {
      ++stats.loops_discarded;
      continue;
    }
    if (out.fate == RawOutcome::Fate::kReserved) {
      ++stats.reserved_discarded;
      continue;
    }
    if (out.fate == RawOutcome::Fate::kEmpty) continue;

    const ArenaRecord row{record.prefix, record.vp, out.path};
    if (config.dedup) {
      const auto next = static_cast<std::uint32_t>(arena.records_.size());
      const std::uint64_t h = mix(mix(util::splitmix64(out.path), record.vp.value()),
                                  std::hash<Prefix>{}(record.prefix));
      const std::uint32_t kept = record_index.find_or_insert(h, next, [&](std::uint32_t k) {
        const ArenaRecord& other = arena.records_[k];
        return other.path == row.path && other.vp == row.vp && other.prefix == row.prefix;
      });
      if (kept != next) {
        ++stats.duplicates_removed;
        continue;
      }
    }
    arena.records_.push_back(row);
  }
  stats.output_records = arena.records_.size();

  // Intern: sort the distinct ASNs once, then renumber the hop buffer.
  arena.interner_ = topology::AsnInterner::from_asns(first_seen.asns());
  std::vector<NodeId> node_of(first_seen.asns().size());
  for (std::size_t i = 0; i < node_of.size(); ++i) {
    node_of[i] = arena.interner_.id_of(first_seen.asns()[i]);
  }
  arena.hops_.resize(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) arena.hops_[i] = node_of[flat[i]];
  arena.multiplicity_.assign(arena.path_count(), 0);
  for (const ArenaRecord& row : arena.records_) ++arena.multiplicity_[row.path];
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
