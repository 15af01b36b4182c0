#include "paths/arena.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <span>

#include "util/hash.h"
#include "util/thread_pool.h"

namespace asrank::paths {

namespace {

using topology::NodeId;

/// How many entries ahead a pass prefetches the hash slot it will probe.
constexpr std::size_t kAhead = 16;

constexpr std::uint32_t asn_word(Asn as) noexcept { return as.value(); }

}  // namespace

PathArena PathArena::build(const PathCorpus& input, const SanitizerConfig& config) {
  util::ThreadPool pool(1);
  return build(input, config, pool);
}

PathArena PathArena::build(const PathCorpus& input, const SanitizerConfig& config,
                           util::ThreadPool& pool) {
  PathArena arena;
  SanitizeStats& stats = arena.stats_;
  const auto records = input.records();
  stats.input_records = records.size();

  // Pass 1 (chunked): hash every record's hops and, for dedup, its vp and
  // prefix.  Both arrays are written for every record before any read, so
  // they are not zeroed first.
  const auto hash = std::make_unique_for_overwrite<std::uint64_t[]>(records.size());
  const std::size_t rows = config.dedup ? records.size() : 0;
  const auto row = std::make_unique_for_overwrite<std::uint64_t[]>(rows);
  pool.for_chunks(records.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const PathRecord& record = records[r];
      hash[r] = util::hash_words(record.path.hops(), asn_word);
      if (config.dedup) {
        row[r] = util::mix64(std::hash<Prefix>{}(record.prefix), record.vp.value());
      }
    }
  });

  // Pass 2 (serial): map each record to its distinct raw path, which is its
  // first record: later records compare their hops in place against that
  // record's, and nothing is copied.  Each raw path gets a slot of its raw
  // length in the stage buffer.
  struct RawPath {
    std::uint32_t first = 0;  ///< the first record carrying it
    std::uint32_t count = 0;  ///< records carrying it
    std::uint32_t start = 0;  ///< its slot in the stage buffer
  };
  std::vector<std::uint32_t> raw_of(records.size());
  std::vector<RawPath> raws;
  raws.reserve(records.size());
  std::uint32_t raw_hops = 0;
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
        raws.push_back({static_cast<std::uint32_t>(r), 0, raw_hops});
        raw_hops += static_cast<std::uint32_t>(raw.size());
      }
      ++raws[k].count;
      raw_of[r] = k;
    }
  }

  // Pass 3 (chunked): run the stages on each distinct raw path once and add
  // its counters, weighted by the records that carry it, to its chunk's.
  // Only a path the stages change is copied, into its slot of the stage
  // buffer; the slots of the others (most paths) are never touched, and
  // those paths keep their raw hops and raw hash.
  constexpr std::uint32_t kDropped = 0xffffffffu;
  const bool strip_ixp = config.strip_ixp_asns && !config.ixp_asns.empty();
  const auto is_ixp = [&](Asn a) { return config.ixp_asns.contains(a); };
  const auto is_reserved = [](Asn a) { return a.reserved(); };
  // Uninitialized: a slot's hops are constructed when its path is copied in.
  const auto free_staged = [size = raw_hops](Asn* hops) {
    std::allocator<Asn>().deallocate(hops, size);
  };
  const std::unique_ptr<Asn, decltype(free_staged)> staged(
      std::allocator<Asn>().allocate(raw_hops), free_staged);
  std::vector<std::uint32_t> staged_size(raws.size());
  std::vector<std::uint64_t> staged_hash(raws.size());
  std::vector<SanitizeStats> chunk_stats(pool.worker_count());
  pool.for_chunks(raws.size(), [&](std::size_t c, std::size_t begin, std::size_t end) {
    SanitizeStats counts;
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t count = raws[k].count;
      const auto raw = records[raws[k].first].path.hops();
      std::span<const Asn> path = raw;
      if ((strip_ixp && std::ranges::any_of(raw, is_ixp)) ||
          (config.strip_reserved_asns && std::ranges::any_of(raw, is_reserved)) ||
          (config.compress_prepending && std::ranges::adjacent_find(raw) != raw.end())) {
        Asn* const hops = staged.get() + raws[k].start;
        Asn* kept = std::uninitialized_copy(raw.begin(), raw.end(), hops);
        if (strip_ixp) {
          Asn* const last = std::remove_if(hops, kept, is_ixp);
          counts.ixp_hops_stripped += count * static_cast<std::size_t>(kept - last);
          kept = last;
        }
        if (config.strip_reserved_asns) {
          Asn* const last = std::remove_if(hops, kept, is_reserved);
          counts.reserved_hops_stripped += count * static_cast<std::size_t>(kept - last);
          kept = last;
        }
        if (config.compress_prepending) {
          Asn* const last = std::unique(hops, kept);
          if (last != kept) counts.prepended_compressed += count;
          kept = last;
        }
        path = std::span<const Asn>(hops, kept);
      }
      staged_size[k] = kDropped;
      if (config.discard_loops && has_loop(path)) {
        counts.loops_discarded += count;
      } else if (config.discard_reserved && std::ranges::any_of(path, is_reserved)) {
        counts.reserved_discarded += count;
      } else if (!path.empty()) {
        staged_size[k] = static_cast<std::uint32_t>(path.size());
        staged_hash[k] = path.size() == raw.size() ? hash[raws[k].first]
                                                   : util::hash_words(path, asn_word);
      }
    }
    chunk_stats[c] = counts;
  });
  for (const SanitizeStats& counts : chunk_stats) {
    stats.ixp_hops_stripped += counts.ixp_hops_stripped;
    stats.reserved_hops_stripped += counts.reserved_hops_stripped;
    stats.prepended_compressed += counts.prepended_compressed;
    stats.loops_discarded += counts.loops_discarded;
    stats.reserved_discarded += counts.reserved_discarded;
  }

  // Pass 4 (serial): give each kept raw path its distinct path, in raw
  // order, so path ids follow first occurrence.  A new path's hops are
  // interned through a first-seen id table into the hop buffer.
  const auto staged_path = [&](std::size_t k) {
    const auto raw = records[raws[k].first].path.hops();
    if (staged_size[k] == raw.size()) return raw;
    return std::span<const Asn>(staged.get() + raws[k].start, staged_size[k]);
  };
  topology::FirstSeenIds first_seen;
  std::vector<NodeId>& flat = arena.hops_;  // first-seen ids until renumbered
  flat.reserve(raw_hops);
  arena.offsets_.reserve(raws.size() + 1);
  std::vector<std::uint32_t> raw_of_path;  // the raw path that first gave each path
  raw_of_path.reserve(raws.size());
  std::vector<std::uint32_t> path_of_raw(raws.size(), kDropped);
  util::HashIndex path_index(raws.size());
  for (std::size_t k = 0; k < raws.size(); ++k) {
    if (k + kAhead < raws.size()) path_index.prefetch(staged_hash[k + kAhead]);
    if (staged_size[k] == kDropped) continue;
    const auto path = staged_path(k);
    const auto fresh = static_cast<std::uint32_t>(raw_of_path.size());
    path_of_raw[k] = path_index.find_or_insert(staged_hash[k], fresh, [&](std::uint32_t id) {
      return std::ranges::equal(path, staged_path(raw_of_path[id]));
    });
    if (path_of_raw[k] == fresh) {
      raw_of_path.push_back(static_cast<std::uint32_t>(k));
      for (const Asn hop : path) flat.push_back(first_seen.id(hop));
      arena.offsets_.push_back(static_cast<std::uint32_t>(flat.size()));
    }
  }

  // Each record's path, or kDropped, in place of its raw path, and with
  // dedup on, its row hash mixed with the path (chunked).
  std::vector<std::uint32_t>& path_of = raw_of;
  pool.for_chunks(records.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      path_of[r] = path_of_raw[path_of[r]];
      if (config.dedup && path_of[r] != kDropped) row[r] = util::mix64(row[r], path_of[r]);
    }
  });

  // Dedup filter: two bitmaps of about 8 bits per record, indexed by the
  // top bits of each kept record's row hash.  `seen` marks a bucket some
  // row hashed to, `shared` one that two or more did.  Duplicates share a
  // bucket, so only rows in shared buckets reach the exact table, which is
  // sized for them alone.
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
      if (path_of[r] == kDropped) continue;
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

  // Pass 5 (serial): every record takes its raw path's fate.  Records in
  // shared buckets are checked for an exact earlier duplicate.
  util::HashIndex record_index(shared_records);
  arena.multiplicity_.assign(arena.path_count(), 0);
  arena.records_.reserve(records.size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    const std::uint32_t path = path_of[r];
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
  // place (chunked).
  arena.interner_ = topology::AsnInterner::from_asns(first_seen.asns());
  const std::vector<NodeId> node_of = first_seen.renumber(arena.interner_);
  pool.for_chunks(flat.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t h = begin; h < end; ++h) {
      if (flat[h] != topology::kNoNode) flat[h] = node_of[flat[h]];
    }
  });
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

std::size_t PathArena::drop_paths(std::span<const std::uint8_t> flagged) {
  // erase_if moves no record before the first dropped one.
  const std::size_t dropped =
      std::erase_if(records_, [&](const ArenaRecord& row) { return flagged[row.path] != 0; });
  for (std::size_t p = 0; p < flagged.size(); ++p) {
    if (flagged[p]) multiplicity_[p] = 0;
  }
  return dropped;
}

}  // namespace asrank::paths
