// Path arena: a corpus with every distinct path stored once, in NodeId space.
//
// A collector corpus repeats itself: the same AS path reaches a VP for many
// prefixes, so only about two in five records carry a path no earlier record
// did.  The arena sanitizes each distinct raw path once and keeps each
// distinct surviving path once:
//
//   interner()       one topology::AsnInterner over every ASN on a kept path
//                    (AS0 excluded, as everywhere; an AS0 hop kept under a
//                    permissive SanitizerConfig is stored as kNoNode)
//   path(p)          the hops of path p: a span of one flat NodeId buffer,
//                    delimited by an offsets array (path_count() + 1 entries)
//   multiplicity(p)  how many records carry path p
//   records()        one (prefix, vp, path id) row per record, in the order
//                    the input corpus first produced them
//
// Path ids are assigned in first-occurrence order of the output records, so
// the arena is a pure function of (input, config).  Stages that only need
// the set of paths (degree tally, clique evidence, poisoned scan, voting)
// walk path(p) weighted by multiplicity and never look up an ASN again;
// order-sensitive stages walk records() and index each row's path span.
//
// build() runs five passes over a util::ThreadPool.  The passes that
// assign first-occurrence ids (raw paths, path ids, record dedup) stay
// serial; the others run in contiguous chunks.  So the ids, records and
// SanitizeStats are the same at any worker count.  Each hash table is sized
// once, from a count the build already holds, and all scratch is allocated
// on the calling thread.
//
//   hash        (chunked) every record's hops are hashed (util::hash_words),
//               and with dedup on, its (vp, prefix).
//   raw dedup   (serial) each record maps to its distinct raw path, which is
//               its first record: hops are compared in place, never copied.
//               The pass also counts the records per raw path and gives each
//               raw path a slot of its length in a stage buffer.
//   stages      (chunked) each distinct raw path runs the stages once, and
//               its counters (hops stripped, prepending compressed, loops
//               and reserved discarded) are added to its chunk's, weighted
//               by its record count.  Only a path the stages change is
//               copied into its slot; the others keep their raw hops and
//               raw hash.
//   path ids    (serial) kept raw paths, in raw order, find or take their
//               distinct path id; a new path's hops are interned through a
//               topology::FirstSeenIds table into the hop buffer.
//   records     each record takes its raw path's fate, and with dedup on,
//               its row hash is mixed with its path id (chunked).  Then,
//               serially, each kept row's hash meets two bitmaps of about 8
//               bits per record (`seen`, `shared`); only rows whose bucket
//               another row shares reach the exact util::HashIndex, sized
//               for those rows alone, and the rows are written out.
//
// Last, the distinct ASNs are sorted into the interner and the hop buffer
// is renumbered to its ids (chunked).
//
// drop_paths() is the one later edit: it removes the records of flagged
// paths, as the inference's step 4 does to poisoned paths, and leaves
// those paths in place with multiplicity 0.  Path ids, hops, the interner
// and stats() (the sanitizer's counts) do not change, so stages that walk
// every path (degrees, clique evidence) and stages that walk records or
// weigh by multiplicity read the same arena.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asn/as_path.h"
#include "asn/asn.h"
#include "asn/prefix.h"
#include "paths/corpus.h"
#include "paths/sanitizer.h"
#include "topology/interner.h"

namespace asrank::util {
class ThreadPool;
}  // namespace asrank::util

namespace asrank::paths {

/// One output record whose path lives in the arena.
struct ArenaRecord {
  Prefix prefix;
  Asn vp;
  std::uint32_t path = 0;  ///< distinct-path id
};

class PathArena {
 public:
  PathArena() = default;

  /// Sanitize `input` under `config` (see paths/sanitizer.h for the stage
  /// order and counters) and intern the survivors, the chunked passes on
  /// `pool`.  Dedup, when enabled, drops records equal in (vp, prefix,
  /// sanitized path).
  [[nodiscard]] static PathArena build(const PathCorpus& input, const SanitizerConfig& config,
                                       util::ThreadPool& pool);

  /// Same on one worker.
  [[nodiscard]] static PathArena build(const PathCorpus& input, const SanitizerConfig& config);

  [[nodiscard]] std::size_t path_count() const noexcept { return offsets_.size() - 1; }

  [[nodiscard]] std::span<const topology::NodeId> path(std::size_t id) const noexcept {
    return std::span<const topology::NodeId>(hops_).subspan(offsets_[id],
                                                            offsets_[id + 1] - offsets_[id]);
  }

  /// Start of path `id` in the flat hop buffer; arrays parallel to the
  /// buffer (e.g. per-hop link indices) index it as offset(id) + i.
  [[nodiscard]] std::size_t offset(std::size_t id) const noexcept { return offsets_[id]; }
  [[nodiscard]] std::size_t hop_count() const noexcept { return hops_.size(); }

  [[nodiscard]] std::uint32_t multiplicity(std::size_t id) const noexcept {
    return multiplicity_[id];
  }

  [[nodiscard]] std::span<const ArenaRecord> records() const noexcept { return records_; }
  [[nodiscard]] const topology::AsnInterner& interner() const noexcept { return interner_; }
  [[nodiscard]] const SanitizeStats& stats() const noexcept { return stats_; }

  /// Path `id` back in ASN space.
  [[nodiscard]] AsPath as_path(std::size_t id) const;

  /// Every record as a PathCorpus row, in record order.
  [[nodiscard]] PathCorpus materialize() const;

  /// Drop every record whose path p has `flagged[p]` set (one entry per
  /// path), keeping record order, and set those paths' multiplicity to 0.
  /// Returns the number of records dropped.
  std::size_t drop_paths(std::span<const std::uint8_t> flagged);

 private:
  topology::AsnInterner interner_;
  std::vector<topology::NodeId> hops_;
  std::vector<std::uint32_t> offsets_{0};
  std::vector<std::uint32_t> multiplicity_;
  std::vector<ArenaRecord> records_;
  SanitizeStats stats_;
};

}  // namespace asrank::paths
