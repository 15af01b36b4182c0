// Path sanitization (paper §4.2 step 1).
//
// Raw collector paths carry measurement artifacts that would corrupt
// relationship inference: prepending repeats, loops from path poisoning,
// IANA-reserved ASNs leaked from private peerings, and IXP route-server ASNs
// that are not topological participants.  The sanitizer applies an ordered,
// individually-switchable set of stages and reports exactly what each stage
// did, so experiments can ablate any stage (bench_ablation) and tests can
// assert per-stage behaviour against the simulator's injection audit.
//
// Stage order: strip IXP ASNs -> optionally strip reserved ASNs ->
// compress prepending -> discard looped paths -> discard paths still
// containing reserved ASNs -> drop emptied paths (uncounted) ->
// deduplicate identical records.
//
// The stages run in paths::PathArena::build, once per distinct raw path.
// Each counter is applied once per distinct raw path, multiplied by the
// number of records carrying it, so the totals equal a per-record run.
// sanitize() is that build plus materializing the records back into a
// PathCorpus.
#pragma once

#include <cstddef>
#include <unordered_set>

#include "asn/asn.h"
#include "paths/corpus.h"

namespace asrank::paths {

struct SanitizerConfig {
  bool strip_ixp_asns = true;
  bool strip_reserved_asns = false;  ///< remove hop instead of dropping path
  bool compress_prepending = true;
  bool discard_loops = true;
  bool discard_reserved = true;
  bool dedup = true;

  /// ASNs of known IXP route servers (from PeeringDB-style side data; in our
  /// pipeline, from the generator's ground truth).
  std::unordered_set<Asn> ixp_asns;
};

struct SanitizeStats {
  std::size_t input_records = 0;
  std::size_t ixp_hops_stripped = 0;
  std::size_t reserved_hops_stripped = 0;
  std::size_t prepended_compressed = 0;  ///< records whose path shrank
  std::size_t loops_discarded = 0;
  std::size_t reserved_discarded = 0;
  std::size_t duplicates_removed = 0;
  std::size_t output_records = 0;
};

struct SanitizeResult {
  PathCorpus corpus;
  SanitizeStats stats;
};

/// Run the pipeline over `input`.  Pure function: the input corpus is not
/// modified.  Callers that go on to tally paths should build a PathArena
/// instead and skip the materialization.
[[nodiscard]] SanitizeResult sanitize(const PathCorpus& input, const SanitizerConfig& config);

}  // namespace asrank::paths
