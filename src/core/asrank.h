// ASRank relationship inference — the paper's primary contribution (§4).
//
// Input: a raw path corpus (collector RIB rows).  Output: every observed AS
// link annotated c2p or p2p, plus the inferred clique and a per-stage audit.
//
// The pipeline follows the paper's staged algorithm.  Where the exact
// constants or tie-break rules of the published text are not recoverable
// (see the mismatch note in DESIGN.md), the reconstruction is flagged in
// comments and exposed as configuration so experiments can ablate it:
//
//   1.  Sanitize paths into a paths::PathArena (each distinct path once).
//   2.  Rank ASes by transit degree (core::Degrees).
//   3.  Infer the top clique (core::infer_clique, Bron–Kerbosch).
//   4.  Discard poisoned paths: a path whose clique members do not form one
//       contiguous segment indicates poisoning or leak artifacts.  Their
//       records are cut from the arena, which later stages read as is.
//   5.  Detect partial-view VPs (table far smaller than the largest feed);
//       their paths are customer-routes-only and thus descend everywhere.
//   6.  Vote c2p along every path from its peak location: for paths crossing
//       the clique, the contiguous clique segment is the peak (ascent
//       strictly before it, descent strictly after); otherwise the peak is
//       approximated by the highest-ranked AS.  The (at most two) links
//       adjacent to the peak are the only candidates for the path's single
//       possible p2p link and are deferred, never guessed.
//   7.  Commit votes to links (majority; ties toward the higher-ranked
//       provider), skipping clique-internal links which are fixed p2p.
//   8.  Valley-free triplet fixpoint, both directions: after a known p2p
//       link or a known descent every later unknown link must be p2c, and
//       before a known p2p link or a known ascent every earlier unknown
//       link must be c2p; iterate to a fixed point.
//   9.  Repair provider-less ASes: a non-clique AS observed providing
//       transit but lacking a provider adopts its most-observed
//       higher-ranked neighbour over a still-unknown link.
//   10. Stub-to-clique heuristic: a never-transiting AS adjacent to a clique
//       member over an unknown link is that member's customer.
//   10.5 A1 enforcement: clique members are transit-free, so any c2p commit
//       with a member on the customer side is a direction error and is
//       re-oriented.  Left standing, such a flip hands the false provider
//       the member's entire customer cone (see bench_rank_stability).
//   11. Remaining observed links become p2p and the link table becomes the
//       result's TopologyView directly (no AsGraph is built); provider
//       cycles (violations of assumption A3) are repaired by re-orienting
//       intra-SCC c2p edges toward the ranking, and the final view is
//       checked acyclic.  Both run Tarjan on the view's customer rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/algorithm.h"
#include "core/clique.h"
#include "core/degrees.h"
#include "paths/arena.h"
#include "paths/corpus.h"
#include "paths/sanitizer.h"
#include "topology/as_graph.h"
#include "topology/topology_view.h"

namespace asrank::core {

struct InferenceConfig {
  paths::SanitizerConfig sanitizer;
  CliqueConfig clique;

  /// Worker threads for the data-parallel stages (the arena build's chunked
  /// passes, the degree tally, poisoned-path scan, partial-VP detection,
  /// link table, positional voting), each split over records, the arena's
  /// distinct paths, or nodes.  0 = all hardware threads; 1 runs
  /// everything inline on the calling thread.  Results are bit-identical at
  /// any count: parallel stages use static chunking with per-chunk local
  /// tallies and ordered merges (util::ThreadPool), and order-sensitive
  /// stages (the valley-free fixpoint, repairs) always run sequentially.
  std::size_t threads = 0;

  /// Step 4: drop paths whose clique hops are non-contiguous.
  bool discard_poisoned = true;

  /// Step 5: a VP with fewer than this fraction of the largest VP's rows is
  /// treated as a partial (customer-routes-only) feed.  <= 0 disables.
  double partial_vp_threshold = 0.5;

  /// Step 6 ablation knob (default off): when > 0, a peak-adjacent link is
  /// voted c2p anyway if the peak side's transit degree is at least this
  /// multiple of the neighbour's.  The paper's algorithm does not guess at
  /// peaks; bench_ablation quantifies why (it trades c2p PPV for coverage).
  double apex_degree_gap = 0.0;

  /// Step 8/9/10 switches (for ablation benches).
  bool triplet_fixpoint = true;
  bool provider_less_repair = true;
  bool stub_clique_pass = true;

  /// Sibling detection: ASes under common ownership exchange all routes, so
  /// their link appears ascending in some paths and descending in others —
  /// persistent, balanced vote conflict is the sibling signature.  A link is
  /// labelled s2s when both directions hold at least
  /// sibling_min_votes votes and the minority side holds at least
  /// sibling_conflict_ratio of the majority.  Set ratio <= 0 to disable.
  double sibling_conflict_ratio = 0.25;
  std::uint32_t sibling_min_votes = 3;
};

/// Counters recorded by each pipeline stage.
struct StageAudit {
  paths::SanitizeStats sanitize;           // step 1
  std::size_t ranked_ases = 0;             // step 2
  std::size_t clique_size = 0;             // step 3
  std::size_t poisoned_discarded = 0;      // step 4
  std::size_t partial_vps = 0;             // step 5
  std::size_t c2p_votes = 0;               // step 6: individual votes cast
  std::size_t apex_links_deferred = 0;     // step 6: peak candidates left open
  std::size_t links_committed_c2p = 0;     // step 7
  std::size_t vote_conflicts = 0;          // step 7: links with opposing votes
  std::size_t siblings_inferred = 0;       // step 7: balanced conflicts -> s2s
  std::size_t triplet_inferred = 0;        // step 8
  std::size_t valley_violations = 0;       // step 8: paths contradicting commits
  std::size_t providerless_repaired = 0;   // step 9
  std::size_t stub_clique_links = 0;       // step 10
  std::size_t clique_direction_fixes = 0;  // step 10.5: A1 enforcement
  std::size_t p2p_fallback = 0;            // step 11
  std::size_t cycle_edges_reoriented = 0;  // step 11
  bool p2c_acyclic = false;                // final invariant
};

struct InferenceResult {
  /// Every observed link, annotated c2p/p2p/s2s, frozen: its AS table is
  /// exactly the link endpoints.  to_graph() gives the mutable AsGraph.
  topology::TopologyView graph;
  std::vector<Asn> clique;  ///< inferred tier-1 clique, sorted
  Degrees degrees;          ///< ranking used by the pipeline
  StageAudit audit;
  /// The post-step-4 corpus: step 1's sanitized distinct paths, with the
  /// records of step 4's poisoned paths dropped (those paths keep their ids
  /// and hops, with multiplicity 0).  The observed cones walk it directly;
  /// arena.materialize() gives its records as a PathCorpus.
  paths::PathArena arena;
};

/// The paper's algorithm, registered natively in the algo:: registry (no
/// adapter): infer() runs the full pipeline and keeps the graph, as an
/// AsGraph.  Callers needing the view, clique, audit or post-step-4 arena
/// use run() directly.
class AsRankInference final : public algo::InferenceAlgorithm {
 public:
  explicit AsRankInference(InferenceConfig config = {}) : config_(std::move(config)) {}

  [[nodiscard]] const InferenceConfig& config() const noexcept { return config_; }

  /// Run the full pipeline.  Pure: the input corpus is untouched.
  [[nodiscard]] InferenceResult run(const paths::PathCorpus& raw) const;

  [[nodiscard]] std::string name() const override { return "asrank"; }
  [[nodiscard]] AsGraph infer(const paths::PathCorpus& corpus) const override {
    return run(corpus).graph.to_graph();
  }

 private:
  InferenceConfig config_;
};

}  // namespace asrank::core
