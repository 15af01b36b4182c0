// Validation scoring (paper §6): positive predictive value of inferred
// relationships against the validation corpus, per source class and
// relationship type — the numbers behind the paper's headline
// "99.6% (c2p) / 98.7% (p2p)" result — plus exact accuracy against full
// ground truth, which only the simulator substrate makes possible.
#pragma once

#include <array>
#include <cstddef>

#include "topology/as_graph.h"
#include "topology/topology_view.h"
#include "validation/corpus.h"

namespace asrank::validation {

struct PpvCell {
  std::size_t validated = 0;  ///< inferred links with an assertion of this slice
  std::size_t correct = 0;

  [[nodiscard]] double ppv() const noexcept {
    return validated == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(validated);
  }
};

/// PPV against a validation corpus.
struct PpvReport {
  /// cells[source][0] = c2p-inferred links, cells[source][1] = p2p-inferred.
  std::array<std::array<PpvCell, 2>, 3> cells{};
  PpvCell c2p;       ///< all sources, links inferred c2p
  PpvCell p2p;       ///< all sources, links inferred p2p
  PpvCell overall;
  std::size_t inferred_links = 0;
  std::size_t validated_links = 0;  ///< inferred links covered by the corpus

  [[nodiscard]] double coverage() const noexcept {
    return inferred_links == 0
               ? 0.0
               : static_cast<double>(validated_links) / static_cast<double>(inferred_links);
  }
};

/// PPV of every link of an inferred view (an algorithm's infer() result).
[[nodiscard]] PpvReport evaluate_ppv(const topology::TopologyView& inferred,
                                     const ValidationCorpus& corpus);

/// Exact scoring against the full ground-truth graph (simulator only).
struct TruthAccuracy {
  std::size_t compared = 0;       ///< inferred links present in ground truth
  std::size_t unknown_links = 0;  ///< inferred links absent from ground truth
  PpvCell c2p;                    ///< links inferred c2p (direction must match)
  PpvCell p2p;
  PpvCell s2s;                    ///< links inferred s2s (sibling detection)
  std::size_t s2s_links = 0;      ///< ground-truth siblings inferred c2p/p2p
                                  ///< (excluded from the c2p/p2p PPV universe)
  std::size_t direction_errors = 0;  ///< c2p inferred with inverted provider

  [[nodiscard]] double accuracy() const noexcept {
    const std::size_t total = c2p.validated + p2p.validated;
    return total == 0
               ? 0.0
               : static_cast<double>(c2p.correct + p2p.correct) / static_cast<double>(total);
  }
};

/// Every link of an inferred view scored against the ground-truth graph.
[[nodiscard]] TruthAccuracy evaluate_against_truth(const topology::TopologyView& inferred,
                                                   const AsGraph& truth);

}  // namespace asrank::validation
