// Common interface for relationship-inference algorithms.
//
// Every algorithm — the paper's ASRank pipeline in src/core and the rival
// reconstructions in src/baselines — consumes one sanitized path corpus and
// emits one relationship-annotated topology::TopologyView whose AS table is
// exactly the link endpoints.  Each labels a sorted link table and finishes
// through TopologyView::from_link_table, so no AsGraph is built on the way.
// The view is not promised acyclic: core::break_provider_cycles is the one
// repair, which the asrank pipeline runs itself and the snapshot builder
// runs on the baselines' views.  The interface lives at the top
// level (not under baselines) because the whole system is generic over it:
// snapshots carry one tagged section set per algorithm, asrankd serves
// algorithm-qualified queries, and the validation experiments score every
// registered algorithm on identical corpora.
//
// This header is dependency-free apart from the corpus/view types so that
// src/core can implement it without a cycle; construction by name goes
// through algo/registry.h.
#pragma once

#include <string>

#include "paths/corpus.h"
#include "topology/topology_view.h"

namespace asrank::algo {

class InferenceAlgorithm {
 public:
  virtual ~InferenceAlgorithm() = default;

  /// Canonical registry name ("asrank", "gao2001", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Infer relationships for every link observed in `corpus`.  The corpus is
  /// expected to be sanitized (prepending compressed, loops removed);
  /// algorithms must tolerate unsanitized input without crashing.
  [[nodiscard]] virtual topology::TopologyView infer(const paths::PathCorpus& corpus) const = 0;
};

}  // namespace asrank::algo
