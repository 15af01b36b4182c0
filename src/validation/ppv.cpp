#include "validation/ppv.h"

namespace asrank::validation {

namespace {

bool assertion_matches(const Link& inferred, const Assertion& assertion) noexcept {
  if (inferred.type == LinkType::kP2C) {
    return assertion.type == LinkType::kP2C && assertion.a == inferred.a &&
           assertion.b == inferred.b;
  }
  if (inferred.type == LinkType::kP2P) return assertion.type == LinkType::kP2P;
  return assertion.type == inferred.type;
}

}  // namespace

PpvReport evaluate_ppv(const topology::TopologyView& inferred, const ValidationCorpus& corpus) {
  PpvReport report;
  for (const Link& link : inferred.links()) {
    ++report.inferred_links;
    const auto assertion = corpus.lookup(link.a, link.b);
    if (!assertion) continue;
    ++report.validated_links;
    const bool correct = assertion_matches(link, *assertion);
    const std::size_t type_idx = link.type == LinkType::kP2C ? 0 : 1;
    const std::size_t source_idx = static_cast<std::size_t>(assertion->source);

    auto bump = [&](PpvCell& cell) {
      ++cell.validated;
      if (correct) ++cell.correct;
    };
    bump(report.cells[source_idx][type_idx]);
    bump(link.type == LinkType::kP2C ? report.c2p : report.p2p);
    bump(report.overall);
  }
  return report;
}

TruthAccuracy evaluate_against_truth(const topology::TopologyView& inferred,
                                     const AsGraph& truth) {
  TruthAccuracy result;
  for (const Link& link : inferred.links()) {
    const auto true_link = truth.link(link.a, link.b);
    if (!true_link) {
      ++result.unknown_links;
      continue;
    }
    ++result.compared;
    if (link.type == LinkType::kS2S) {
      ++result.s2s.validated;
      if (true_link->type == LinkType::kS2S) ++result.s2s.correct;
      continue;
    }
    if (true_link->type == LinkType::kS2S) {
      ++result.s2s_links;  // siblings are outside the c2p/p2p scoring universe
      continue;
    }
    if (link.type == LinkType::kP2C) {
      ++result.c2p.validated;
      if (true_link->type == LinkType::kP2C) {
        if (true_link->a == link.a) {
          ++result.c2p.correct;
        } else {
          ++result.direction_errors;
        }
      }
    } else if (link.type == LinkType::kP2P) {
      ++result.p2p.validated;
      if (true_link->type == LinkType::kP2P) ++result.p2p.correct;
    }
  }
  return result;
}

}  // namespace asrank::validation
