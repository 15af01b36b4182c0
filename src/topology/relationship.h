// Business relationship vocabulary (paper §1).
//
// The two primary interconnection forms are transit (customer-to-provider,
// c2p; equivalently provider-to-customer, p2c viewed from the other end) and
// settlement-free peering (p2p).  Sibling (s2s) links connect ASes under
// common ownership and are exchanged freely; the generator can produce them
// and the validation corpus can report them, though the core inference
// algorithm (like the paper's) classifies visible links as c2p or p2p only.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace asrank {

/// Undirected link annotation.  For kP2C the stored orientation matters:
/// the first AS of the stored link is the provider.
enum class LinkType : std::uint8_t {
  kP2C,  ///< transit: first AS sells transit to second
  kP2P,  ///< settlement-free peering
  kS2S,  ///< siblings (common ownership)
};

/// Relationship of a neighbour as seen from one AS's perspective.
enum class RelView : std::uint8_t {
  kProvider,  ///< the neighbour provides transit to this AS
  kCustomer,  ///< the neighbour buys transit from this AS
  kPeer,
  kSibling,
};

/// The same link seen from the neighbour's side.
[[nodiscard]] constexpr RelView inverse(RelView view) noexcept {
  switch (view) {
    case RelView::kProvider: return RelView::kCustomer;
    case RelView::kCustomer: return RelView::kProvider;
    case RelView::kPeer: return RelView::kPeer;
    case RelView::kSibling: return RelView::kSibling;
  }
  return RelView::kPeer;
}

/// CAIDA .as-rel encoding: p2c = -1 (provider|customer|-1), p2p = 0,
/// s2s = 2 (extension used by sibling-aware datasets).
[[nodiscard]] constexpr int as_rel_code(LinkType t) noexcept {
  switch (t) {
    case LinkType::kP2C: return -1;
    case LinkType::kP2P: return 0;
    case LinkType::kS2S: return 2;
  }
  return 0;
}

[[nodiscard]] constexpr std::optional<LinkType> link_type_from_code(int code) noexcept {
  switch (code) {
    case -1: return LinkType::kP2C;
    case 0: return LinkType::kP2P;
    case 2: return LinkType::kS2S;
    default: return std::nullopt;
  }
}

[[nodiscard]] constexpr std::string_view to_string(LinkType t) noexcept {
  switch (t) {
    case LinkType::kP2C: return "p2c";
    case LinkType::kP2P: return "p2p";
    case LinkType::kS2S: return "s2s";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(RelView v) noexcept {
  switch (v) {
    case RelView::kProvider: return "provider";
    case RelView::kCustomer: return "customer";
    case RelView::kPeer: return "peer";
    case RelView::kSibling: return "sibling";
  }
  return "?";
}

}  // namespace asrank
