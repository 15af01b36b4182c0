// QueryScope: the explicit (epoch, algorithm) pair a query is answered
// under.  A scope is a value passed per call (the trailing argument of every
// scoped Client/ClusterClient method), so it can be fanned out verbatim
// across a cluster without any shared mutable state.
//
// Empty fields mean "the server's default": an empty epoch answers from the
// current epoch, an empty algorithm from the snapshot's primary algorithm.
#pragma once

#include <string>
#include <string_view>

namespace asrank::serve {

struct QueryScope {
  std::string epoch;      ///< resident epoch label; empty = current
  std::string algorithm;  ///< algorithm section name; empty = primary

  [[nodiscard]] bool empty() const noexcept {
    return epoch.empty() && algorithm.empty();
  }

  /// This scope with the epoch replaced (used when a caller pins a resolved
  /// cluster epoch but keeps the requested algorithm).
  [[nodiscard]] QueryScope with_epoch(std::string_view label) const {
    return QueryScope{std::string(label), algorithm};
  }

  friend bool operator==(const QueryScope&, const QueryScope&) = default;
};

}  // namespace asrank::serve
