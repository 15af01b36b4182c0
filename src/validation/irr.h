// IRR route-object and as-set support (RFC 2622), complementing the
// aut-num policies in rpsl.h.
//
//   route:  1.2.3.0/24          as-set: AS-EXAMPLE
//   origin: AS64500             members: AS64500, AS64501, AS-OTHER
//
// Route objects give the registry's view of prefix origination; the paper's
// ecosystem uses them to build IP-to-AS mappings (here: a PrefixTable) and
// to sanity-check origins seen in BGP.  As-sets name customer groups in
// export policies; expansion resolves nested sets with cycle tolerance.
#pragma once

#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "asn/asn.h"
#include "asn/prefix.h"
#include "topology/prefix_table.h"

namespace asrank::validation {

struct RouteObject {
  Prefix prefix;
  Asn origin;

  friend bool operator==(const RouteObject&, const RouteObject&) = default;
};

struct AsSet {
  std::string name;                  ///< e.g. "AS-EXAMPLE" (upper-cased)
  std::vector<Asn> asn_members;
  std::vector<std::string> set_members;  ///< nested as-set names

  friend bool operator==(const AsSet&, const AsSet&) = default;
};

struct IrrDatabase {
  std::vector<RouteObject> routes;
  std::unordered_map<std::string, AsSet> as_sets;  ///< keyed by name

  friend bool operator==(const IrrDatabase&, const IrrDatabase&) = default;
};

/// Parse a stream of route / as-set objects separated by blank lines.
/// Unknown attributes and other object classes are ignored; a malformed
/// route/origin line, an empty as-set name, or a route object that ends
/// without a valid origin raises std::runtime_error("irr line <n>: ..."),
/// where n is the offending line (the `route:` line for a missing origin).
[[nodiscard]] IrrDatabase parse_irr(std::istream& is);

/// Render back to RPSL text (round-trip tested).
void write_irr(const IrrDatabase& database, std::ostream& os);

/// Build a longest-prefix-match table from route objects.  When multiple
/// route objects register the same prefix, the lowest origin ASN wins
/// (deterministic; real IRRs simply contain such conflicts).
[[nodiscard]] PrefixTable origin_table(const IrrDatabase& database);

/// Recursively expand an as-set to its ASN members.  Unknown nested sets are
/// skipped; cycles are tolerated (each set expands once).  Returns members
/// sorted ascending, deduplicated.
[[nodiscard]] std::vector<Asn> expand_as_set(const IrrDatabase& database,
                                             const std::string& name);

/// Compare BGP-observed originations against the registry: fraction of
/// (prefix, origin) pairs whose origin matches the route object covering the
/// prefix (exact or less specific).
struct OriginValidation {
  std::size_t checked = 0;    ///< originations with a covering route object
  std::size_t matched = 0;    ///< of those, origin agrees
  std::size_t uncovered = 0;  ///< no covering route object

  [[nodiscard]] double match_rate() const noexcept {
    return checked == 0 ? 0.0 : static_cast<double>(matched) / static_cast<double>(checked);
  }
};

[[nodiscard]] OriginValidation validate_origins(
    const PrefixTable& registry, const std::vector<std::pair<Prefix, Asn>>& observed);

}  // namespace asrank::validation
