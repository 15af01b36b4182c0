// RPSL subset parser (RFC 2622), covering the objects the paper mined from
// IRR databases to validate relationships: `aut-num` objects with `import:`
// and `export:` policy lines.
//
// Relationship semantics (paper §3.2.2):
//   import: from ASx accept ANY        -> ASx is a PROVIDER of this AS
//   export: to ASx announce ANY        -> ASx is a CUSTOMER of this AS
//   import specific + export specific  -> ASx is a PEER
//   import ANY + export ANY            -> ambiguous (mutual transit): ignored
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "asn/asn.h"
#include "validation/corpus.h"

namespace asrank::validation {

/// One parsed aut-num policy toward a neighbour.
struct RpslPolicy {
  Asn neighbor;
  bool import_any = false;   ///< accept ANY from neighbour
  bool export_any = false;   ///< announce ANY to neighbour
  bool has_import = false;
  bool has_export = false;

  friend bool operator==(const RpslPolicy&, const RpslPolicy&) = default;
};

struct AutNum {
  Asn as;
  std::vector<RpslPolicy> policies;

  friend bool operator==(const AutNum&, const AutNum&) = default;
};

/// Parse a stream of aut-num objects separated by blank lines.  Unknown
/// attributes are ignored; a malformed `aut-num:`/`import:`/`export:` line
/// raises std::runtime_error with its line number.
[[nodiscard]] std::vector<AutNum> parse_rpsl(std::istream& is);

/// Derive relationship assertions from parsed objects.  Policies that are
/// one-sided (import without export or vice versa) or mutually ANY produce
/// no assertion.
[[nodiscard]] std::vector<Assertion> assertions_from_rpsl(const std::vector<AutNum>& objects);

/// Render objects back to RPSL text (used by the corpus synthesizer, and to
/// round-trip in tests).
void write_rpsl(const std::vector<AutNum>& objects, std::ostream& os);

}  // namespace asrank::validation
