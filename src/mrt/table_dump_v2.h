// MRT TABLE_DUMP_V2 codec (RFC 6396 §4.3): the format RouteViews and RIPE RIS
// use for RIB snapshots, and the format this library's BGP simulator emits so
// the ingestion pipeline exercises the same parsing work a bgpdump-based
// toolchain performs on real collector data.
//
// Supported records: PEER_INDEX_TABLE (subtype 1) and RIB_IPV4_UNICAST
// (subtype 2).  IPv6 peers are representable in the peer table; RIB records
// are IPv4 (matching the paper's IPv4-only corpus).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "asn/asn.h"
#include "asn/prefix.h"
#include "mrt/bgp_attrs.h"
#include "util/result.h"

namespace asrank::mrt {

/// One collector peer (vantage point) from the PEER_INDEX_TABLE.
struct PeerEntry {
  std::uint32_t bgp_id = 0;
  std::uint32_t ipv4 = 0;  ///< peer address (IPv4 peers only in our dumps)
  Asn as;

  friend bool operator==(const PeerEntry&, const PeerEntry&) = default;
};

/// One (peer, attributes) route for a prefix.
struct RibRoute {
  std::uint16_t peer_index = 0;
  std::uint32_t originated_time = 0;
  BgpAttributes attrs;

  friend bool operator==(const RibRoute&, const RibRoute&) = default;
};
static_assert(sizeof(RibRoute) <= 104, "8 B of route header and 96 B of attributes");

struct RibEntry {
  Prefix prefix;
  std::vector<RibRoute> routes;

  friend bool operator==(const RibEntry&, const RibEntry&) = default;
};

/// A full RIB snapshot: peer table plus per-prefix routes.
struct RibDump {
  std::uint32_t collector_bgp_id = 0;
  std::string view_name;
  std::uint32_t timestamp = 0;  ///< MRT header timestamp for all records
  std::vector<PeerEntry> peers;
  std::vector<RibEntry> rib;

  friend bool operator==(const RibDump&, const RibDump&) = default;
};

/// Serialize as a stream of MRT records (one PEER_INDEX_TABLE followed by
/// RIB_IPV4_UNICAST records in RIB order).
void write_table_dump_v2(const RibDump& dump, std::ostream& os);

/// Parse an MRT stream produced by write_table_dump_v2 (or any conforming
/// TABLE_DUMP_V2 stream limited to the supported subtypes).  Unknown MRT
/// record types are skipped; truncation yields ErrorCode::kTruncated and
/// any other malformation (unknown subtype, missing PEER_INDEX_TABLE,
/// oversized record) yields ErrorCode::kCorrupt, context carrying the
/// historical "mrt: ..." message.
[[nodiscard]] Result<RibDump> try_read_table_dump_v2(std::istream& is);

/// Throwing boundary wrapper over try_read_table_dump_v2: Error ->
/// DecodeError with the identical message.
[[nodiscard]] RibDump read_table_dump_v2(std::istream& is);

}  // namespace asrank::mrt
