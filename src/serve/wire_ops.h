// The asrankd wire contract of every query op, written once: each op's
// constructor (`wire::rank(as)`, `wire::disagree(a, b, limit)`, …) returns a
// Query holding the op, its unscoped request payload and its response
// decoder; `frame` wraps the payload under a QueryScope as the op's scope
// class says; `op_name` is the op's lowercase command word.  serve::Client,
// serve::ClusterClient and the server's text rail all build their requests
// and read their responses through these, so a cluster answer and a text
// line are byte-identical to a single-server binary answer by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asn/asn.h"
#include "serve/protocol.h"
#include "serve/query_scope.h"
#include "snapshot/snapshot.h"
#include "topology/relationship.h"
#include "util/result.h"

namespace asrank::serve {

/// CONE_DIFF result: members entering/leaving the cone from epoch A to B.
struct ConeDiff {
  std::vector<Asn> added;
  std::vector<Asn> removed;

  friend bool operator==(const ConeDiff&, const ConeDiff&) = default;
};

/// RELOAD result: the installed epoch label and its AS count.
struct ReloadInfo {
  std::string label;
  std::uint32_t ases = 0;

  friend bool operator==(const ReloadInfo&, const ReloadInfo&) = default;
};

/// One DISAGREE row: a link the two algorithms classify differently.
/// nullopt = that algorithm has no such link.
struct Disagreement {
  Asn a;
  Asn b;
  std::optional<RelView> first;   ///< from a's perspective, first algorithm
  std::optional<RelView> second;  ///< from a's perspective, second algorithm

  friend bool operator==(const Disagreement&, const Disagreement&) = default;
};

/// DISAGREE result: total disagreement count plus the (possibly truncated)
/// rows, ascending (a, b) with a < b.
struct DisagreeReport {
  std::uint32_t total = 0;
  std::vector<Disagreement> rows;

  friend bool operator==(const DisagreeReport&, const DisagreeReport&) = default;
};

}  // namespace asrank::serve

namespace asrank::serve::wire {

/// Start a request payload: u8 opcode, operands appended by the caller.
[[nodiscard]] WireWriter request(Op op);

/// Wrap an engine-scoped request in WITH_ALGO (inner) and WITH_EPOCH
/// (outer) as the scope names them.  The nesting order is wire contract:
/// WITH_EPOCH selects the registry entry, WITH_ALGO the engine inside it.
[[nodiscard]] std::vector<std::uint8_t> apply_scope(
    const QueryScope& scope, std::vector<std::uint8_t> inner);

/// Wrap a registry-scoped request (kDisagree, kAlgos) in WITH_EPOCH only;
/// these ops name algorithms explicitly or not at all, so scope.algorithm is
/// ignored.
[[nodiscard]] std::vector<std::uint8_t> apply_epoch(
    std::string_view epoch, std::vector<std::uint8_t> inner);

/// `payload`, an unscoped request for `op`, framed under `scope` by op's
/// scope class: engine ops in WITH_ALGO inside WITH_EPOCH, ALGOS and
/// DISAGREE in WITH_EPOCH only, EPOCHS, CONE_DIFF and RELOAD never.  An
/// empty scope frames nothing.
[[nodiscard]] std::vector<std::uint8_t> frame(Op op, std::vector<std::uint8_t> payload,
                                              const QueryScope& scope);

/// The op's lowercase command word: what the text rail parses ("rel",
/// "conesize", "cliquepath", …) and ClusterClient's request `op` label.
[[nodiscard]] std::string_view op_name(Op op) noexcept;

// ----------------------------------------------------- response decoders --

// The decoders of the scalar bodies (REL, RANK, CONESIZE, INCONE, STATS,
// METRICS, PING) are reached through their ops' Query values only.

/// u32 count + {u32 asn} list (CONE, PROVIDERS, … CLIQUE responses).
[[nodiscard]] Result<std::vector<Asn>> decode_asn_list(
    std::span<const std::uint8_t> body);
[[nodiscard]] Result<std::vector<snapshot::TopEntry>> decode_top(
    std::span<const std::uint8_t> body);
/// u32 count + {str16} list (kEpochs, kAlgos responses).
[[nodiscard]] Result<std::vector<std::string>> decode_labels(
    std::span<const std::uint8_t> body);

/// Read a u32-count-prefixed ASN list from an open reader (for bodies that
/// carry more than one list, e.g. CONE_DIFF).
[[nodiscard]] Result<std::vector<Asn>> read_asn_list(WireReader& reader);

[[nodiscard]] Result<ConeDiff> decode_cone_diff(
    std::span<const std::uint8_t> body);
[[nodiscard]] Result<ReloadInfo> decode_reload(
    std::span<const std::uint8_t> body);
[[nodiscard]] Result<DisagreeReport> decode_disagree(
    std::span<const std::uint8_t> body);

// ---------------------------------------------------------------- queries --

/// One query: its op, its unscoped request payload, and the decoder of the
/// OK response body it gets back.
template <typename T>
struct Query {
  Op op;
  std::vector<std::uint8_t> payload;
  Result<T> (*decode)(std::span<const std::uint8_t> body);
};

template <typename T>
[[nodiscard]] std::vector<std::uint8_t> frame(const Query<T>& query, const QueryScope& scope) {
  return frame(query.op, query.payload, scope);
}

// One constructor per op: its operands, in wire order, and its decoder.

[[nodiscard]] Query<std::optional<RelView>> relationship(Asn a, Asn b);
/// nullopt = unranked.
[[nodiscard]] Query<std::optional<std::uint32_t>> rank(Asn as);
[[nodiscard]] Query<std::uint64_t> cone_size(Asn as);
[[nodiscard]] Query<std::vector<Asn>> cone(Asn as);
[[nodiscard]] Query<bool> in_cone(Asn as, Asn member);
[[nodiscard]] Query<std::vector<Asn>> providers(Asn as);
[[nodiscard]] Query<std::vector<Asn>> customers(Asn as);
[[nodiscard]] Query<std::vector<Asn>> peers(Asn as);
[[nodiscard]] Query<std::vector<snapshot::TopEntry>> top(std::uint32_t n);
[[nodiscard]] Query<std::vector<Asn>> cone_intersection(Asn a, Asn b);
[[nodiscard]] Query<std::vector<Asn>> path_to_clique(Asn as);
[[nodiscard]] Query<std::vector<Asn>> clique();
[[nodiscard]] Query<std::string> stats();
[[nodiscard]] Query<void> ping();
[[nodiscard]] Query<std::string> metrics();
[[nodiscard]] Query<std::vector<std::string>> epochs();
[[nodiscard]] Query<std::vector<std::string>> algos();
[[nodiscard]] Query<ConeDiff> cone_diff(Asn as, std::string_view epoch_a,
                                        std::string_view epoch_b);
/// An empty label derives one from the path.
[[nodiscard]] Query<ReloadInfo> reload(std::string_view path, std::string_view label);
/// limit 0 = every row.
[[nodiscard]] Query<DisagreeReport> disagree(std::string_view algo_a,
                                             std::string_view algo_b, std::uint32_t limit);

}  // namespace asrank::serve::wire
