#include "serve/wire_ops.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <utility>

namespace asrank::serve::wire {

namespace {

/// Capacity for `count` elements of at least `wire_size` bytes each, capped
/// by what the body can still hold: a hostile count must end in kTruncated,
/// not in a huge allocation.
std::size_t capped(std::uint32_t count, const WireReader& reader, std::size_t wire_size) {
  return std::min<std::size_t>(count, reader.remaining() / wire_size);
}

/// How an op's request is wrapped under a QueryScope.
enum class ScopeClass : std::uint8_t {
  kEngine,  ///< WITH_ALGO inside WITH_EPOCH: answered by one engine
  kEpoch,   ///< WITH_EPOCH only: ALGOS and DISAGREE name algorithms or none
  kNone,    ///< never wrapped: EPOCHS, CONE_DIFF, RELOAD and the wrappers
};

struct OpInfo {
  std::string_view name;
  ScopeClass scope;
};

/// By opcode; entry 0 stands for any byte that is no opcode.
constexpr OpInfo kOps[] = {
    {"?", ScopeClass::kNone},            {"rel", ScopeClass::kEngine},
    {"rank", ScopeClass::kEngine},       {"conesize", ScopeClass::kEngine},
    {"cone", ScopeClass::kEngine},       {"incone", ScopeClass::kEngine},
    {"providers", ScopeClass::kEngine},  {"customers", ScopeClass::kEngine},
    {"peers", ScopeClass::kEngine},      {"top", ScopeClass::kEngine},
    {"intersect", ScopeClass::kEngine},  {"cliquepath", ScopeClass::kEngine},
    {"clique", ScopeClass::kEngine},     {"stats", ScopeClass::kEngine},
    {"ping", ScopeClass::kEngine},       {"metrics", ScopeClass::kEngine},
    {"epochs", ScopeClass::kNone},       {"conediff", ScopeClass::kNone},
    {"reload", ScopeClass::kNone},       {"withepoch", ScopeClass::kNone},
    {"disagree", ScopeClass::kEpoch},    {"withalgo", ScopeClass::kNone},
    {"algos", ScopeClass::kEpoch},
};
static_assert(std::size(kOps) == static_cast<std::size_t>(Op::kAlgos) + 1);

const OpInfo& info(Op op) noexcept {
  const auto code = static_cast<std::size_t>(op);
  return code < std::size(kOps) ? kOps[code] : kOps[0];
}

/// A relationship byte: kRelNone, or a RelView code.
Result<std::optional<RelView>> decode_rel_opt(std::uint8_t code) {
  if (code == kRelNone) return std::optional<RelView>{};
  const auto view = rel_from_code(code);
  if (!view) {
    return make_error(ErrorCode::kProtocol, "bad relationship code in response");
  }
  return std::optional<RelView>{*view};
}

/// REL: one relationship byte, kRelNone = no such link.
Result<std::optional<RelView>> decode_rel(std::span<const std::uint8_t> body) {
  WireReader reader(body);
  ASRANK_TRY(code, reader.u8());
  return decode_rel_opt(code);
}

/// RANK: u32, 0 = unranked.
Result<std::optional<std::uint32_t>> decode_rank(std::span<const std::uint8_t> body) {
  WireReader reader(body);
  ASRANK_TRY(rank, reader.u32());
  if (rank == 0) return std::optional<std::uint32_t>{};
  return std::optional<std::uint32_t>{rank};
}

/// CONESIZE: u64.
Result<std::uint64_t> decode_cone_size(std::span<const std::uint8_t> body) {
  return WireReader(body).u64();
}

/// INCONE: u8, nonzero = member.
Result<bool> decode_in_cone(std::span<const std::uint8_t> body) {
  WireReader reader(body);
  ASRANK_TRY(flag, reader.u8());
  return flag != 0;
}

/// STATS, METRICS: the whole body as UTF-8 text.
Result<std::string> decode_text(std::span<const std::uint8_t> body) {
  return WireReader(body).rest_as_text();
}

/// PING: nothing to read.
Result<void> decode_empty(std::span<const std::uint8_t>) { return {}; }

/// A query whose operands are all u32 (ASNs, TOP's n), or which has none.
template <typename T>
Query<T> u32_query(Op op, std::initializer_list<std::uint32_t> operands,
                   Result<T> (*decode)(std::span<const std::uint8_t>)) {
  auto req = request(op);
  for (const std::uint32_t operand : operands) req.u32(operand);
  return {op, req.take(), decode};
}

}  // namespace

WireWriter request(Op op) {
  WireWriter writer;
  writer.u8(static_cast<std::uint8_t>(op));
  return writer;
}

std::string_view op_name(Op op) noexcept { return info(op).name; }

std::vector<std::uint8_t> frame(Op op, std::vector<std::uint8_t> payload,
                                const QueryScope& scope) {
  switch (info(op).scope) {
    case ScopeClass::kEngine: return apply_scope(scope, std::move(payload));
    case ScopeClass::kEpoch: return apply_epoch(scope.epoch, std::move(payload));
    case ScopeClass::kNone: break;
  }
  return payload;
}

// ------------------------------------------------------ query constructors --

Query<std::optional<RelView>> relationship(Asn a, Asn b) {
  return u32_query(Op::kRelationship, {a.value(), b.value()}, decode_rel);
}
Query<std::optional<std::uint32_t>> rank(Asn as) {
  return u32_query(Op::kRank, {as.value()}, decode_rank);
}
Query<std::uint64_t> cone_size(Asn as) {
  return u32_query(Op::kConeSize, {as.value()}, decode_cone_size);
}
Query<std::vector<Asn>> cone(Asn as) {
  return u32_query(Op::kCone, {as.value()}, decode_asn_list);
}
Query<bool> in_cone(Asn as, Asn member) {
  return u32_query(Op::kInCone, {as.value(), member.value()}, decode_in_cone);
}
Query<std::vector<Asn>> providers(Asn as) {
  return u32_query(Op::kProviders, {as.value()}, decode_asn_list);
}
Query<std::vector<Asn>> customers(Asn as) {
  return u32_query(Op::kCustomers, {as.value()}, decode_asn_list);
}
Query<std::vector<Asn>> peers(Asn as) {
  return u32_query(Op::kPeers, {as.value()}, decode_asn_list);
}
Query<std::vector<snapshot::TopEntry>> top(std::uint32_t n) {
  return u32_query(Op::kTop, {n}, decode_top);
}
Query<std::vector<Asn>> cone_intersection(Asn a, Asn b) {
  return u32_query(Op::kConeIntersect, {a.value(), b.value()}, decode_asn_list);
}
Query<std::vector<Asn>> path_to_clique(Asn as) {
  return u32_query(Op::kPathToClique, {as.value()}, decode_asn_list);
}
Query<std::vector<Asn>> clique() { return u32_query(Op::kClique, {}, decode_asn_list); }
Query<std::string> stats() { return u32_query(Op::kStats, {}, decode_text); }
Query<void> ping() { return u32_query(Op::kPing, {}, decode_empty); }
Query<std::string> metrics() { return u32_query(Op::kMetrics, {}, decode_text); }
Query<std::vector<std::string>> epochs() {
  return u32_query(Op::kEpochs, {}, decode_labels);
}
Query<std::vector<std::string>> algos() {
  return u32_query(Op::kAlgos, {}, decode_labels);
}

Query<ConeDiff> cone_diff(Asn as, std::string_view epoch_a, std::string_view epoch_b) {
  auto req = request(Op::kConeDiff);
  req.u32(as.value());
  req.str16(epoch_a);
  req.str16(epoch_b);
  return {Op::kConeDiff, req.take(), decode_cone_diff};
}

Query<ReloadInfo> reload(std::string_view path, std::string_view label) {
  auto req = request(Op::kReload);
  req.str16(path);
  req.str16(label);
  return {Op::kReload, req.take(), decode_reload};
}

Query<DisagreeReport> disagree(std::string_view algo_a, std::string_view algo_b,
                               std::uint32_t limit) {
  auto req = request(Op::kDisagree);
  req.str16(algo_a);
  req.str16(algo_b);
  req.u32(limit);
  return {Op::kDisagree, req.take(), decode_disagree};
}

// ------------------------------------------------------------- framing --

std::vector<std::uint8_t> apply_scope(const QueryScope& scope,
                                      std::vector<std::uint8_t> inner) {
  if (!scope.algorithm.empty()) {
    WireWriter algo;
    algo.u8(static_cast<std::uint8_t>(Op::kWithAlgo));
    algo.str16(scope.algorithm);
    algo.bytes(inner);
    inner = algo.take();
  }
  return apply_epoch(scope.epoch, std::move(inner));
}

std::vector<std::uint8_t> apply_epoch(std::string_view epoch,
                                      std::vector<std::uint8_t> inner) {
  if (epoch.empty()) return inner;
  WireWriter outer;
  outer.u8(static_cast<std::uint8_t>(Op::kWithEpoch));
  outer.str16(epoch);
  outer.bytes(inner);
  return outer.take();
}

Result<std::vector<Asn>> read_asn_list(WireReader& reader) {
  ASRANK_TRY(count, reader.u32());
  std::vector<Asn> out;
  out.reserve(capped(count, reader, 4));
  for (std::uint32_t i = 0; i < count; ++i) {
    ASRANK_TRY(asn, reader.u32());
    out.emplace_back(asn);
  }
  return out;
}

Result<std::vector<Asn>> decode_asn_list(std::span<const std::uint8_t> body) {
  WireReader reader(body);
  return read_asn_list(reader);
}

Result<std::vector<snapshot::TopEntry>> decode_top(
    std::span<const std::uint8_t> body) {
  WireReader reader(body);
  ASRANK_TRY(count, reader.u32());
  std::vector<snapshot::TopEntry> out;
  out.reserve(capped(count, reader, 20));  // rank, asn, cone size, degree
  for (std::uint32_t i = 0; i < count; ++i) {
    snapshot::TopEntry entry;
    ASRANK_TRY(rank, reader.u32());
    ASRANK_TRY(asn, reader.u32());
    ASRANK_TRY(cone, reader.u64());
    ASRANK_TRY(tdeg, reader.u32());
    entry.rank = rank;
    entry.as = Asn(asn);
    entry.cone_size = cone;
    entry.transit_degree = tdeg;
    out.push_back(entry);
  }
  return out;
}

Result<std::vector<std::string>> decode_labels(
    std::span<const std::uint8_t> body) {
  WireReader reader(body);
  ASRANK_TRY(count, reader.u32());
  std::vector<std::string> out;
  out.reserve(capped(count, reader, 2));  // str16 length prefix
  for (std::uint32_t i = 0; i < count; ++i) {
    ASRANK_TRY(label, reader.str16());
    out.push_back(std::move(label));
  }
  return out;
}

Result<ConeDiff> decode_cone_diff(std::span<const std::uint8_t> body) {
  WireReader reader(body);
  ConeDiff diff;
  ASRANK_TRY(added, read_asn_list(reader));
  ASRANK_TRY(removed, read_asn_list(reader));
  diff.added = std::move(added);
  diff.removed = std::move(removed);
  return diff;
}

Result<ReloadInfo> decode_reload(std::span<const std::uint8_t> body) {
  WireReader reader(body);
  ReloadInfo info;
  ASRANK_TRY(installed, reader.str16());
  ASRANK_TRY(ases, reader.u32());
  info.label = std::move(installed);
  info.ases = ases;
  return info;
}

Result<DisagreeReport> decode_disagree(std::span<const std::uint8_t> body) {
  WireReader reader(body);
  DisagreeReport report;
  ASRANK_TRY(total, reader.u32());
  ASRANK_TRY(returned, reader.u32());
  report.total = total;
  report.rows.reserve(capped(returned, reader, 10));  // a, b, two rel codes
  for (std::uint32_t i = 0; i < returned; ++i) {
    ASRANK_TRY(a, reader.u32());
    ASRANK_TRY(b, reader.u32());
    ASRANK_TRY(code_a, reader.u8());
    ASRANK_TRY(code_b, reader.u8());
    Disagreement row;
    row.a = Asn(a);
    row.b = Asn(b);
    ASRANK_TRY(first, decode_rel_opt(code_a));
    ASRANK_TRY(second, decode_rel_opt(code_b));
    row.first = first;
    row.second = second;
    report.rows.push_back(row);
  }
  return report;
}

}  // namespace asrank::serve::wire
