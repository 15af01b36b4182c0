#include "serve/wire_ops.h"

#include <algorithm>
#include <utility>

namespace asrank::serve::wire {

namespace {

/// Capacity for `count` elements of at least `wire_size` bytes each, capped
/// by what the body can still hold: a hostile count must end in kTruncated,
/// not in a huge allocation.
std::size_t capped(std::uint32_t count, const WireReader& reader, std::size_t wire_size) {
  return std::min<std::size_t>(count, reader.remaining() / wire_size);
}

}  // namespace

WireWriter request(Op op) {
  WireWriter writer;
  writer.u8(static_cast<std::uint8_t>(op));
  return writer;
}

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

Result<std::optional<RelView>> decode_rel_opt(std::uint8_t code) {
  if (code == kRelNone) return std::optional<RelView>{};
  const auto view = rel_from_code(code);
  if (!view) {
    return make_error(ErrorCode::kProtocol, "bad relationship code in response");
  }
  return std::optional<RelView>{*view};
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
