#include "serve/client.h"

#include <utility>

#include "serve/protocol.h"
#include "serve/wire_ops.h"

namespace asrank::serve {

// ----------------------------------------------------------- lifecycle --

Result<Client> Client::dial(const std::string& host, std::uint16_t port,
                            TransportConfig config) {
  ASRANK_TRY(transport, Transport::dial(host, port, std::move(config)));
  return Client(std::move(transport));
}

// ------------------------------------------------------ scoped surface --

Result<std::optional<RelView>> Client::try_relationship(
    Asn a, Asn b, const QueryScope& scope) {
  auto req = wire::request(Op::kRelationship);
  req.u32(a.value());
  req.u32(b.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  WireReader reader(body);
  ASRANK_TRY(code, reader.u8());
  return wire::decode_rel_opt(code);
}

Result<std::optional<std::uint32_t>> Client::try_rank(Asn as,
                                                      const QueryScope& scope) {
  auto req = wire::request(Op::kRank);
  req.u32(as.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  WireReader reader(body);
  ASRANK_TRY(rank, reader.u32());
  if (rank == 0) return std::optional<std::uint32_t>{};
  return std::optional<std::uint32_t>{rank};
}

Result<std::uint64_t> Client::try_cone_size(Asn as, const QueryScope& scope) {
  auto req = wire::request(Op::kConeSize);
  req.u32(as.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  WireReader reader(body);
  return reader.u64();
}

Result<std::vector<Asn>> Client::try_cone(Asn as, const QueryScope& scope) {
  auto req = wire::request(Op::kCone);
  req.u32(as.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  return wire::decode_asn_list(body);
}

Result<bool> Client::try_in_cone(Asn as, Asn member, const QueryScope& scope) {
  auto req = wire::request(Op::kInCone);
  req.u32(as.value());
  req.u32(member.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  WireReader reader(body);
  ASRANK_TRY(flag, reader.u8());
  return flag != 0;
}

Result<std::vector<Asn>> Client::try_providers(Asn as, const QueryScope& scope) {
  auto req = wire::request(Op::kProviders);
  req.u32(as.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  return wire::decode_asn_list(body);
}

Result<std::vector<Asn>> Client::try_customers(Asn as, const QueryScope& scope) {
  auto req = wire::request(Op::kCustomers);
  req.u32(as.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  return wire::decode_asn_list(body);
}

Result<std::vector<Asn>> Client::try_peers(Asn as, const QueryScope& scope) {
  auto req = wire::request(Op::kPeers);
  req.u32(as.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  return wire::decode_asn_list(body);
}

Result<std::vector<snapshot::TopEntry>> Client::try_top(std::uint32_t n,
                                                        const QueryScope& scope) {
  auto req = wire::request(Op::kTop);
  req.u32(n);
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  return wire::decode_top(body);
}

Result<std::vector<Asn>> Client::try_cone_intersection(Asn a, Asn b,
                                                       const QueryScope& scope) {
  auto req = wire::request(Op::kConeIntersect);
  req.u32(a.value());
  req.u32(b.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  return wire::decode_asn_list(body);
}

Result<std::vector<Asn>> Client::try_path_to_clique(Asn as,
                                                    const QueryScope& scope) {
  auto req = wire::request(Op::kPathToClique);
  req.u32(as.value());
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_scope(scope, req.take())));
  return wire::decode_asn_list(body);
}

Result<std::vector<Asn>> Client::try_clique(const QueryScope& scope) {
  ASRANK_TRY(body, transport_.try_exchange(
                       wire::apply_scope(scope, wire::request(Op::kClique).take())));
  return wire::decode_asn_list(body);
}

Result<std::string> Client::try_stats_text(const QueryScope& scope) {
  ASRANK_TRY(body, transport_.try_exchange(
                       wire::apply_scope(scope, wire::request(Op::kStats).take())));
  WireReader reader(body);
  return reader.rest_as_text();
}

Result<std::vector<std::string>> Client::try_algos(const QueryScope& scope) {
  ASRANK_TRY(body, transport_.try_exchange(wire::apply_epoch(
                       scope.epoch, wire::request(Op::kAlgos).take())));
  return wire::decode_labels(body);
}

Result<DisagreeReport> Client::try_disagree(std::string_view algo_a,
                                            std::string_view algo_b,
                                            std::uint32_t limit,
                                            const QueryScope& scope) {
  auto req = wire::request(Op::kDisagree);
  req.str16(algo_a);
  req.str16(algo_b);
  req.u32(limit);
  ASRANK_TRY(body,
             transport_.try_exchange(wire::apply_epoch(scope.epoch, req.take())));
  return wire::decode_disagree(body);
}

// --------------------------------------------------- unscoped requests --

Result<std::string> Client::try_metrics_text() {
  ASRANK_TRY(body, transport_.try_exchange(wire::request(Op::kMetrics).take()));
  WireReader reader(body);
  return reader.rest_as_text();
}

Result<void> Client::try_ping() {
  ASRANK_TRY(body, transport_.try_exchange(wire::request(Op::kPing).take()));
  (void)body;
  return {};
}

Result<std::vector<std::string>> Client::try_epochs() {
  ASRANK_TRY(body, transport_.try_exchange(wire::request(Op::kEpochs).take()));
  return wire::decode_labels(body);
}

Result<ConeDiff> Client::try_cone_diff(Asn as, std::string_view epoch_a,
                                       std::string_view epoch_b) {
  auto req = wire::request(Op::kConeDiff);
  req.u32(as.value());
  req.str16(epoch_a);
  req.str16(epoch_b);
  ASRANK_TRY(body, transport_.try_exchange(req.take()));
  return wire::decode_cone_diff(body);
}

Result<ReloadInfo> Client::try_reload(const std::string& path,
                                      const std::string& label) {
  auto req = wire::request(Op::kReload);
  req.str16(path);
  req.str16(label);
  ASRANK_TRY(body, transport_.try_exchange(req.take()));
  return wire::decode_reload(body);
}

}  // namespace asrank::serve
