#include "serve/client.h"

#include <utility>

namespace asrank::serve {

// ----------------------------------------------------------- lifecycle --

Result<Client> Client::dial(const std::string& host, std::uint16_t port,
                            TransportConfig config) {
  ASRANK_TRY(transport, Transport::dial(host, port, std::move(config)));
  return Client(std::move(transport));
}

template <typename T>
Result<T> Client::ask(wire::Query<T> query, const QueryScope& scope) {
  ASRANK_TRY(body,
             transport_.try_exchange(wire::frame(query.op, std::move(query.payload), scope)));
  return query.decode(body);
}

// ------------------------------------------------------ scoped surface --

Result<std::optional<RelView>> Client::try_relationship(Asn a, Asn b,
                                                        const QueryScope& scope) {
  return ask(wire::relationship(a, b), scope);
}

Result<std::optional<std::uint32_t>> Client::try_rank(Asn as, const QueryScope& scope) {
  return ask(wire::rank(as), scope);
}

Result<std::uint64_t> Client::try_cone_size(Asn as, const QueryScope& scope) {
  return ask(wire::cone_size(as), scope);
}

Result<std::vector<Asn>> Client::try_cone(Asn as, const QueryScope& scope) {
  return ask(wire::cone(as), scope);
}

Result<bool> Client::try_in_cone(Asn as, Asn member, const QueryScope& scope) {
  return ask(wire::in_cone(as, member), scope);
}

Result<std::vector<Asn>> Client::try_providers(Asn as, const QueryScope& scope) {
  return ask(wire::providers(as), scope);
}

Result<std::vector<Asn>> Client::try_customers(Asn as, const QueryScope& scope) {
  return ask(wire::customers(as), scope);
}

Result<std::vector<Asn>> Client::try_peers(Asn as, const QueryScope& scope) {
  return ask(wire::peers(as), scope);
}

Result<std::vector<snapshot::TopEntry>> Client::try_top(std::uint32_t n,
                                                        const QueryScope& scope) {
  return ask(wire::top(n), scope);
}

Result<std::vector<Asn>> Client::try_cone_intersection(Asn a, Asn b,
                                                       const QueryScope& scope) {
  return ask(wire::cone_intersection(a, b), scope);
}

Result<std::vector<Asn>> Client::try_path_to_clique(Asn as, const QueryScope& scope) {
  return ask(wire::path_to_clique(as), scope);
}

Result<std::vector<Asn>> Client::try_clique(const QueryScope& scope) {
  return ask(wire::clique(), scope);
}

Result<std::string> Client::try_stats_text(const QueryScope& scope) {
  return ask(wire::stats(), scope);
}

Result<std::vector<std::string>> Client::try_algos(const QueryScope& scope) {
  return ask(wire::algos(), scope);
}

Result<DisagreeReport> Client::try_disagree(std::string_view algo_a,
                                            std::string_view algo_b,
                                            std::uint32_t limit,
                                            const QueryScope& scope) {
  return ask(wire::disagree(algo_a, algo_b, limit), scope);
}

// --------------------------------------------------- unscoped requests --

Result<std::string> Client::try_metrics_text() { return ask(wire::metrics()); }

Result<void> Client::try_ping() { return ask(wire::ping()); }

Result<std::vector<std::string>> Client::try_epochs() { return ask(wire::epochs()); }

Result<ConeDiff> Client::try_cone_diff(Asn as, std::string_view epoch_a,
                                       std::string_view epoch_b) {
  return ask(wire::cone_diff(as, epoch_a, epoch_b));
}

Result<ReloadInfo> Client::try_reload(const std::string& path, const std::string& label) {
  return ask(wire::reload(path, label));
}

}  // namespace asrank::serve
