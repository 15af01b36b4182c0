#include "serve/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "obs/log.h"
#include "runtime/ebr.h"
#include "runtime/reactor.h"
#include "runtime/timer_queue.h"
#include "serve/protocol.h"
#include "serve/wire_ops.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace asrank::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw ProtocolError(what + ": " + std::strerror(errno));
}

void encode_list(WireWriter& writer, std::span<const Asn> list) {
  writer.u32(static_cast<std::uint32_t>(list.size()));
  for (const Asn as : list) writer.u32(as.value());
}

std::vector<std::uint8_t> error_response(const std::string& message) {
  WireWriter writer;
  writer.u8(static_cast<std::uint8_t>(Status::kError));
  writer.text(message);
  return writer.take();
}

Error trailing_bytes() {
  return make_error(ErrorCode::kProtocol, "trailing bytes after request operands");
}

/// The self-pipe write end for the signal handler (one server per process).
std::atomic<int> g_signal_fd{-1};

void on_signal(int sig) {
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = sig == SIGHUP ? 'h' : 's';
    // Best-effort: if the pipe is full a command byte is already pending.
    [[maybe_unused]] const auto n = ::write(fd, &byte, 1);
  }
}

/// Engine-scoped opcodes (everything answerable from one epoch).  Registry
/// ops (EPOCHS/CONE_DIFF/RELOAD/WITH_EPOCH) are handled by the caller and
/// rejected here so they cannot nest.
Result<void> dispatch_engine_op(const SnapshotRegistry::ReadView& view,
                                QueryEngine& engine, Op op, WireReader& reader,
                                WireWriter& writer) {
  switch (op) {
    case Op::kRelationship: {
      ASRANK_TRY(a, reader.u32());
      ASRANK_TRY(b, reader.u32());
      const auto rel = engine.relationship(Asn(a), Asn(b));
      writer.u8(rel ? static_cast<std::uint8_t>(*rel) : kRelNone);
      break;
    }
    case Op::kRank: {
      ASRANK_TRY(as, reader.u32());
      writer.u32(engine.rank(Asn(as)).value_or(0));
      break;
    }
    case Op::kConeSize: {
      ASRANK_TRY(as, reader.u32());
      writer.u64(engine.cone_size(Asn(as)));
      break;
    }
    case Op::kCone: {
      ASRANK_TRY(as, reader.u32());
      encode_list(writer, engine.cone(Asn(as)));
      break;
    }
    case Op::kInCone: {
      ASRANK_TRY(as, reader.u32());
      ASRANK_TRY(member, reader.u32());
      writer.u8(engine.in_cone(Asn(as), Asn(member)) ? 1 : 0);
      break;
    }
    case Op::kProviders: {
      ASRANK_TRY(as, reader.u32());
      encode_list(writer, engine.providers(Asn(as)));
      break;
    }
    case Op::kCustomers: {
      ASRANK_TRY(as, reader.u32());
      encode_list(writer, engine.customers(Asn(as)));
      break;
    }
    case Op::kPeers: {
      ASRANK_TRY(as, reader.u32());
      encode_list(writer, engine.peers(Asn(as)));
      break;
    }
    case Op::kTop: {
      ASRANK_TRY(n, reader.u32());
      const auto entries = engine.top(n);
      writer.u32(static_cast<std::uint32_t>(entries.size()));
      for (const auto& entry : entries) {
        writer.u32(entry.rank);
        writer.u32(entry.as.value());
        writer.u64(entry.cone_size);
        writer.u32(static_cast<std::uint32_t>(entry.transit_degree));
      }
      break;
    }
    case Op::kConeIntersect: {
      ASRANK_TRY(a, reader.u32());
      ASRANK_TRY(b, reader.u32());
      encode_list(writer, *engine.cone_intersection(Asn(a), Asn(b)));
      break;
    }
    case Op::kPathToClique: {
      ASRANK_TRY(as, reader.u32());
      encode_list(writer, *engine.path_to_clique(Asn(as)));
      break;
    }
    case Op::kClique: {
      encode_list(writer, engine.clique());
      break;
    }
    case Op::kStats: {
      engine.record_stats_query();
      writer.text(engine.render_stats());
      break;
    }
    case Op::kPing: {
      engine.ping();
      break;
    }
    case Op::kMetrics: {
      view.owner().request_counters().metrics_requests->inc();
      writer.text(engine.registry().render_prometheus());
      break;
    }
    default:
      return make_error(ErrorCode::kProtocol,
                        "unknown opcode " +
                            std::to_string(static_cast<unsigned>(op)));
  }
  if (!reader.done()) return trailing_bytes();
  return {};
}

/// Current-epoch entry or a kNotFound Error before the first install.  The
/// raw pointer stays valid for the caller's EBR critical section.
Result<const SnapshotRegistry::Entry*> require_current(
    const SnapshotRegistry::ReadView& view) {
  const auto* entry = view.current_entry();
  if (entry == nullptr) return make_error(ErrorCode::kNotFound, "no snapshot loaded");
  return entry;
}

Result<const SnapshotRegistry::Entry*> require_epoch(
    const SnapshotRegistry::ReadView& view, const std::string& label) {
  const auto* entry = view.find_epoch(label);
  if (entry == nullptr) {
    return make_error(ErrorCode::kUnknownEpoch, "unknown epoch '" + label + "'");
  }
  view.owner().request_counters().epoch_queries->inc();
  return entry;
}

/// The "unknown algorithm" prefix is part of the wire contract (the client
/// maps it to kUnknownAlgorithm), so keep it stable.
Error unknown_algorithm(const SnapshotRegistry::Entry& entry, std::string_view name) {
  std::string carried;
  for (const auto& algo : entry.algo_names) {
    if (!carried.empty()) carried += ", ";
    carried += algo;
  }
  return make_error(ErrorCode::kUnknownAlgorithm,
                    "unknown algorithm '" + std::string(name) + "' (epoch '" +
                        entry.label + "' carries: " + carried + ")");
}

/// Algorithm-qualified engine within one epoch.
Result<QueryEngine*> require_algo(const SnapshotRegistry::ReadView& view,
                                  const SnapshotRegistry::Entry& entry,
                                  const std::string& name) {
  auto* engine = entry.algo(name);
  if (engine == nullptr) return unknown_algorithm(entry, name);
  view.owner().request_counters().algo_selected->inc();
  return engine;
}

/// One DISAGREE row: a link where two algorithm sections differ.  rel_a /
/// rel_b are RelView codes from `a`'s perspective, or kRelNone when that
/// algorithm has no such link.
struct DisagreeRow {
  Asn a;
  Asn b;
  std::uint8_t rel_a;
  std::uint8_t rel_b;
};

/// Links on which two algorithm sections disagree, over the union of both
/// link sets: canonical a < b, ascending (a, b).  A link present in only one
/// section always disagrees (the other side reports kRelNone).
std::vector<DisagreeRow> disagreements(const snapshot::SnapshotIndex& first,
                                       const snapshot::SnapshotIndex& second) {
  std::vector<DisagreeRow> out;
  const auto scan = [&out](const snapshot::SnapshotIndex& from,
                           const snapshot::SnapshotIndex& to, bool shared_links) {
    const std::size_t n = from.as_count();
    for (std::uint32_t id = 0; id < n; ++id) {
      const Asn a = from.asn_at(id);
      const auto neighbors = from.neighbor_ids(id);
      const auto rels = from.relationship_codes(id);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        // kNoNeighborId guard, as in the clique-path BFS: only reachable
        // through a crafted CRC-valid file.
        if (neighbors[i] >= n) continue;
        const Asn b = from.asn_at(neighbors[i]);
        if (!(a < b)) continue;  // canonical orientation only
        const auto other = to.relationship(a, b);
        if (shared_links) {
          const std::uint8_t theirs =
              other ? static_cast<std::uint8_t>(*other) : kRelNone;
          if (rels[i] != theirs) out.push_back({a, b, rels[i], theirs});
        } else if (!other) {
          // Second pass collects links only the second algorithm inferred.
          out.push_back({a, b, kRelNone, rels[i]});
        }
      }
    }
  };
  scan(first, second, /*shared_links=*/true);
  scan(second, first, /*shared_links=*/false);
  std::sort(out.begin(), out.end(), [](const DisagreeRow& x, const DisagreeRow& y) {
    return x.a == y.a ? x.b < y.b : x.a < y.a;
  });
  return out;
}

/// Entry-scoped opcodes: WITH_ALGO qualification and DISAGREE comparison;
/// everything else runs against the entry's primary engine.  WITH_EPOCH is
/// handled by the caller, and WITH_ALGO cannot nest inside itself (the inner
/// payload goes straight to the engine dispatcher).
Result<void> dispatch_entry_op(const SnapshotRegistry::ReadView& view,
                               const SnapshotRegistry::Entry& entry, Op op,
                               WireReader& reader, WireWriter& writer) {
  switch (op) {
    case Op::kWithAlgo: {
      ASRANK_TRY(name, reader.str16());
      ASRANK_TRY(engine, require_algo(view, entry, name));
      WireReader inner(reader.rest());
      ASRANK_TRY(inner_op, inner.u8());
      return dispatch_engine_op(view, *engine, static_cast<Op>(inner_op), inner, writer);
    }
    case Op::kAlgos: {
      if (!reader.done()) return trailing_bytes();
      writer.u32(static_cast<std::uint32_t>(entry.algo_names.size()));
      for (const auto& name : entry.algo_names) writer.str16(name);
      return {};
    }
    case Op::kDisagree: {
      ASRANK_TRY(name_a, reader.str16());
      ASRANK_TRY(name_b, reader.str16());
      ASRANK_TRY(limit, reader.u32());
      if (!reader.done()) return trailing_bytes();
      ASRANK_TRY(engine_a, require_algo(view, entry, name_a));
      ASRANK_TRY(engine_b, require_algo(view, entry, name_b));
      view.owner().request_counters().disagreements->inc();
      const auto rows = disagreements(engine_a->index(), engine_b->index());
      const std::size_t returned =
          limit == 0 ? rows.size()
                     : std::min<std::size_t>(limit, rows.size());
      writer.u32(static_cast<std::uint32_t>(rows.size()));
      writer.u32(static_cast<std::uint32_t>(returned));
      for (std::size_t i = 0; i < returned; ++i) {
        writer.u32(rows[i].a.value());
        writer.u32(rows[i].b.value());
        writer.u8(rows[i].rel_a);
        writer.u8(rows[i].rel_b);
      }
      return {};
    }
    default:
      return dispatch_engine_op(view, *entry.engine, op, reader, writer);
  }
}

// -------------------------------------------------------------- text rail --
//
// A text line is tokenized into the binary request a Client would send for
// the same query, run through handle_binary_request, and the response body
// rendered back to one "OK ..." line.  Only HELP, PING and QUIT are answered
// without the dispatcher.

constexpr std::string_view kHelpText =
    "OK commands: PING REL RANK CONESIZE CONE INCONE PROVIDERS "
    "CUSTOMERS PEERS TOP INTERSECT CLIQUEPATH CLIQUE STATS METRICS "
    "EPOCHS ALGOS CONEDIFF DISAGREE RELOAD HELP QUIT (prefix "
    "@<epoch> and/or @<algorithm> scopes a command)";

std::string_view rel_text(const std::optional<RelView>& rel) {
  return rel ? to_string(*rel) : std::string_view("none");
}

void append_asns(std::string& out, const std::vector<Asn>& list, std::string_view lead) {
  for (const Asn as : list) {
    out += lead;
    out += std::to_string(as.value());
  }
}

// The text of each decoded response, appended to its line's "OK".

void append_text(std::string& out, const std::optional<RelView>& rel) {
  out += ' ';
  out += rel_text(rel);
}
void append_text(std::string& out, const std::optional<std::uint32_t>& rank) {
  out += ' ' + std::to_string(rank.value_or(0));  // 0 = unranked, as on the wire
}
void append_text(std::string& out, std::uint64_t cone_size) {
  out += ' ' + std::to_string(cone_size);
}
void append_text(std::string& out, bool member) { out += member ? " yes" : " no"; }
void append_text(std::string& out, const std::vector<Asn>& list) {
  if (list.empty()) out += ' ';  // an empty list still renders as "OK "
  append_asns(out, list, " ");
}
void append_text(std::string& out, const std::vector<snapshot::TopEntry>& entries) {
  for (const auto& entry : entries) {
    out += ' ' + std::to_string(entry.rank) + ':' + std::to_string(entry.as.value()) + ':' +
           std::to_string(entry.cone_size) + ':' + std::to_string(entry.transit_degree);
  }
}
void append_text(std::string& out, const std::string& text) {  // STATS, METRICS
  out += '\n' + text + '.';
}
void append_text(std::string& out, const std::vector<std::string>& labels) {
  for (const auto& label : labels) out += ' ' + label;
}
void append_text(std::string& out, const DisagreeReport& report) {
  out += ' ' + std::to_string(report.total);
  for (const auto& row : report.rows) {
    out += ' ' + std::to_string(row.a.value()) + ':' + std::to_string(row.b.value()) + ':' +
           std::string(rel_text(row.first)) + ':' + std::string(rel_text(row.second));
  }
}
void append_text(std::string& out, const ConeDiff& diff) {
  append_asns(out, diff.added, " +");
  append_asns(out, diff.removed, " -");
}
void append_text(std::string& out, const ReloadInfo& info) {
  out += ' ' + info.label + ' ' + std::to_string(info.ases);
}

/// A text command as the binary request a Client sends for it, and the
/// rendering of its OK body, read by the query's own decoder.
struct TextRequest {
  std::vector<std::uint8_t> payload;
  std::function<Result<std::string>(std::span<const std::uint8_t>)> render;
};

template <typename T>
TextRequest text_request(wire::Query<T> query, const QueryScope& scope) {
  return {wire::frame(query.op, std::move(query.payload), scope),
          [decode = query.decode](std::span<const std::uint8_t> body) -> Result<std::string> {
            ASRANK_TRY(value, decode(body));
            std::string out = "OK";
            append_text(out, value);
            return out;
          }};
}

template <auto Make>
TextRequest unary(const Asn* operands, const QueryScope& scope) {
  return text_request(Make(operands[0]), scope);
}

template <auto Make>
TextRequest binary(const Asn* operands, const QueryScope& scope) {
  return text_request(Make(operands[0], operands[1]), scope);
}

/// Engine commands whose operands are all ASNs.
struct AsnCommand {
  std::string_view name;
  std::size_t arity;
  std::string_view usage;
  TextRequest (*encode)(const Asn* operands, const QueryScope& scope);
};

constexpr AsnCommand kAsnCommands[] = {
    {"rel", 2, "REL <asn> <asn>", binary<wire::relationship>},
    {"rank", 1, "RANK <asn>", unary<wire::rank>},
    {"conesize", 1, "CONESIZE <asn>", unary<wire::cone_size>},
    {"cone", 1, "CONE <asn>", unary<wire::cone>},
    {"incone", 2, "INCONE <asn> <member>", binary<wire::in_cone>},
    {"providers", 1, "providers <asn>", unary<wire::providers>},
    {"customers", 1, "customers <asn>", unary<wire::customers>},
    {"peers", 1, "peers <asn>", unary<wire::peers>},
    {"intersect", 2, "INTERSECT <asn> <asn>", binary<wire::cone_intersection>},
    {"cliquepath", 1, "CLIQUEPATH <asn>", unary<wire::path_to_clique>},
};

Error usage(std::string_view text) {
  return make_error(ErrorCode::kInvalidArgument, "usage: " + std::string(text));
}

/// Strip the leading "@<selector>" tokens into a QueryScope.  The first
/// resolves as a resident epoch label, falling back to an algorithm of the
/// current epoch; a second must be an algorithm within the selected epoch.
/// So "@rib-a @gao2001 CONE 42", "@gao2001 CONE 42" and "@rib-a CONE 42"
/// all read naturally.  Selectors are only checked here; the dispatcher
/// counts them when it answers from them.
Result<QueryScope> take_selectors(const SnapshotRegistry::ReadView& view,
                                  std::vector<std::string_view>& tokens) {
  QueryScope scope;
  const SnapshotRegistry::Entry* scoped = nullptr;
  std::size_t used = 0;
  for (; used < tokens.size() && tokens[used].size() > 1 && tokens[used].front() == '@';
       ++used) {
    const std::string_view label = tokens[used].substr(1);
    if (scoped == nullptr) {
      scoped = view.find_epoch(label);
      if (scoped != nullptr) {
        scope.epoch = label;
        continue;
      }
      // Not a resident epoch: an algorithm of the current epoch, reporting
      // both namespaces on a miss (the selector is ambiguous).
      ASRANK_TRY(current, require_current(view));
      if (current->algo(label) == nullptr) {
        return make_error(ErrorCode::kInvalidArgument,
                          "unknown epoch or algorithm '" + std::string(label) + "'");
      }
      scoped = current;
      scope.algorithm = label;
      continue;
    }
    if (!scope.algorithm.empty()) {
      return make_error(ErrorCode::kInvalidArgument, "at most one @<algorithm> selector");
    }
    if (scoped->algo(label) == nullptr) return unknown_algorithm(*scoped, label);
    scope.algorithm = label;
  }
  tokens.erase(tokens.begin(), tokens.begin() + static_cast<std::ptrdiff_t>(used));
  if (used > 0 && tokens.empty()) return usage("@<epoch|algorithm> <command>");
  return scope;
}

/// Encode `tokens` (command first, selectors stripped) as its op's
/// wire::Query, framed under `scope` by the op's scope class.
Result<TextRequest> encode_command(const SnapshotRegistry::ReadView& view,
                                   const std::string& cmd,
                                   const std::vector<std::string_view>& tokens,
                                   const QueryScope& scope, bool local_peer) {
  if (cmd == "epochs") return text_request(wire::epochs(), scope);
  if (cmd == "algos" || cmd == "algorithms") return text_request(wire::algos(), scope);
  if (cmd == "disagree") {
    std::optional<std::uint32_t> limit = 0;
    if (tokens.size() == 4) limit = util::parse_unsigned<std::uint32_t>(tokens[3]);
    if ((tokens.size() != 3 && tokens.size() != 4) || !limit) {
      return usage("DISAGREE <algoA> <algoB> [limit]");
    }
    return text_request(wire::disagree(tokens[1], tokens[2], *limit), scope);
  }
  if (cmd == "conediff") {
    const auto as = tokens.size() == 4 ? Asn::parse(tokens[1]) : std::nullopt;
    if (!as) return usage("CONEDIFF <asn> <epochA> <epochB>");
    return text_request(wire::cone_diff(*as, tokens[2], tokens[3]), scope);
  }
  if (cmd == "reload") {
    // A remote peer is denied by the dispatcher before its operands count.
    if (local_peer && tokens.size() != 2 && tokens.size() != 3) {
      return usage("RELOAD <path> [epoch]");
    }
    return text_request(wire::reload(tokens.size() > 1 ? tokens[1] : std::string_view{},
                                     tokens.size() > 2 ? tokens[2] : std::string_view{}),
                        scope);
  }

  // Engine commands: a missing snapshot is reported before their operands.
  if (auto current = require_current(view); !current.ok()) return current.take_error();
  if (cmd == "top") {
    const auto n = tokens.size() == 2 ? util::parse_unsigned<std::uint32_t>(tokens[1])
                                      : std::nullopt;
    if (!n) return usage("TOP <n>");
    return text_request(wire::top(*n), scope);
  }
  if (cmd == "clique") return text_request(wire::clique(), scope);
  if (cmd == "stats") return text_request(wire::stats(), scope);
  if (cmd == "metrics") return text_request(wire::metrics(), scope);
  for (const auto& command : kAsnCommands) {
    if (cmd != command.name) continue;
    if (tokens.size() != command.arity + 1) return usage(command.usage);
    Asn operands[2];
    for (std::size_t i = 0; i < command.arity; ++i) {
      const auto as = Asn::parse(tokens[i + 1]);
      if (!as) return usage(command.usage);
      operands[i] = *as;
    }
    return command.encode(operands, scope);
  }
  return make_error(ErrorCode::kInvalidArgument,
                    "unknown command '" + std::string(tokens[0]) + "' (try HELP)");
}

Result<std::string> answer_text(const SnapshotRegistry::ReadView& view,
                                std::string_view line, bool local_peer) {
  auto tokens = util::split_ws(util::trim(line));
  if (tokens.empty()) return make_error(ErrorCode::kInvalidArgument, "empty command");
  ASRANK_TRY(scope, take_selectors(view, tokens));
  const auto cmd = util::to_lower(tokens[0]);
  if (cmd == "ping") return std::string("OK pong");
  if (cmd == "help") return std::string(kHelpText);

  ASRANK_TRY(request, encode_command(view, cmd, tokens, scope, local_peer));
  const auto response = handle_binary_request(view, request.payload, local_peer);
  WireReader reader(response);
  ASRANK_TRY(status, reader.u8());
  if (static_cast<Status>(status) != Status::kOk) {
    return make_error(ErrorCode::kProtocol, reader.rest_as_text());
  }
  return request.render(reader.rest());
}

}  // namespace

// ------------------------------------------------------ request handlers --

std::vector<std::uint8_t> handle_binary_request(
    const SnapshotRegistry::ReadView& view, std::span<const std::uint8_t> payload,
    bool local_peer) {
  // Request decoding runs on the Result rail; a decode Error (truncated
  // operand, unknown opcode, trailing bytes) becomes an error response at
  // this boundary.  The catch-all remains for query execution itself.
  const auto respond = [&view, payload,
                        local_peer]() -> Result<std::vector<std::uint8_t>> {
    WireReader reader(payload);
    ASRANK_TRY(op_byte, reader.u8());
    const auto op = static_cast<Op>(op_byte);
    WireWriter writer;
    writer.u8(static_cast<std::uint8_t>(Status::kOk));
    switch (op) {
      case Op::kEpochs: {
        const auto labels = view.epochs();
        writer.u32(static_cast<std::uint32_t>(labels.size()));
        for (const auto& label : labels) writer.str16(label);
        if (!reader.done()) return trailing_bytes();
        return writer.take();
      }
      case Op::kConeDiff: {
        ASRANK_TRY(asn, reader.u32());
        ASRANK_TRY(label_a, reader.str16());
        ASRANK_TRY(label_b, reader.str16());
        if (!reader.done()) return trailing_bytes();
        ASRANK_TRY(entry_a, require_epoch(view, label_a));
        ASRANK_TRY(entry_b, require_epoch(view, label_b));
        view.owner().request_counters().cone_diffs->inc();
        auto* engine_a = entry_a->engine.get();
        auto* engine_b = entry_b->engine.get();
        const auto cone_a = engine_a->cone(Asn(asn));
        const auto cone_b = engine_b->cone(Asn(asn));
        encode_list(writer, engine_b->cone_minus(Asn(asn), cone_a));  // added in B
        encode_list(writer, engine_a->cone_minus(Asn(asn), cone_b));  // removed in B
        return writer.take();
      }
      case Op::kReload: {
        ASRANK_TRY(path, reader.str16());
        ASRANK_TRY(label, reader.str16());
        if (!reader.done()) return trailing_bytes();
        if (!local_peer) {
          return make_error(ErrorCode::kInvalidArgument,
                            "reload denied: not a local peer");
        }
        ASRANK_TRY(loaded, view.owner().load_file(path, label));
        writer.str16(loaded.label);
        writer.u32(static_cast<std::uint32_t>(loaded.engine->index().as_count()));
        return writer.take();
      }
      case Op::kWithEpoch: {
        ASRANK_TRY(label, reader.str16());
        ASRANK_TRY(entry, require_epoch(view, label));
        WireReader inner(reader.rest());
        ASRANK_TRY(inner_op, inner.u8());
        ASRANK_TRY_VOID(dispatch_entry_op(view, *entry, static_cast<Op>(inner_op),
                                          inner, writer));
        return writer.take();
      }
      default: {
        ASRANK_TRY(entry, require_current(view));
        ASRANK_TRY_VOID(dispatch_entry_op(view, *entry, op, reader, writer));
        return writer.take();
      }
    }
  };

  try {
    auto response = respond();
    if (!response.ok()) return error_response(response.error().context);
    return std::move(response).value();
  } catch (const std::exception& error) {
    return error_response(error.what());
  }
}

std::vector<std::uint8_t> handle_binary_request(SnapshotRegistry& registry,
                                                std::span<const std::uint8_t> payload,
                                                bool local_peer) {
  runtime::ebr::Guard guard(registry.reclaim_domain());
  return handle_binary_request(registry.read_view(), payload, local_peer);
}

std::string handle_text_request(const SnapshotRegistry::ReadView& view,
                                std::string_view line, bool local_peer) {
  try {
    auto reply = answer_text(view, line, local_peer);
    if (!reply.ok()) return "ERR " + reply.error().context;
    return std::move(reply).value();
  } catch (const std::exception& error) {
    return std::string("ERR ") + error.what();
  }
}

std::string handle_text_request(SnapshotRegistry& registry, std::string_view line,
                                bool local_peer) {
  runtime::ebr::Guard guard(registry.reclaim_domain());
  return handle_text_request(registry.read_view(), line, local_peer);
}

// ------------------------------------------- task-runtime worker context --

struct Server::WorkerCtx {
  std::unordered_map<std::uint64_t, std::unique_ptr<TaskConn>> conns;
  /// Connections closed during a dispatch batch; freed on the next pass so a
  /// handler may deregister itself mid-callback (see runtime::IoHandler).
  std::vector<std::unique_ptr<TaskConn>> graveyard;
  runtime::ebr::Domain::Slot* ebr_slot = nullptr;
  std::uint64_t next_conn_id = 1;
};

// -------------------------------------- resumable connection state machine --

/// One task-runtime connection: a buffered, non-blocking state machine that
/// the owning worker resumes from reactor readiness, timer checkpoints, and
/// shutdown.  Requests are parsed out of rbuf_ (binary frames and text lines
/// interleave freely), executed under an EBR guard, and responses accumulate
/// in wbuf_ with write interest armed only while flushes would block.
class Server::TaskConn final : public runtime::IoHandler {
 public:
  TaskConn(Server& server, std::size_t worker, std::uint64_t id, int fd, bool local)
      : server_(server), worker_(worker), id_(id), fd_(fd), local_(local) {}

  [[nodiscard]] bool closed() const noexcept { return closed_; }

  void start() {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
      fail("fcntl(O_NONBLOCK)");
      return;
    }
    if (!reactor().add(fd_, runtime::Reactor::kRead, this)) {
      fail("reactor add");
      return;
    }
    registered_ = true;
    update_timers();
  }

  void on_io(std::uint32_t events) override {
    if (closed_) return;
    if ((events & runtime::Reactor::kWrite) != 0) {
      flush();
      if (closed_) return;
    }
    if ((events & runtime::Reactor::kRead) != 0) handle_readable();
  }

  void on_timer(std::uint32_t kind) {
    if (closed_) return;
    bool& entry = kind == kTimerIdle ? idle_entry_ : deadline_entry_;
    entry = false;
    const auto logical = kind == kTimerIdle ? idle_deadline_ : query_deadline_;
    if (logical == kNever) return;  // deadline lapsed; checkpoint is stale
    const auto now = Clock::now();
    if (now < logical) {
      // The logical deadline moved later (new request / new idle period);
      // re-arm one checkpoint at the current target.
      ensure_timer(kind, logical);
      return;
    }
    if (kind == kTimerIdle) {
      server_.idle_timeouts_total_->inc();
      close_conn(CloseReason::kIdle);
    } else {
      server_.deadline_timeouts_total_->inc();
      close_conn(CloseReason::kDeadline);
    }
  }

  /// Server shutdown: one best-effort non-blocking flush, then close —
  /// "finish the current request, drop the rest".
  void shutdown_close() {
    if (closed_) return;
    close_after_flush(CloseReason::kShutdown);
    flush();
    if (!closed_) close_conn(CloseReason::kShutdown);
  }

 private:
  enum : std::uint32_t { kTimerIdle = 1, kTimerDeadline = 2 };
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNever = Clock::time_point::max();
  static constexpr std::size_t kMaxTextLine = 4096;
  static constexpr std::size_t kReadChunk = 16384;

  runtime::Reactor& reactor() { return server_.scheduler_->reactor(worker_); }

  void handle_readable() {
    bool eof = false;
    char chunk[kReadChunk];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n > 0) {
        rbuf_.insert(rbuf_.end(), chunk, chunk + n);
        continue;  // edge-triggered: drain until EAGAIN
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail_io("recv");
      return;
    }
    process_input();
    if (closed_) return;
    if (eof) {
      if (!rbuf_.empty() && !closing_) {
        // EOF mid-request: a truncated frame or an unterminated line.
        fail("unexpected EOF mid-request");
        return;
      }
      if (!closing_) close_after_flush(CloseReason::kEof);  // flush what we owe
    }
    update_timers();
    flush();
  }

  void process_input() {
    std::size_t pos = 0;
    while (!closed_ && !closing_) {
      const std::size_t avail = rbuf_.size() - pos;
      if (avail == 0) break;
      if (rbuf_[pos] == kBinaryMarker) {
        if (avail < 5) break;  // partial header
        const std::uint32_t len =
            static_cast<std::uint32_t>(rbuf_[pos + 1]) |
            static_cast<std::uint32_t>(rbuf_[pos + 2]) << 8 |
            static_cast<std::uint32_t>(rbuf_[pos + 3]) << 16 |
            static_cast<std::uint32_t>(rbuf_[pos + 4]) << 24;
        if (len > kMaxPayload) {
          fail("frame length " + std::to_string(len) + " exceeds limit");
          return;
        }
        if (avail < 5 + static_cast<std::size_t>(len)) break;  // partial body
        server_.frames_total_->inc();
        const std::span<const std::uint8_t> payload(rbuf_.data() + pos + 5, len);
        std::vector<std::uint8_t> response;
        {
          runtime::ebr::Guard guard(server_.registry_.reclaim_domain(), *ebr_slot());
          response =
              handle_binary_request(server_.registry_.read_view(), payload, local_);
        }
        append_frame(response);
        pos += 5 + static_cast<std::size_t>(len);
      } else {
        const auto* begin = rbuf_.data() + pos;
        const auto* nl =
            static_cast<const std::uint8_t*>(std::memchr(begin, '\n', avail));
        if (nl == nullptr) {
          if (avail > kMaxTextLine) {
            fail("text command too long");
            return;
          }
          break;  // partial line
        }
        const std::size_t line_len = static_cast<std::size_t>(nl - begin);
        if (line_len > kMaxTextLine) {
          fail("text command too long");
          return;
        }
        const std::string_view line(reinterpret_cast<const char*>(begin), line_len);
        pos += line_len + 1;
        const auto trimmed = util::trim(line);
        if (util::iequals(trimmed, "quit") || util::iequals(trimmed, "exit")) {
          close_after_flush(CloseReason::kQuit);
          break;
        }
        server_.text_commands_total_->inc();
        std::string response;
        {
          runtime::ebr::Guard guard(server_.registry_.reclaim_domain(), *ebr_slot());
          response = handle_text_request(server_.registry_.read_view(), line, local_);
        }
        response += '\n';
        wbuf_.insert(wbuf_.end(), response.begin(), response.end());
      }
    }
    if (!closed_ && pos > 0) {
      rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }

  void append_frame(std::span<const std::uint8_t> payload) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    wbuf_.push_back(kBinaryMarker);
    wbuf_.push_back(static_cast<std::uint8_t>(len & 0xFF));
    wbuf_.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
    wbuf_.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
    wbuf_.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
    wbuf_.insert(wbuf_.end(), payload.begin(), payload.end());
  }

  void flush() {
    while (wpos_ < wbuf_.size()) {
      // MSG_NOSIGNAL: a peer that reset the connection is an EPIPE here,
      // not a SIGPIPE that kills the daemon.
      const ssize_t n =
          ::send(fd_, wbuf_.data() + wpos_, wbuf_.size() - wpos_, MSG_NOSIGNAL);
      if (n > 0) {
        wpos_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!want_write_) {
          want_write_ = true;
          reactor().modify(fd_, runtime::Reactor::kRead | runtime::Reactor::kWrite);
        }
        return;
      }
      fail_io("send");
      return;
    }
    wbuf_.clear();
    wpos_ = 0;
    if (want_write_) {
      want_write_ = false;
      reactor().modify(fd_, runtime::Reactor::kRead);
    }
    if (closing_) close_conn(closing_reason_);
  }

  /// Re-derive which logical deadline governs: the query deadline while a
  /// partial request sits in rbuf_, the idle timeout while awaiting a first
  /// byte.  Heap checkpoints are reused lazily (at most one per kind).
  void update_timers() {
    if (closed_ || closing_) {
      idle_deadline_ = kNever;
      query_deadline_ = kNever;
      return;
    }
    if (!rbuf_.empty()) {
      idle_deadline_ = kNever;
      if (server_.config_.query_deadline_ms > 0 && query_deadline_ == kNever) {
        query_deadline_ =
            Clock::now() + std::chrono::milliseconds(server_.config_.query_deadline_ms);
        ensure_timer(kTimerDeadline, query_deadline_);
      }
    } else {
      query_deadline_ = kNever;
      if (server_.config_.idle_timeout_ms > 0) {
        idle_deadline_ =
            Clock::now() + std::chrono::milliseconds(server_.config_.idle_timeout_ms);
        ensure_timer(kTimerIdle, idle_deadline_);
      }
    }
  }

  void ensure_timer(std::uint32_t kind, Clock::time_point deadline) {
    bool& entry = kind == kTimerIdle ? idle_entry_ : deadline_entry_;
    if (entry) return;  // live checkpoint will re-arm itself if needed
    entry = true;
    server_.scheduler_->timers(worker_).schedule(deadline, id_, kind);
  }

  void fail(const std::string& what) {
    server_.protocol_errors_total_->inc();
    obs::log_warn("connection dropped", {{"error", what}});
    close_conn(CloseReason::kError);
  }

  /// A failed recv/send. A peer reset is an expected close: it is counted
  /// by reason and logged at DEBUG; any other errno is a WARN like fail().
  void fail_io(const char* op) {
    const int err = errno;
    const std::string what = std::string(op) + ": " + std::strerror(err);
    if (err != ECONNRESET && err != EPIPE) {
      fail(what);
      return;
    }
    server_.protocol_errors_total_->inc();
    obs::log_debug("connection reset by peer", {{"error", what}});
    close_conn(CloseReason::kPeerReset);
  }

  /// QUIT, clean EOF or shutdown: close once wbuf_ drains, counted under
  /// `reason`.
  void close_after_flush(CloseReason reason) {
    closing_ = true;
    closing_reason_ = reason;
  }

  void close_conn(CloseReason reason) {
    if (closed_) return;
    closed_ = true;
    server_.count_close(reason);
    if (registered_) reactor().remove(fd_);
    ::close(fd_);
    fd_ = -1;
    server_.active_connections_.fetch_sub(1, std::memory_order_relaxed);
    // Defer destruction to the worker's next pass: we may be deep inside
    // this object's own on_io/on_timer frame right now.
    auto& ctx = *server_.worker_ctx_[worker_];
    auto it = ctx.conns.find(id_);
    if (it != ctx.conns.end()) {
      ctx.graveyard.push_back(std::move(it->second));
      ctx.conns.erase(it);
    }
  }

  runtime::ebr::Domain::Slot* ebr_slot() {
    return server_.worker_ctx_[worker_]->ebr_slot;
  }

  Server& server_;
  const std::size_t worker_;
  const std::uint64_t id_;
  int fd_;
  const bool local_;
  bool registered_ = false;
  bool closing_ = false;  ///< QUIT / clean EOF / shutdown: close once wbuf_ drains
  CloseReason closing_reason_ = CloseReason::kEof;
  bool closed_ = false;
  bool want_write_ = false;
  std::vector<std::uint8_t> rbuf_;
  std::vector<std::uint8_t> wbuf_;
  std::size_t wpos_ = 0;
  Clock::time_point idle_deadline_ = kNever;
  Clock::time_point query_deadline_ = kNever;
  bool idle_entry_ = false;      ///< an idle checkpoint is in the timer heap
  bool deadline_entry_ = false;  ///< a deadline checkpoint is in the heap
};


// ---------------------------------------------------------------- server --

Server::Server(SnapshotRegistry& registry, ServerConfig config)
    : registry_(registry),
      config_(std::move(config)),
      connections_total_(&registry.registry().counter(
          "asrankd_connections_total", "TCP connections accepted")),
      frames_total_(&registry.registry().counter(
          "asrankd_frames_total", "Binary request frames served")),
      text_commands_total_(&registry.registry().counter(
          "asrankd_text_commands_total", "Text-mode command lines served")),
      protocol_errors_total_(&registry.registry().counter(
          "asrankd_protocol_errors_total",
          "Connections dropped on framing or socket errors")),
      shed_total_(&registry.registry().counter(
          "asrankd_connections_shed_total",
          "Connections refused at the admission limit")),
      idle_timeouts_total_(&registry.registry().counter(
          "asrankd_idle_timeouts_total",
          "Connections closed after the idle timeout")),
      deadline_timeouts_total_(&registry.registry().counter(
          "asrankd_deadline_timeouts_total",
          "Connections closed when a request missed its read deadline")),
      admission_steals_total_(&registry.registry().counter(
          "asrankd_runtime_admission_steals_total",
          "Admissions adopted by a worker other than the acceptor's hint")) {
  static constexpr std::array kCloseReasons = {
      "eof", "quit", "idle", "deadline", "shutdown", "peer_reset", "error"};
  static_assert(kCloseReasons.size() == std::tuple_size_v<decltype(closed_total_)>);
  for (std::size_t i = 0; i < kCloseReasons.size(); ++i) {
    closed_total_[i] = &registry.registry().counter(
        "asrankd_connections_closed_total", "Connections closed, by reason",
        {{"reason", kCloseReasons[i]}});
  }

  // threads == 0 means "use every hardware thread", matching
  // InferenceConfig::threads; the resolved count is logged and exported so
  // deployments can see what 0 meant on this machine.
  threads_ = util::resolve_threads(config_.threads);
  registry.registry()
      .gauge("asrankd_worker_threads", "Resolved serving worker count")
      .set(static_cast<std::int64_t>(threads_));

  // The worker poll tick bounds both idle-timeout resolution and the
  // worst-case lag before a worker notices anything its wakeup path does
  // not already cover; derive it from the idle timeout instead of a fixed
  // 200ms so short timeouts stay accurate.
  poll_tick_ms_ = 200;
  if (config_.idle_timeout_ms > 0) {
    poll_tick_ms_ = std::clamp(config_.idle_timeout_ms / 4, 5, 200);
  }

  if (::pipe(stop_pipe_) != 0) sys_fail("pipe");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw ProtocolError("bad listen address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    sys_fail("bind " + config_.host + ":" + std::to_string(config_.port));
  }
  if (::listen(listen_fd_, config_.backlog) != 0) sys_fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    sys_fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  obs::log_info("asrankd workers resolved",
                {{"requested", config_.threads}, {"resolved", threads_}});
}

Server::~Server() {
  if (scheduler_) {
    scheduler_->stop();
    scheduler_->join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
  }
  if (g_signal_fd.load(std::memory_order_relaxed) == stop_pipe_[1]) {
    g_signal_fd.store(-1, std::memory_order_relaxed);
  }
}

void Server::install_signal_handlers() {
  g_signal_fd.store(stop_pipe_[1], std::memory_order_relaxed);
  struct sigaction action{};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGHUP, &action, nullptr);
}

void Server::stop() noexcept {
  const char byte = 's';
  [[maybe_unused]] const auto n = ::write(stop_pipe_[1], &byte, 1);
}

void Server::run() {
  runtime::TaskSchedulerConfig scfg;
  scfg.workers = threads_;
  scfg.tick_ms = poll_tick_ms_;
  scheduler_ = std::make_unique<runtime::TaskScheduler>(scfg, &registry_.registry());

  // Admission capacity tracks the connection bound, so with max_connections
  // set the queue can never overflow (queued-but-unadopted sockets already
  // count against active_connections_).
  const std::size_t admission_cap =
      config_.max_connections > 0 ? std::max<std::size_t>(config_.max_connections, 64)
                                  : 4096;
  admissions_ = std::make_unique<runtime::BoundedMpmcQueue<Admission>>(admission_cap);

  worker_ctx_.clear();
  for (std::size_t i = 0; i < threads_; ++i) {
    worker_ctx_.push_back(std::make_unique<WorkerCtx>());
  }

  runtime::TaskScheduler::Hooks hooks;
  hooks.on_start = [this](std::size_t w) {
    worker_ctx_[w]->ebr_slot = registry_.reclaim_domain().acquire_slot();
  };
  hooks.on_stop = [this](std::size_t w) { close_worker_connections(w); };
  hooks.on_pass = [this](std::size_t w) {
    const bool did = drain_admissions(w);
    registry_.reclaim_pass();
    return did;
  };
  hooks.on_timer = [this](std::size_t w, std::uint64_t id, std::uint32_t kind) {
    conn_timer_fired(w, id, kind);
  };
  scheduler_->start(std::move(hooks));

  accept_loop();

  scheduler_->stop();
  scheduler_->join();
  // Sockets accepted but never adopted by a worker.
  while (auto admission = admissions_->try_pop()) {
    ::close(admission->fd);
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
    count_close(CloseReason::kShutdown);
  }
  scheduler_.reset();
  admissions_.reset();
  worker_ctx_.clear();
}

void Server::shed(int fd) {
  // One parseable text line, then close.  Binary clients recognize the
  // non-0x01 first byte as a shed notice.
  static constexpr char kShedLine[] =
      "ERR shedding: connection limit reached, retry later\n";
  [[maybe_unused]] const auto w = ::write(fd, kShedLine, sizeof kShedLine - 1);
  ::close(fd);
  shed_total_->inc();
}

void Server::accept_loop() {
  bool stopping = false;
  while (!stopping) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      // Drain pending command bytes: 's' = stop, 'h' = SIGHUP reload.
      char cmds[16];
      const ssize_t n = ::read(stop_pipe_[0], cmds, sizeof cmds);
      bool reload = false;
      for (ssize_t i = 0; i < n; ++i) {
        if (cmds[i] == 's') stopping = true;
        if (cmds[i] == 'h') reload = true;
      }
      if (reload && !stopping) {
        if (config_.reload_path.empty()) {
          obs::log_warn("SIGHUP ignored: no --reload snapshot path configured");
        } else {
          // Errors are already counted and logged by the registry; the old
          // epoch keeps serving either way.
          (void)registry_.load_file(config_.reload_path, config_.reload_label);
        }
      }
      if (stopping) break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      sockaddr_in peer{};
      socklen_t peer_len = sizeof peer;
      const int client =
          ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
      if (client < 0) continue;
      if (config_.max_connections > 0 &&
          active_connections_.load(std::memory_order_relaxed) >=
              config_.max_connections) {
        shed(client);
        continue;
      }
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const bool local =
          (ntohl(peer.sin_addr.s_addr) >> 24) == 127;  // 127.0.0.0/8
      connections_.fetch_add(1, std::memory_order_relaxed);
      active_connections_.fetch_add(1, std::memory_order_relaxed);
      connections_total_->inc();
      const auto hint = next_hint_++ % static_cast<std::uint32_t>(threads_);
      if (!admissions_->try_push(Admission{client, local, hint})) {
        // Admission queue full (only reachable with max_connections == 0):
        // shed exactly like the accept-path limit, undoing the active count.
        shed(client);
        active_connections_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      scheduler_->notify(hint);
    }
  }
}

bool Server::drain_admissions(std::size_t worker) {
  auto& ctx = *worker_ctx_[worker];
  bool did = !ctx.graveyard.empty();
  ctx.graveyard.clear();
  if (admissions_->size_approx() == 0) return did;
  while (auto admission = admissions_->try_pop()) {
    adopt_connection(worker, *admission);
    did = true;
  }
  return did;
}

void Server::adopt_connection(std::size_t worker, const Admission& admission) {
  if (admission.hint != worker) admission_steals_total_->inc();
  auto& ctx = *worker_ctx_[worker];
  const std::uint64_t id = ctx.next_conn_id++;
  auto conn = std::make_unique<TaskConn>(*this, worker, id, admission.fd,
                                         admission.local);
  TaskConn* raw = conn.get();
  ctx.conns.emplace(id, std::move(conn));
  raw->start();
  // Data may have arrived before registration; both backends report initial
  // readiness, but one explicit kick makes it deterministic.
  if (!raw->closed()) raw->on_io(runtime::Reactor::kRead);
}

void Server::conn_timer_fired(std::size_t worker, std::uint64_t conn_id,
                              std::uint32_t kind) {
  auto& ctx = *worker_ctx_[worker];
  const auto it = ctx.conns.find(conn_id);
  if (it == ctx.conns.end()) return;  // connection already gone; stale checkpoint
  it->second->on_timer(kind);
}

void Server::close_worker_connections(std::size_t worker) {
  auto& ctx = *worker_ctx_[worker];
  std::vector<TaskConn*> open;
  open.reserve(ctx.conns.size());
  for (auto& [id, conn] : ctx.conns) open.push_back(conn.get());
  for (auto* conn : open) conn->shutdown_close();  // moves entries to graveyard
  ctx.graveyard.clear();
  ctx.conns.clear();
  if (ctx.ebr_slot != nullptr) {
    registry_.reclaim_domain().release_slot(ctx.ebr_slot);
    ctx.ebr_slot = nullptr;
  }
}

}  // namespace asrank::serve
