#include "serve/query_engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <sstream>
#include <vector>

#include "obs/timer.h"

namespace asrank::serve {

namespace {

/// Reusable BFS state, keyed by dense node id.  Visited-tracking is an
/// epoch stamp rather than a per-query clear or hash map: a node is visited
/// in the current query iff stamp[id] == epoch, so each query costs one
/// counter bump instead of an O(n) reset or per-hop hashing.  thread_local
/// makes concurrent queries allocation-free and race-free; the arrays grow
/// to the largest index served on this thread and are reused across engines.
struct BfsScratch {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> queue;
  std::uint32_t epoch = 0;
};

constexpr std::uint32_t kNoParent = 0xffffffffu;

}  // namespace

std::string_view to_string(QueryType type) noexcept {
  switch (type) {
    case QueryType::kRelationship: return "relationship";
    case QueryType::kRank: return "rank";
    case QueryType::kConeSize: return "cone_size";
    case QueryType::kCone: return "cone";
    case QueryType::kInCone: return "in_cone";
    case QueryType::kNeighborSet: return "neighbor_set";
    case QueryType::kTop: return "top";
    case QueryType::kConeIntersect: return "cone_intersect";
    case QueryType::kPathToClique: return "path_to_clique";
    case QueryType::kClique: return "clique";
    case QueryType::kStats: return "stats";
    case QueryType::kPing: return "ping";
  }
  return "?";
}

// ---------------------------------------------------------------- timer --

class QueryEngine::Timer {
 public:
  Timer(QueryEngine& engine, QueryType type) noexcept
      : engine_(engine), type_(type), start_(std::chrono::steady_clock::now()) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() {
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    engine_.record(type_, static_cast<std::uint64_t>(micros));
  }

 private:
  QueryEngine& engine_;
  QueryType type_;
  std::chrono::steady_clock::time_point start_;
};

void QueryEngine::record(QueryType type, std::uint64_t micros) {
  latency_[static_cast<std::size_t>(type)]->observe(micros);
  queries_total_->inc();
  algo_queries_total_->inc();
}

// --------------------------------------------------------------- engine --

QueryEngine::QueryEngine(std::shared_ptr<const snapshot::SnapshotIndex> index,
                         obs::Registry* registry, core::ConeBitsetConfig cone_config,
                         std::size_t algo_slot)
    : index_(std::move(index)),
      view_(&index_->algorithm_at(algo_slot)),
      algo_name_(index_->algorithm_names()[algo_slot]),
      registry_(registry),
      cone_config_(cone_config) {
  for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
    const obs::Labels labels = {
        {"type", std::string(to_string(static_cast<QueryType>(i)))}};
    latency_[i] = &registry_->histogram("asrankd_query_latency_micros",
                                        "Latency of one served query",
                                        obs::kLatencyBucketsMicros, labels);
  }
  queries_total_ = &registry_->counter("asrankd_queries_total",
                                       "Queries served across all types");
  algo_queries_total_ =
      &registry_->counter("asrankd_algo_queries_total",
                          "Queries served, by answering inference algorithm",
                          {{"algo", algo_name_}});
  const char* kernel_help =
      "Cone intersection/diff/membership queries by answering kernel";
  kernel_bitset_ = &registry_->counter("asrankd_cone_kernel_total", kernel_help,
                                       {{"kernel", "bitset"}});
  kernel_hybrid_ = &registry_->counter("asrankd_cone_kernel_total", kernel_help,
                                       {{"kernel", "hybrid"}});
  kernel_sorted_ = &registry_->counter("asrankd_cone_kernel_total", kernel_help,
                                       {{"kernel", "sorted"}});
}

QueryEngine::QueryEngine(snapshot::SnapshotIndex index, obs::Registry* registry,
                         core::ConeBitsetConfig cone_config)
    : QueryEngine(std::make_shared<const snapshot::SnapshotIndex>(std::move(index)),
                  registry, cone_config) {}

const core::ConeBitset& QueryEngine::cone_bits() {
  std::call_once(cone_bits_once_, [this] {
    obs::ScopedTimer timer(&registry_->histogram(
        "asrankd_cone_bitset_build_micros",
        "Wall time of one lazy per-epoch ConeBitset build"));
    auto bits = std::make_unique<const core::ConeBitset>(
        view_->ases(), view_->cone_offsets(), view_->cone_members(),
        cone_config_);
    registry_->gauge("asrankd_cone_bitset_rows",
                     "Materialized cone bit rows in the newest built epoch")
        .set(static_cast<std::int64_t>(bits->row_count()));
    registry_->gauge("asrankd_cone_bitset_bytes",
                     "Bytes held by the newest built epoch's cone bitset")
        .set(static_cast<std::int64_t>(bits->memory_bytes()));
    cone_bits_store_ = std::move(bits);
  });
  return *cone_bits_store_;
}

std::optional<RelView> QueryEngine::relationship(Asn a, Asn b) {
  Timer timer(*this, QueryType::kRelationship);
  return view_->relationship(a, b);
}

std::optional<std::uint32_t> QueryEngine::rank(Asn as) {
  Timer timer(*this, QueryType::kRank);
  return view_->rank(as);
}

std::size_t QueryEngine::cone_size(Asn as) {
  Timer timer(*this, QueryType::kConeSize);
  return view_->cone_size(as);
}

std::span<const Asn> QueryEngine::cone(Asn as) {
  Timer timer(*this, QueryType::kCone);
  return view_->cone(as);
}

bool QueryEngine::in_cone(Asn as, Asn member) {
  Timer timer(*this, QueryType::kInCone);
  kernel_sorted_->inc();
  return view_->in_cone(as, member);
}

std::vector<Asn> QueryEngine::providers(Asn as) {
  Timer timer(*this, QueryType::kNeighborSet);
  return view_->providers(as);
}

std::vector<Asn> QueryEngine::customers(Asn as) {
  Timer timer(*this, QueryType::kNeighborSet);
  return view_->customers(as);
}

std::vector<Asn> QueryEngine::peers(Asn as) {
  Timer timer(*this, QueryType::kNeighborSet);
  return view_->peers(as);
}

std::vector<snapshot::TopEntry> QueryEngine::top(std::size_t n) {
  Timer timer(*this, QueryType::kTop);
  return view_->top(n);
}

std::span<const Asn> QueryEngine::clique() {
  Timer timer(*this, QueryType::kClique);
  return view_->clique();
}

void QueryEngine::ping() { Timer timer(*this, QueryType::kPing); }

AsnList QueryEngine::cone_intersection(Asn a, Asn b) {
  Timer timer(*this, QueryType::kConeIntersect);
  auto result = std::make_shared<std::vector<Asn>>();
  const auto id_a = view_->node_id(a);
  const auto id_b = view_->node_id(b);
  const auto& bits = cone_bits();
  const bool row_a = id_a && bits.has_row(*id_a);
  const bool row_b = id_b && bits.has_row(*id_b);
  if (row_a && row_b) {
    // Word-wise AND + ascending-id extraction; ascending id ≡ ascending
    // ASN, so this matches the sorted merge bit for bit.
    const auto ids = bits.intersect_ids(*id_a, *id_b);
    result->reserve(ids.size());
    for (const std::uint32_t id : ids) result->push_back(view_->asn_at(id));
    kernel_bitset_->inc();
  } else if (row_a || row_b) {
    // One row only: probe the other (small, sorted) cone against it.
    const std::uint32_t row_id = row_a ? *id_a : *id_b;
    for (const Asn member : view_->cone(row_a ? b : a)) {
      const auto member_id = view_->node_id(member);
      if (member_id && bits.contains(row_id, *member_id)) {
        result->push_back(member);
      }
    }
    kernel_hybrid_->inc();
  } else {
    const auto cone_a = view_->cone(a);
    const auto cone_b = view_->cone(b);
    std::set_intersection(cone_a.begin(), cone_a.end(), cone_b.begin(),
                          cone_b.end(), std::back_inserter(*result));
    kernel_sorted_->inc();
  }
  return result;
}

std::vector<Asn> QueryEngine::cone_minus(Asn as, std::span<const Asn> other) {
  // Both sides are ascending ASN arrays, and one AS's cones in two epochs
  // are nearly equal, so the merge is a predictable linear walk.
  const auto mine = view_->cone(as);
  std::vector<Asn> out;
  std::set_difference(mine.begin(), mine.end(), other.begin(), other.end(),
                      std::back_inserter(out));
  kernel_sorted_->inc();
  return out;
}

AsnList QueryEngine::path_to_clique(Asn as) {
  Timer timer(*this, QueryType::kPathToClique);
  auto result = std::make_shared<std::vector<Asn>>();
  if (const auto root = view_->node_id(as)) {
    // BFS over provider links on dense node ids.  Frontier order is
    // deterministic: neighbor rows ascend by id (≡ ascending ASN) and the
    // flat queue preserves insertion order, so the first clique member found
    // — and the parent chain behind it — is the same on every run.
    thread_local BfsScratch scratch;
    const std::size_t n = view_->as_count();
    if (scratch.stamp.size() < n) {
      scratch.stamp.resize(n, 0);
      scratch.parent.resize(n);
    }
    if (++scratch.epoch == 0) {  // wrapped: stamps from 2^32 queries ago linger
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
      scratch.epoch = 1;
    }
    const std::uint32_t epoch = scratch.epoch;
    scratch.queue.clear();
    scratch.stamp[*root] = epoch;
    scratch.parent[*root] = kNoParent;
    scratch.queue.push_back(*root);
    std::uint32_t found = kNoParent;
    for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
      const std::uint32_t current = scratch.queue[head];
      if (view_->id_in_clique(current)) {
        found = current;
        break;
      }
      const auto neighbors = view_->neighbor_ids(current);
      const auto rels = view_->relationship_codes(current);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (static_cast<RelView>(rels[i]) != RelView::kProvider) continue;
        const std::uint32_t provider = neighbors[i];
        // snapshot::kNoNeighborId guard: only reachable through a crafted
        // CRC-valid mmap'd file; never index scratch out of bounds.
        if (provider >= n) continue;
        if (scratch.stamp[provider] == epoch) continue;
        scratch.stamp[provider] = epoch;
        scratch.parent[provider] = current;
        scratch.queue.push_back(provider);
      }
    }
    if (found != kNoParent) {
      for (std::uint32_t hop = found; hop != kNoParent; hop = scratch.parent[hop]) {
        result->push_back(view_->asn_at(hop));
      }
      std::reverse(result->begin(), result->end());
    }
  }
  return result;
}

std::array<QueryStats, kQueryTypeCount> QueryEngine::stats() const {
  // A thin view over the registry series: histogram count/sum reproduce the
  // former count/total_micros tallies exactly (both are plain u64 sums).
  std::array<QueryStats, kQueryTypeCount> out;
  for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
    out[i].count = latency_[i]->count();
    out[i].total_micros = latency_[i]->sum();
  }
  return out;
}

void QueryEngine::record_stats_query() { record(QueryType::kStats, 0); }

std::string QueryEngine::render_stats() const {
  const auto snapshot = stats();
  std::ostringstream os;
  os << "query_type count cache_hits avg_micros\n";
  for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
    const auto& s = snapshot[i];
    const double avg = s.count == 0 ? 0.0
                                    : static_cast<double>(s.total_micros) /
                                          static_cast<double>(s.count);
    os << to_string(static_cast<QueryType>(i)) << ' ' << s.count << " 0 " << avg
       << '\n';
  }
  return os.str();
}

}  // namespace asrank::serve
