#include "core/asrank.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <span>

#include "core/cones.h"

#include "obs/log.h"
#include "obs/timer.h"
#include "topology/interner.h"
#include "topology/topology_view.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace asrank::core {

namespace {

using paths::PathCorpus;
using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;

constexpr std::uint32_t kNoLink = 0xffffffffu;

constexpr std::uint64_t pack(NodeId a, NodeId b) noexcept {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return static_cast<std::uint64_t>(lo) << 32 | hi;
}

constexpr NodeId lo_of(std::uint64_t key) noexcept {
  return static_cast<NodeId>(key >> 32);
}
constexpr NodeId hi_of(std::uint64_t key) noexcept { return static_cast<NodeId>(key); }
/// A repeated hop packed as a pair (a prepending run left uncompressed).
constexpr bool is_self_pair(std::uint64_t key) noexcept { return lo_of(key) == hi_of(key); }

/// Working state for one observed link during inference.
struct LinkState {
  enum class Kind : std::uint8_t { kUnknown, kC2pLoProv, kC2pHiProv, kP2pFixed, kS2S };
  Kind kind = Kind::kUnknown;
  std::uint32_t votes_lo_prov = 0;  ///< votes that the lower-id side provides
  std::uint32_t votes_hi_prov = 0;
  std::uint32_t observations = 0;   ///< times the link appeared in paths
};

/// Packed link keys -> slots, filled from many threads at once: a key
/// claims an empty slot by compare-and-swap, so which slot it gets depends
/// on timing, but the set of keys does not.  Sized once for at most
/// `max_keys` keys (load <= 2/3), like util::HashIndex.
class LinkSlots {
 public:
  explicit LinkSlots(std::size_t max_keys)
      : keys_(std::bit_ceil(std::max<std::size_t>(16, max_keys + max_keys / 2 + 1)), kEmpty),
        mask_(keys_.size() - 1) {}

  /// The slot holding `key`, claimed now if no slot holds it yet.
  std::uint32_t insert(std::uint64_t key) noexcept {
    for (std::size_t i = util::splitmix64(key) & mask_;; i = (i + 1) & mask_) {
      std::atomic_ref<std::uint64_t> slot(keys_[i]);
      std::uint64_t held = slot.load(std::memory_order_relaxed);
      if (held == kEmpty && slot.compare_exchange_strong(held, key, std::memory_order_relaxed)) {
        return static_cast<std::uint32_t>(i);
      }
      if (held == key) return static_cast<std::uint32_t>(i);
    }
  }

  /// The slot holding `key`, which must be in the table; only once no
  /// insert is running.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept {
    std::size_t i = util::splitmix64(key) & mask_;
    while (keys_[i] != key) i = (i + 1) & mask_;
    return static_cast<std::uint32_t>(i);
  }

  [[nodiscard]] std::size_t slot_count() const noexcept { return keys_.size(); }
  [[nodiscard]] std::uint64_t key(std::size_t slot) const noexcept { return keys_[slot]; }

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};  ///< no real pack(a, b)

 private:
  std::vector<std::uint64_t> keys_;
  std::size_t mask_;
};

/// The pipeline's working state is entirely dense.  Sanitizing builds a
/// paths::PathArena: every distinct surviving path stored once as NodeIds
/// over one AsnInterner, plus per-record path ids.  Degrees, clique,
/// poisoned scan, link table and voting walk the distinct paths (votes and
/// observations weighted by how many records carry each path); only the
/// order-sensitive fixpoint visits records, walking a record's path span
/// again only after a commit to one of its links.  Step 4 cuts the arena
/// itself: it drops the records of poisoned paths (PathArena::drop_paths),
/// so every later stage reads arena_.records() directly.  The link
/// table is a sorted vector of packed (lo, hi) id
/// pairs with a parallel LinkState array, and per-hop link indices sit
/// parallel to the arena's hop buffer, so the vote and fixpoint inner loops
/// never hash and never binary-search.  It is built in pool chunks over the
/// surviving paths: each hop's packed pair claims or finds its slot in a
/// LinkSlots table (sized by the degree tally's distinct-pair count, so it
/// stays cache-resident) and the hop keeps the slot; then the distinct
/// keys are sorted and the per-hop slots renumbered to sorted order, so no
/// id depends on which chunk saw a link first.  Interner ids ascend with
/// ASN, so id comparisons and tie-breaks equal the ASN-based ones.
/// Finalize turns the sorted link table straight into the result's
/// TopologyView, and the cut arena, the post-step-4 corpus, moves into the
/// result beside it.
class Pipeline {
 public:
  Pipeline(const InferenceConfig& config, const PathCorpus& raw)
      : config_(config), pool_(config.threads) {
    run(raw);
  }

  InferenceResult take() {
    result_.arena = std::move(arena_);
    return std::move(result_);
  }

 private:
  void run(const PathCorpus& raw);
  void discard_poisoned();
  void index_paths_and_links();
  void detect_partial_vps();
  void vote_on_paths();
  void commit_votes();
  void triplet_fixpoint();
  void repair_provider_less();
  void stub_clique_pass();
  void enforce_transit_free_clique();
  void finalize_graph();
  [[nodiscard]] topology::TopologyView link_table_view() const;
  void repair_cycles();

  [[nodiscard]] bool in_clique(NodeId id) const noexcept {
    return id != kNoNode && clique_bits_[id];
  }
  [[nodiscard]] std::uint32_t link_index(NodeId a, NodeId b) const noexcept {
    const std::uint64_t key = pack(a, b);
    const auto it = std::lower_bound(link_keys_.begin(), link_keys_.end(), key);
    if (it == link_keys_.end() || *it != key) return kNoLink;
    return static_cast<std::uint32_t>(it - link_keys_.begin());
  }
  void set_c2p(std::uint32_t link, NodeId provider, NodeId customer) noexcept {
    link_state_[link].kind = provider < customer ? LinkState::Kind::kC2pLoProv
                                                 : LinkState::Kind::kC2pHiProv;
  }

  [[nodiscard]] const AsnInterner& interner() const noexcept { return arena_.interner(); }

  /// Path p survived step 4 and places links (see index_paths_and_links).
  [[nodiscard]] bool places_links(std::size_t p) const noexcept {
    return weight_[p].first + weight_[p].second > 0;
  }
  /// Link indices aligned with arena_.path(p): entry j (j >= 1) is the link
  /// between hops j-1 and j; entry 0 is kNoLink.
  [[nodiscard]] std::span<const std::uint32_t> links_of(std::size_t p) const noexcept {
    return std::span<const std::uint32_t>(link_of_hop_)
        .subspan(arena_.offset(p), arena_.path(p).size());
  }

  const InferenceConfig& config_;
  util::ThreadPool pool_;
  InferenceResult result_;

  paths::PathArena arena_;             ///< sanitized distinct paths; its interner is the id space
  std::vector<bool> clique_bits_;      ///< by NodeId
  std::vector<std::uint8_t> transit_bits_;  ///< seen between two other ASes

  std::vector<std::uint8_t> rec_partial_;  ///< by record: from a partial-view VP
  /// Per path: records carrying it from full / partial-view VPs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> weight_;

  std::vector<std::uint64_t> link_keys_;   ///< sorted packed (lo, hi) id pairs
  std::vector<LinkState> link_state_;      ///< parallel to link_keys_
  std::vector<std::uint32_t> link_of_hop_; ///< parallel to the arena hop buffer

  /// Arena id -> id in the result's view (the link endpoints, compacted in
  /// order), kNoNode for an AS on no link; view_interner_ is the inverse.
  std::vector<NodeId> view_id_;
  AsnInterner view_interner_;
};

void Pipeline::run(const PathCorpus& raw) {
  // Step 1: sanitize.
  obs::log_debug("inference start", {{"records", raw.records().size()},
                                     {"threads", config_.threads}});
  {
    obs::StageTimer timer("sanitize");
    arena_ = paths::PathArena::build(raw, config_.sanitizer, pool_);
  }
  result_.audit.sanitize = arena_.stats();

  // Step 2: rank.  The arena's interner (every sanitized AS) is the id space
  // of every later stage; poisoned-path discard only removes whole paths.
  {
    obs::StageTimer timer("degree_tally");
    result_.degrees = Degrees::compute(arena_, pool_);
  }
  result_.audit.ranked_ases = result_.degrees.ranked().size();

  // Step 3: clique.
  {
    obs::StageTimer timer("clique");
    result_.clique = infer_clique(arena_, result_.degrees, config_.clique);
  }
  clique_bits_.assign(interner().size(), false);
  for (const Asn member : result_.clique) clique_bits_[interner().id_of(member)] = true;
  result_.audit.clique_size = result_.clique.size();

  // Step 4: discard poisoned paths.
  {
    obs::StageTimer timer("poisoned_scan");
    discard_poisoned();
  }

  // Step 5, then register every observed link and transit AS of the
  // surviving paths.  Clique-internal links are p2p by assumption A1.
  {
    obs::StageTimer timer("link_table");
    detect_partial_vps();
    index_paths_and_links();
    for (std::size_t i = 0; i < result_.clique.size(); ++i) {
      for (std::size_t j = i + 1; j < result_.clique.size(); ++j) {
        const std::uint32_t link = link_index(interner().id_of(result_.clique[i]),
                                              interner().id_of(result_.clique[j]));
        if (link != kNoLink) link_state_[link].kind = LinkState::Kind::kP2pFixed;
      }
    }
  }

  // Steps 6-11.
  {
    obs::StageTimer timer("voting");
    vote_on_paths();
    commit_votes();
  }
  if (config_.triplet_fixpoint) {
    obs::StageTimer timer("valley_fixpoint");
    triplet_fixpoint();
  }
  {
    obs::StageTimer timer("repairs");
    if (config_.provider_less_repair) repair_provider_less();
    if (config_.stub_clique_pass) stub_clique_pass();
    enforce_transit_free_clique();
  }
  {
    obs::StageTimer timer("finalize");
    finalize_graph();
    repair_cycles();
  }
  obs::log_debug("inference complete",
                 {{"clique_size", result_.audit.clique_size},
                  {"ranked_ases", result_.audit.ranked_ases},
                  {"p2c_acyclic", result_.audit.p2c_acyclic}});
}

void Pipeline::discard_poisoned() {
  // Per-path classification is independent, so it parallelizes; the cut
  // keeps the surviving records in the original record order.
  std::vector<std::uint8_t> poisoned(arena_.path_count(), 0);
  if (config_.discard_poisoned && !result_.clique.empty()) {
    pool_.for_each_index(arena_.path_count(), [&](std::size_t p) {
      const auto hops = arena_.path(p);
      std::size_t first = hops.size(), last = 0, count = 0;
      for (std::size_t i = 0; i < hops.size(); ++i) {
        if (in_clique(hops[i])) {
          first = std::min(first, i);
          last = std::max(last, i);
          ++count;
        }
      }
      // Clique hops must form one contiguous segment; a gap means a
      // non-clique AS sits between two tier-1s, the poisoning signature.
      poisoned[p] = count > 0 && (last - first + 1) != count;
    });
  }
  result_.audit.poisoned_discarded = arena_.drop_paths(poisoned);
}

void Pipeline::index_paths_and_links() {
  const std::size_t path_count = arena_.path_count();
  const auto records = arena_.records();
  weight_.assign(path_count, {0, 0});
  for (std::size_t r = 0; r < records.size(); ++r) {
    auto& [full, partial] = weight_[records[r].path];
    ++(rec_partial_[r] ? partial : full);
  }
  // An AS0 hop kept by a permissive SanitizerConfig has no NodeId and no
  // graph node, so its path places no link and casts no vote (it still
  // counted toward degrees and the clique).
  pool_.for_chunks(path_count, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      const auto hops = arena_.path(p);
      if (std::find(hops.begin(), hops.end(), kNoNode) != hops.end()) weight_[p] = {0, 0};
    }
  });

  // Link table: each hop's packed pair claims or finds its slot, and the hop
  // keeps the slot.  Observed links are distinct pairs of the degree tally
  // plus, when the sanitizer leaves prepending uncompressed, at most one
  // self-pair per node; that bounds the table.
  const std::size_t n = interner().size();
  transit_bits_.assign(n, 0);
  link_of_hop_.assign(arena_.hop_count(), kNoLink);
  LinkSlots slots(result_.degrees.adjacency().pair_count() + n);
  pool_.for_chunks(path_count, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      if (!places_links(p)) continue;
      const auto hops = arena_.path(p);
      for (std::size_t i = 1; i < hops.size(); ++i) {
        link_of_hop_[arena_.offset(p) + i] = slots.insert(pack(hops[i - 1], hops[i]));
        if (i + 1 < hops.size()) {
          std::atomic_ref<std::uint8_t> transit(transit_bits_[hops[i]]);
          if (transit.load(std::memory_order_relaxed) == 0) {
            transit.store(1, std::memory_order_relaxed);
          }
        }
      }
    }
  });

  // Gather the keys, each chunk sorting its share, and merge the shares.
  std::vector<std::size_t> share(pool_.worker_count() + 1, 0);  // keys before chunk c
  pool_.for_chunks(slots.slot_count(), [&](std::size_t c, std::size_t begin, std::size_t end) {
    std::size_t count = 0;
    for (std::size_t i = begin; i < end; ++i) count += slots.key(i) != LinkSlots::kEmpty;
    share[c + 1] = count;
  });
  for (std::size_t c = 1; c < share.size(); ++c) share[c] += share[c - 1];
  link_keys_.resize(share.back());
  pool_.for_chunks(slots.slot_count(), [&](std::size_t c, std::size_t begin, std::size_t end) {
    std::uint64_t* const first = link_keys_.data() + share[c];
    std::uint64_t* out = first;
    for (std::size_t i = begin; i < end; ++i) {
      if (slots.key(i) != LinkSlots::kEmpty) *out++ = slots.key(i);
    }
    std::sort(first, out);
  });
  for (std::size_t c = 2; c < share.size(); ++c) {
    const auto at = [&](std::size_t i) {
      return link_keys_.begin() + static_cast<std::ptrdiff_t>(share[i]);
    };
    std::inplace_merge(at(0), at(c - 1), at(c));
  }

  // Renumber the per-hop slots to sorted order, so the vote and fixpoint
  // loops walk these flat arrays with zero lookups, and add each path's
  // records to its links' observations, per chunk.
  std::vector<std::uint32_t> link_of_slot(slots.slot_count());
  pool_.for_chunks(link_keys_.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      link_of_slot[slots.find(link_keys_[k])] = static_cast<std::uint32_t>(k);
    }
  });
  pool_.for_chunks(link_of_hop_.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t h = begin; h < end; ++h) {
      if (link_of_hop_[h] != kNoLink) link_of_hop_[h] = link_of_slot[link_of_hop_[h]];
    }
  });
  const std::size_t links = link_keys_.size();
  std::vector<std::uint32_t> seen(pool_.worker_count() * links, 0);
  pool_.for_chunks(path_count, [&](std::size_t c, std::size_t begin, std::size_t end) {
    std::uint32_t* observations = seen.data() + c * links;
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint32_t carried = weight_[p].first + weight_[p].second;
      for (const std::uint32_t link : links_of(p)) {
        if (link != kNoLink) observations[link] += carried;
      }
    }
  });
  link_state_.assign(links, LinkState{});
  pool_.for_chunks(links, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t c = 0; c < pool_.worker_count(); ++c) {
      for (std::size_t k = begin; k < end; ++k) link_state_[k].observations += seen[c * links + k];
    }
  });
}

void Pipeline::detect_partial_vps() {
  const auto records = arena_.records();
  rec_partial_.assign(records.size(), 0);
  if (config_.partial_vp_threshold <= 0.0 || records.empty()) return;
  // Position of `vp` in the sorted `vps`; runs of one VP skip the search.
  const auto position = [](std::span<const Asn> vps, Asn vp, std::size_t hint) {
    if (hint < vps.size() && vps[hint] == vp) return hint;
    return static_cast<std::size_t>(std::lower_bound(vps.begin(), vps.end(), vp) - vps.begin());
  };

  // The few distinct VPs: each chunk keeps its own sorted list in its slice
  // of `found`, and the lists are merged.
  const std::size_t chunks = pool_.worker_count();
  const std::vector<std::size_t> bounds = pool_.chunk_bounds(records.size());
  std::vector<Asn> found(records.size());
  std::vector<std::size_t> found_size(chunks, 0);
  pool_.for_chunks(records.size(), [&](std::size_t c, std::size_t begin, std::size_t end) {
    Asn* list = found.data() + begin;
    std::size_t size = 0, last = 0;
    for (std::size_t r = begin; r < end; ++r) {
      const Asn vp = records[r].vp;
      last = position(std::span<const Asn>(list, size), vp, last);
      if (last == size || list[last] != vp) {
        std::copy_backward(list + last, list + size, list + size + 1);
        list[last] = vp;
        ++size;
      }
    }
    found_size[c] = size;
  });
  std::vector<Asn> vps;
  for (std::size_t c = 0; c < chunks; ++c) {
    vps.insert(vps.end(), found.data() + bounds[c], found.data() + bounds[c] + found_size[c]);
  }
  std::sort(vps.begin(), vps.end());
  vps.erase(std::unique(vps.begin(), vps.end()), vps.end());

  // Per-VP table sizes: each chunk tallies its records, and the tallies
  // add up.  Chunks' tallies sit a cache line apart.
  const auto vp_of = std::make_unique_for_overwrite<std::uint32_t[]>(records.size());
  const std::size_t stride = vps.size() + 8;
  std::vector<std::size_t> tally(chunks * stride, 0);
  pool_.for_chunks(records.size(), [&](std::size_t c, std::size_t begin, std::size_t end) {
    std::size_t* table_size = tally.data() + c * stride;
    std::size_t last = 0;
    for (std::size_t r = begin; r < end; ++r) {
      last = position(vps, records[r].vp, last);
      vp_of[r] = static_cast<std::uint32_t>(last);
      ++table_size[last];
    }
  });
  std::vector<std::size_t> table_size(vps.size(), 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t v = 0; v < vps.size(); ++v) table_size[v] += tally[c * stride + v];
  }
  const std::size_t max_size = *std::max_element(table_size.begin(), table_size.end());
  std::vector<std::uint8_t> partial(vps.size(), 0);
  for (std::size_t v = 0; v < vps.size(); ++v) {
    partial[v] = static_cast<double>(table_size[v]) <
                 config_.partial_vp_threshold * static_cast<double>(max_size);
  }
  pool_.for_chunks(records.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) rec_partial_[r] = partial[vp_of[r]];
  });
  result_.audit.partial_vps =
      static_cast<std::size_t>(std::count(partial.begin(), partial.end(), 1));
}

void Pipeline::vote_on_paths() {
  const Degrees& degrees = result_.degrees;

  // Votes are per-link sums and the audit counters are totals, so per-path
  // work is independent: each chunk accumulates a dense local tally against
  // the (read-only) link table and tallies merge by element-wise addition —
  // commutative, so the result is identical at any thread count.  Records
  // sharing a path and a feed kind vote alike, so each distinct path votes
  // once per feed kind, weighted by its record count.
  struct VoteTally {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> votes;  // (lo, hi) provides
    std::size_t cast = 0;
    std::size_t deferred = 0;
  };

  auto tally_path = [&](std::size_t p, bool partial, std::uint32_t weight,
                        VoteTally& tally) {
    const auto hops = arena_.path(p);
    const auto links = links_of(p);
    if (hops.size() < 2) return;

    auto vote = [&](std::size_t j, NodeId provider, NodeId customer) {
      const std::uint32_t link = links[j];
      if (link_state_[link].kind == LinkState::Kind::kP2pFixed) return;
      auto& [lo_prov, hi_prov] = tally.votes[link];
      if (provider < customer) {
        lo_prov += weight;
      } else {
        hi_prov += weight;
      }
      tally.cast += weight;
    };

    // A path is valley-free around a single peak.  We vote c2p only for
    // positions that are certainly on the up or down slope; the (at most
    // two) links adjacent to the peak are the only p2p candidates and are
    // deferred to the fixpoint / fallback stages.  Three cases locate the
    // peak:
    //   (a) partial-view VPs export customer routes only: the whole path
    //       descends from the VP (no deferral at all);
    //   (b) paths crossing the clique peak at the (contiguous) clique
    //       segment: ascent strictly before it, descent strictly after,
    //       with the two boundary links deferred (an AS may peer with a
    //       clique member);
    //   (c) otherwise the apex is approximated by the highest-ranked AS and
    //       both apex-adjacent links are deferred.
    std::size_t defer_lo = hops.size(), defer_hi = hops.size();  // j-indices to skip
    std::size_t peak_first = 0, peak_last = 0;                   // hop index range of peak

    if (partial) {
      // (a): peak is the VP itself; nothing deferred, everything descends.
    } else {
      std::size_t first_clique = hops.size(), last_clique = hops.size();
      for (std::size_t i = 0; i < hops.size(); ++i) {
        if (in_clique(hops[i])) {
          if (first_clique == hops.size()) first_clique = i;
          last_clique = i;
        }
      }
      if (first_clique != hops.size()) {
        // (b): poisoned paths were discarded, so the segment is contiguous.
        peak_first = first_clique;
        peak_last = last_clique;
        defer_lo = first_clique;     // link (first-1 -> first)
        defer_hi = last_clique + 1;  // link (last -> last+1)
      } else {
        // (c): rank apex.
        std::size_t apex = 0;
        for (std::size_t i = 1; i < hops.size(); ++i) {
          if (degrees.rank_of(hops[i]) < degrees.rank_of(hops[apex])) apex = i;
        }
        peak_first = peak_last = apex;
        defer_lo = apex;
        defer_hi = apex + 1;
      }
    }

    for (std::size_t j = 1; j < hops.size(); ++j) {
      const NodeId left = hops[j - 1];
      const NodeId right = hops[j];
      if (j == defer_lo || j == defer_hi) {
        // Optional ablation knob: vote c2p at a deferred peak link anyway
        // when the transit-degree gap makes peering look implausible.  Off
        // by default — bench_ablation shows it trades c2p PPV for coverage.
        if (config_.apex_degree_gap > 0.0) {
          const NodeId peak_side = (j == defer_lo) ? right : left;
          const NodeId other = (j == defer_lo) ? left : right;
          const auto td_peak = static_cast<double>(degrees.transit_degree(peak_side));
          const auto td_other = static_cast<double>(degrees.transit_degree(other));
          if (td_peak >= config_.apex_degree_gap * std::max(td_other, 1.0)) {
            vote(j, peak_side, other);
            continue;
          }
        }
        tally.deferred += weight;
        continue;
      }
      if (j > peak_first && j <= peak_last) continue;  // clique-internal: fixed p2p
      if (j <= peak_first) {
        vote(j, right, left);  // ascending toward the peak
      } else {
        vote(j, left, right);  // descending from the peak
      }
    }
  };

  const VoteTally total = pool_.map_reduce<VoteTally>(
      arena_.path_count(),
      VoteTally{std::vector<std::pair<std::uint32_t, std::uint32_t>>(link_keys_.size()),
                0, 0},
      [&](std::size_t begin, std::size_t end) {
        VoteTally local{
            std::vector<std::pair<std::uint32_t, std::uint32_t>>(link_keys_.size()), 0, 0};
        for (std::size_t p = begin; p < end; ++p) {
          if (weight_[p].first > 0) tally_path(p, false, weight_[p].first, local);
          if (weight_[p].second > 0) tally_path(p, true, weight_[p].second, local);
        }
        return local;
      },
      [](VoteTally& acc, VoteTally&& part) {
        for (std::size_t i = 0; i < acc.votes.size(); ++i) {
          acc.votes[i].first += part.votes[i].first;
          acc.votes[i].second += part.votes[i].second;
        }
        acc.cast += part.cast;
        acc.deferred += part.deferred;
      });

  for (std::size_t i = 0; i < link_keys_.size(); ++i) {
    link_state_[i].votes_lo_prov += total.votes[i].first;
    link_state_[i].votes_hi_prov += total.votes[i].second;
  }
  result_.audit.c2p_votes += total.cast;
  result_.audit.apex_links_deferred += total.deferred;
}

void Pipeline::commit_votes() {
  const Degrees& degrees = result_.degrees;
  for (std::size_t i = 0; i < link_keys_.size(); ++i) {
    LinkState& state = link_state_[i];
    if (state.kind != LinkState::Kind::kUnknown) continue;
    if (state.votes_lo_prov == 0 && state.votes_hi_prov == 0) continue;
    if (state.votes_lo_prov > 0 && state.votes_hi_prov > 0) {
      ++result_.audit.vote_conflicts;
      // Balanced, persistent two-way transit evidence is the sibling
      // signature: siblings re-export everything, so the link ascends in
      // some paths and descends in others.
      const std::uint32_t low = std::min(state.votes_lo_prov, state.votes_hi_prov);
      const std::uint32_t high = std::max(state.votes_lo_prov, state.votes_hi_prov);
      if (config_.sibling_conflict_ratio > 0.0 && low >= config_.sibling_min_votes &&
          static_cast<double>(low) >=
              config_.sibling_conflict_ratio * static_cast<double>(high)) {
        state.kind = LinkState::Kind::kS2S;
        ++result_.audit.siblings_inferred;
        continue;
      }
    }
    if (state.votes_lo_prov > state.votes_hi_prov) {
      state.kind = LinkState::Kind::kC2pLoProv;
    } else if (state.votes_hi_prov > state.votes_lo_prov) {
      state.kind = LinkState::Kind::kC2pHiProv;
    } else {
      // Tie: the higher-ranked side is the provider.
      state.kind = degrees.rank_of(lo_of(link_keys_[i])) < degrees.rank_of(hi_of(link_keys_[i]))
                       ? LinkState::Kind::kC2pLoProv
                       : LinkState::Kind::kC2pHiProv;
    }
    ++result_.audit.links_committed_c2p;
  }
}

void Pipeline::triplet_fixpoint() {
  // Order-sensitive: a commit made while sweeping one path feeds the
  // propagation along the next within the same iteration, so this stage runs
  // sequentially at every thread count by design (parallelizing it would
  // change which of several admissible fixpoint schedules is taken).
  //
  // Valley-free propagation in both directions:
  //   forward:  after a path crosses a known p2p link or a known descent,
  //             every later link must descend (left side provides);
  //   backward: before a known p2p link or a known ascent, every earlier
  //             link must ascend (right side provides).
  //
  // A walk reads and writes only its own path's links, and otherwise
  // depends only on its record's feed kind.  Walked again before any link
  // on its path changes, it commits nothing and meets the same violations:
  // its own commits read back as known links it passes.  So each (path,
  // feed) key keeps its last walk's violation count and the commit count
  // it has been checked against, each link keeps the commit count of its
  // commit, and a record whose path has no link committed since its key
  // was checked adds the kept count instead of walking.  Commits, counters
  // and the iteration count are those of walking every record every time.
  // A sanitizer that keeps loops or prepending can leave a link twice on a
  // path, or a self-link, and a walk may then read its own commit from the
  // other side; so then every record is walked.
  const bool reuse_walks =
      config_.sanitizer.discard_loops && config_.sanitizer.compress_prepending;
  constexpr std::uint32_t kNever = 0xffffffffu;
  std::uint32_t commits = 0;
  std::vector<std::uint32_t> committed_at(link_keys_.size(), 0);
  std::vector<std::uint32_t> checked_at(reuse_walks ? 2 * arena_.path_count() : 0, kNever);
  std::vector<std::uint8_t> kept(checked_at.size(), 0);  // both by 2 * path + partial

  const auto records = arena_.records();
  bool changed = true;
  std::size_t iterations = 0;
  const auto commit = [&](std::uint32_t link, NodeId provider, NodeId customer) {
    set_c2p(link, provider, customer);
    committed_at[link] = ++commits;
    ++result_.audit.triplet_inferred;
    changed = true;
  };
  // True if key's kept walk still holds; reads the path's links only when
  // there have been commits since the key was last checked.
  const auto unchanged = [&](std::uint32_t key, std::span<const std::uint32_t> links) {
    if (checked_at[key] == kNever) return false;
    if (checked_at[key] != commits) {
      for (std::size_t j = 1; j < links.size(); ++j) {
        if (committed_at[links[j]] > checked_at[key]) return false;
      }
      checked_at[key] = commits;
    }
    return true;
  };
  while (changed && iterations < 16) {
    changed = false;
    ++iterations;
    for (std::size_t r = 0; r < records.size(); ++r) {
      const std::uint32_t path = records[r].path;
      const auto hops = arena_.path(path);
      const auto links = links_of(path);
      if (hops.size() < 2 || !places_links(path)) continue;
      const std::uint32_t key = 2 * path + rec_partial_[r];
      if (reuse_walks && unchanged(key, links)) {
        result_.audit.valley_violations += kept[key];
        continue;
      }

      auto classify = [&](std::size_t j) {
        // Link between hops[j-1] and hops[j].
        const LinkState::Kind kind = link_state_[links[j]].kind;
        struct Info {
          LinkState::Kind kind;
          bool descending;  // known p2c, left provides
          bool ascending;   // known c2p, right provides
        };
        const bool left_is_lo = hops[j - 1] < hops[j];
        const bool desc = (kind == LinkState::Kind::kC2pLoProv && left_is_lo) ||
                          (kind == LinkState::Kind::kC2pHiProv && !left_is_lo);
        const bool asc = kind != LinkState::Kind::kUnknown &&
                         kind != LinkState::Kind::kP2pFixed &&
                         kind != LinkState::Kind::kS2S && !desc;
        return Info{kind, desc, asc};
      };

      std::uint8_t violations = 0;
      bool descending = rec_partial_[r] != 0;
      for (std::size_t j = 1; j < hops.size(); ++j) {
        const auto info = classify(j);
        if (descending) {
          if (info.kind == LinkState::Kind::kUnknown) {
            commit(links[j], hops[j - 1], hops[j]);
          } else if (info.ascending || info.kind == LinkState::Kind::kP2pFixed) {
            // Contradiction with commits made from stronger evidence; the
            // path is not valley-free under the current labelling.
            ++violations;
            break;
          }
        } else if (info.kind == LinkState::Kind::kP2pFixed || info.descending) {
          descending = true;
        }
      }

      bool ascending = false;
      for (std::size_t j = hops.size() - 1; j >= 1; --j) {
        const auto info = classify(j);
        if (ascending) {
          if (info.kind == LinkState::Kind::kUnknown) {
            commit(links[j], hops[j], hops[j - 1]);  // right side provides
          } else if (info.descending || info.kind == LinkState::Kind::kP2pFixed) {
            ++violations;
            break;
          }
        } else if (info.kind == LinkState::Kind::kP2pFixed || info.ascending) {
          ascending = true;
        }
      }
      result_.audit.valley_violations += violations;
      if (reuse_walks) {
        kept[key] = violations;
        checked_at[key] = commits;
      }
    }
  }
}

void Pipeline::repair_provider_less() {
  const Degrees& degrees = result_.degrees;
  const std::size_t n = interner().size();
  // Collect current provider existence and per-AS unknown-link neighbours.
  std::vector<bool> has_provider(n, false);
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> unknown_neighbors(n);
  for (std::size_t i = 0; i < link_keys_.size(); ++i) {
    const NodeId lo = lo_of(link_keys_[i]), hi = hi_of(link_keys_[i]);
    switch (link_state_[i].kind) {
      case LinkState::Kind::kC2pLoProv: has_provider[hi] = true; break;
      case LinkState::Kind::kC2pHiProv: has_provider[lo] = true; break;
      case LinkState::Kind::kUnknown:
        unknown_neighbors[lo].emplace_back(hi, link_state_[i].observations);
        unknown_neighbors[hi].emplace_back(lo, link_state_[i].observations);
        break;
      case LinkState::Kind::kP2pFixed:
      case LinkState::Kind::kS2S:
        break;
    }
  }
  // Order-independent (a rank comparison gates every adoption, and ranks
  // form a strict total order), so the ascending-id sweep reproduces the
  // legacy hash-order sweep exactly.
  for (NodeId as = 0; as < n; ++as) {
    if (!transit_bits_[as] || in_clique(as) || has_provider[as]) continue;
    if (unknown_neighbors[as].empty()) continue;
    // Most-observed higher-ranked neighbour becomes the provider.
    NodeId best = kNoNode;
    std::uint32_t best_obs = 0;
    for (const auto& [neighbor, observations] : unknown_neighbors[as]) {
      if (degrees.rank_of(neighbor) >= degrees.rank_of(as)) continue;
      if (observations > best_obs || (observations == best_obs && neighbor < best)) {
        best = neighbor;
        best_obs = observations;
      }
    }
    if (best == kNoNode) continue;
    const std::uint32_t link = link_index(best, as);
    if (link_state_[link].kind == LinkState::Kind::kUnknown) {
      set_c2p(link, best, as);
      ++result_.audit.providerless_repaired;
    }
  }
}

void Pipeline::stub_clique_pass() {
  for (std::size_t i = 0; i < link_keys_.size(); ++i) {
    if (link_state_[i].kind != LinkState::Kind::kUnknown) continue;
    const NodeId lo = lo_of(link_keys_[i]), hi = hi_of(link_keys_[i]);
    const bool lo_clique = in_clique(lo), hi_clique = in_clique(hi);
    if (lo_clique == hi_clique) continue;
    const NodeId member = lo_clique ? lo : hi;
    const NodeId other = lo_clique ? hi : lo;
    if (!transit_bits_[other]) {  // a stub never transits
      set_c2p(static_cast<std::uint32_t>(i), member, other);
      ++result_.audit.stub_clique_links;
    }
  }
}

void Pipeline::enforce_transit_free_clique() {
  // Assumption A1: clique members buy transit from no one.  A c2p commit
  // with a clique member on the customer side is necessarily a direction
  // error (a handful of misleading path positions can out-vote the truth
  // for links seen from few VPs), and it is catastrophic if left standing:
  // the false "provider" captures the member's entire customer cone and
  // rockets up the ranking.  Re-orient such links toward the member.
  for (std::size_t i = 0; i < link_keys_.size(); ++i) {
    const NodeId lo = lo_of(link_keys_[i]), hi = hi_of(link_keys_[i]);
    NodeId provider = kNoNode, customer = kNoNode;
    if (link_state_[i].kind == LinkState::Kind::kC2pLoProv) {
      provider = lo;
      customer = hi;
    } else if (link_state_[i].kind == LinkState::Kind::kC2pHiProv) {
      provider = hi;
      customer = lo;
    } else {
      continue;
    }
    if (in_clique(customer) && !in_clique(provider)) {
      set_c2p(static_cast<std::uint32_t>(i), customer, provider);
      ++result_.audit.clique_direction_fixes;
    }
  }
}

void Pipeline::finalize_graph() {
  // The view's AS table is the link endpoints, compacted in arena id order
  // so ASNs stay ascending.  A self-pair (a prepending run a sanitizer left
  // uncompressed) is not a link: it stays out of the view, the p2p fallback
  // count and cycle repair, and an AS seen only in one keeps kNoNode.
  view_id_.assign(interner().size(), kNoNode);
  std::size_t p2p_fallback = 0;
  for (std::size_t i = 0; i < link_keys_.size(); ++i) {
    const std::uint64_t key = link_keys_[i];
    if (is_self_pair(key)) continue;
    view_id_[lo_of(key)] = view_id_[hi_of(key)] = 0;
    p2p_fallback += link_state_[i].kind == LinkState::Kind::kUnknown;
  }
  std::vector<Asn> asns;
  for (NodeId id = 0; id < view_id_.size(); ++id) {
    if (view_id_[id] == kNoNode) continue;
    view_id_[id] = static_cast<NodeId>(asns.size());
    asns.push_back(interner().asn_of(id));
  }
  result_.audit.p2p_fallback = p2p_fallback;
  view_interner_ = AsnInterner::from_sorted_unique(std::move(asns));
  result_.graph = link_table_view();
}

topology::TopologyView Pipeline::link_table_view() const {
  // The compaction is monotone, so the keys stay strictly ascending.
  std::vector<std::uint64_t> keys;
  std::vector<RelView> lo_views;
  keys.reserve(link_keys_.size());
  lo_views.reserve(link_keys_.size());
  for (std::size_t i = 0; i < link_keys_.size(); ++i) {
    if (is_self_pair(link_keys_[i])) continue;
    keys.push_back(pack(view_id_[lo_of(link_keys_[i])], view_id_[hi_of(link_keys_[i])]));
    switch (link_state_[i].kind) {
      case LinkState::Kind::kC2pLoProv: lo_views.push_back(RelView::kCustomer); break;
      case LinkState::Kind::kC2pHiProv: lo_views.push_back(RelView::kProvider); break;
      case LinkState::Kind::kS2S: lo_views.push_back(RelView::kSibling); break;
      case LinkState::Kind::kP2pFixed:
      case LinkState::Kind::kUnknown: lo_views.push_back(RelView::kPeer); break;
    }
  }
  return topology::TopologyView::from_sorted_links(view_interner_, keys, lo_views);
}

void Pipeline::repair_cycles() {
  // Tarjan on the view's customer rows.  Inside each non-trivial SCC,
  // re-orient c2p links so the higher-ranked endpoint provides (the rule
  // break_provider_cycles applies to an AsGraph), then rebuild the view.
  ProviderComponents components = provider_components(result_.graph);
  if (!components.acyclic()) {
    const Degrees& degrees = result_.degrees;
    for (std::size_t i = 0; i < link_keys_.size(); ++i) {
      const NodeId lo = lo_of(link_keys_[i]), hi = hi_of(link_keys_[i]);
      const LinkState::Kind kind = link_state_[i].kind;
      if (kind != LinkState::Kind::kC2pLoProv && kind != LinkState::Kind::kC2pHiProv) continue;
      if (is_self_pair(link_keys_[i])) continue;  // in no view row
      if (components.component[view_id_[lo]] != components.component[view_id_[hi]]) continue;
      // Ids ascend with ASN, so the ASN tie-break is the id one.
      const bool lo_higher = degrees.rank_of(lo) < degrees.rank_of(hi) ||
                             (degrees.rank_of(lo) == degrees.rank_of(hi) && lo < hi);
      const NodeId provider = lo_higher ? lo : hi;
      const NodeId customer = lo_higher ? hi : lo;
      if ((kind == LinkState::Kind::kC2pLoProv) != lo_higher) {
        set_c2p(static_cast<std::uint32_t>(i), provider, customer);
        ++result_.audit.cycle_edges_reoriented;
      }
    }
    result_.graph = link_table_view();
    components = provider_components(result_.graph);
  }
  result_.audit.p2c_acyclic = components.acyclic();
}

}  // namespace

InferenceResult AsRankInference::run(const paths::PathCorpus& raw) const {
  Pipeline pipeline(config_, raw);
  return pipeline.take();
}

}  // namespace asrank::core
