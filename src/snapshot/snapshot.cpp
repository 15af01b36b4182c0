#include "snapshot/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <type_traits>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/crc32.h"

namespace asrank::snapshot {

namespace {

obs::Histogram& io_histogram(const char* op) {
  return obs::Registry::global().histogram(
      "asrank_snapshot_io_duration_micros",
      "Wall-clock duration of one snapshot serialization or parse",
      obs::kLatencyBucketsMicros, {{"op", op}});
}

obs::Counter& crc_failure_counter() {
  return obs::Registry::global().counter(
      "asrank_snapshot_crc_failures_total",
      "Snapshot loads rejected by a header or section CRC mismatch");
}

obs::Counter& mmap_loads_counter() {
  return obs::Registry::global().counter(
      "asrank_snapshot_mmap_loads_total",
      "Snapshot indexes served zero-copy from an mmap'd file");
}

// ----------------------------------------------------------- LE encoding --
// The format is explicitly little-endian regardless of host byte order, so
// all widths go through these helpers rather than memcpy of host integers.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Bounds-checked little-endian cursor; underruns yield ErrorCode::kTruncated.
class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> data, std::string context)
      : data_(data), context_(std::move(context)) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

  Result<std::uint16_t> u16() {
    ASRANK_TRY_VOID(need(2));
    const std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                            static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u32() {
    ASRANK_TRY(lo, u16());
    ASRANK_TRY(hi, u16());
    return static_cast<std::uint32_t>(lo) | static_cast<std::uint32_t>(hi) << 16;
  }
  Result<std::uint64_t> u64() {
    ASRANK_TRY(lo, u32());
    ASRANK_TRY(hi, u32());
    return static_cast<std::uint64_t>(lo) | static_cast<std::uint64_t>(hi) << 32;
  }
  Result<std::span<const std::uint8_t>> bytes(std::size_t n) {
    ASRANK_TRY_VOID(need(n));
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  [[nodiscard]] Result<void> need(std::size_t n) const {
    if (remaining() < n) {
      return make_error(ErrorCode::kTruncated,
                        "truncated " + context_ + ": need " + std::to_string(n) +
                            " bytes, have " + std::to_string(remaining()));
    }
    return {};
  }

  std::span<const std::uint8_t> data_;
  std::string context_;
  std::size_t pos_ = 0;
};

/// Byte width of the integers section `raw_id` holds (format.h id scheme),
/// or 0 for sections that read the same on every host: the u8 relationship
/// codes, the directory (decoded field by field) and unknown ids.
std::size_t element_width(std::uint32_t raw_id) noexcept {
  switch (static_cast<SectionId>(raw_id % kAlgoSlotStride)) {
    case SectionId::kAdjOffsets:
    case SectionId::kConeOffsets:
      return 8;
    case SectionId::kAsns:
    case SectionId::kAdjNeighbors:
    case SectionId::kConeMembers:
    case SectionId::kRanks:
    case SectionId::kTransitDegrees:
    case SectionId::kClique:
      return 4;
    default:
      return 0;
  }
}

/// Reverse the byte order of each `width`-byte element in place: the
/// little-endian file ⇄ host conversion on big-endian hosts.
void swap_elements(std::uint8_t* data, std::size_t size, std::size_t width) noexcept {
  if (width < 2) return;
  for (std::size_t i = 0; i + width <= size; i += width) {
    std::reverse(data + i, data + i + width);
  }
}

/// Valid algorithm-directory name: the epoch-label charset, 1..64 chars.
bool valid_algo_name(std::string_view name) {
  if (name.empty() || name.size() > kMaxAlgoNameLen) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------ container parsing --
// The first step of every load: check magic, version, declared size,
// header CRC, then bounds-, CRC- and duplicate-check every section-table
// entry.  Namespace scope (not anonymous) so snapshot.h can name it for the
// per-slot loader.

struct ContainerView {
  std::unordered_map<std::uint32_t, std::span<const std::uint8_t>> sections;

  [[nodiscard]] const std::span<const std::uint8_t>* find(std::uint32_t raw_id) const {
    const auto it = sections.find(raw_id);
    return it == sections.end() ? nullptr : &it->second;
  }

  /// Section `id` of algorithm slot `slot` (see format.h id scheme).
  [[nodiscard]] Result<std::span<const std::uint8_t>> require(std::size_t slot,
                                                              SectionId id) const {
    const std::uint32_t raw = slot_section_id(slot, id);
    if (const auto* payload = find(raw)) return *payload;
    return make_error(ErrorCode::kNotFound,
                      "missing section " + std::to_string(raw) +
                          (slot == 0 ? std::string{}
                                     : " (algorithm slot " + std::to_string(slot) + ")"));
  }
};

namespace {

Result<ContainerView> parse_container(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderPrefixSize) {
    return make_error(ErrorCode::kTruncated, "file shorter than header");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), data.begin())) {
    return make_error(ErrorCode::kCorrupt,
                      "bad magic (not an ASRK snapshot, or text-mode mangled)");
  }
  Cursor prefix{data.subspan(8, kHeaderPrefixSize - 8), "header"};
  ASRANK_TRY(version, prefix.u16());
  if (version != kFormatVersion) {
    return make_error(ErrorCode::kUnsupported,
                      "unsupported format version " + std::to_string(version));
  }
  ASRANK_TRY(section_count, prefix.u16());
  ASRANK_TRY_VOID(prefix.u32());  // flags
  ASRANK_TRY(file_size, prefix.u64());
  if (file_size != data.size()) {
    return make_error(ErrorCode::kTruncated,
                      "file size mismatch: header says " + std::to_string(file_size) +
                          ", have " + std::to_string(data.size()) +
                          " bytes (truncated?)");
  }
  const std::size_t header_size =
      kHeaderPrefixSize + static_cast<std::size_t>(section_count) * kSectionEntrySize + 4;
  if (data.size() < header_size) {
    return make_error(ErrorCode::kTruncated, "truncated section table");
  }

  const auto header_span = data.first(header_size - 4);
  Cursor crc_cursor{data.subspan(header_size - 4, 4), "header crc"};
  ASRANK_TRY(header_crc, crc_cursor.u32());
  if (header_crc != util::crc32(header_span)) {
    crc_failure_counter().inc();
    return make_error(ErrorCode::kCorrupt, "header CRC mismatch");
  }

  ContainerView parsed;
  Cursor table{data.subspan(kHeaderPrefixSize,
                            static_cast<std::size_t>(section_count) *
                                kSectionEntrySize),
               "section table"};
  for (std::uint16_t i = 0; i < section_count; ++i) {
    ASRANK_TRY(id, table.u32());
    ASRANK_TRY_VOID(table.u32());  // reserved
    ASRANK_TRY(offset, table.u64());
    ASRANK_TRY(length, table.u64());
    ASRANK_TRY(crc, table.u32());
    ASRANK_TRY_VOID(table.u32());  // pad
    if (offset < header_size || offset > data.size() || length > data.size() - offset) {
      return make_error(ErrorCode::kCorrupt,
                        "section " + std::to_string(id) + " out of bounds");
    }
    const auto payload = data.subspan(offset, length);
    if (util::crc32(payload) != crc) {
      crc_failure_counter().inc();
      return make_error(ErrorCode::kCorrupt,
                        "section " + std::to_string(id) + " CRC mismatch");
    }
    if (!parsed.sections.emplace(id, payload).second) {
      return make_error(ErrorCode::kCorrupt,
                        "duplicate section " + std::to_string(id));
    }
  }
  return parsed;
}

// Asn must stay layout-compatible with the serialized u32 for the in-place
// view below to be valid.
static_assert(sizeof(Asn) == 4 && alignof(Asn) == 4 &&
              std::is_trivially_copyable_v<Asn>);

/// Point `out` at section `id` of algorithm slot `slot`, viewed in place as
/// host-order elements (the loader has byte-swapped a copy first on
/// big-endian hosts).  The writer's 8-byte section alignment makes the cast
/// well-defined for every element type used by the format, but a foreign
/// file could carry any offset, so alignment is checked rather than
/// assumed — the same way for every loader, since every image is at least
/// 8-byte aligned.
template <typename T>
Result<void> view_section(const ContainerView& container, std::size_t slot,
                          SectionId id, const char* what, std::span<const T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  ASRANK_TRY(payload, container.require(slot, id));
  if (payload.size() % sizeof(T) != 0) {
    return make_error(ErrorCode::kCorrupt,
                      std::string(what) + ": length not a multiple of " +
                          std::to_string(sizeof(T)));
  }
  if (!payload.empty() &&
      reinterpret_cast<std::uintptr_t>(payload.data()) % alignof(T) != 0) {
    return make_error(ErrorCode::kCorrupt,
                      std::string(what) + ": misaligned section offset");
  }
  out = {reinterpret_cast<const T*>(payload.data()), payload.size() / sizeof(T)};
  return {};
}

/// Decode the algorithm directory section into slot-ordered names.
Result<std::vector<std::string>> parse_directory(std::span<const std::uint8_t> directory) {
  const auto fail = [](std::string what) {
    return make_error(ErrorCode::kCorrupt, "algorithm directory: " + std::move(what));
  };
  Cursor cursor(directory, "algorithm directory");
  ASRANK_TRY(count, cursor.u32());
  if (count == 0) return fail("empty");
  if (count > kMaxAlgorithms) {
    return fail("declares " + std::to_string(count) + " algorithms (max " +
                std::to_string(kMaxAlgorithms) + ")");
  }
  std::vector<std::string> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ASRANK_TRY(slot, cursor.u32());
    if (slot != i) return fail("slots not ascending from 0");
    ASRANK_TRY(name_len, cursor.u16());
    ASRANK_TRY(raw, cursor.bytes(name_len));
    std::string name(raw.begin(), raw.end());
    if (!valid_algo_name(name)) {
      return fail("invalid algorithm name in slot " + std::to_string(slot));
    }
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      return fail("duplicate algorithm name '" + name + "'");
    }
    names.push_back(std::move(name));
  }
  if (cursor.remaining() != 0) return fail("trailing bytes");
  return names;
}

}  // namespace

// ------------------------------------------------------------------ image --

// Owned images are unsigned char arrays from array new: that storage is
// aligned to __STDCPP_DEFAULT_NEW_ALIGNMENT__, so every section the writer
// placed on an 8-byte boundary can be viewed in place, as in a mapping, and
// the integers viewed there are created implicitly (no aliasing of typed
// objects).
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kSectionAlign);

struct SnapshotIndex::Image {
  /// An owned image: the first `size` bytes of `buffer`.
  Image(std::unique_ptr<std::uint8_t[]> buffer, std::size_t size)
      : owned(std::move(buffer)), bytes(owned.get(), size) {}
  /// A mapped image: the whole file.
  explicit Image(util::MappedFile mapping) : file(std::move(mapping)), bytes(file.bytes()) {}

  util::MappedFile file;                  ///< mapped images
  std::unique_ptr<std::uint8_t[]> owned;  ///< owned images
  std::span<const std::uint8_t> bytes;    ///< the ASRK1 image, little-endian
};

bool SnapshotIndex::mmap_backed() const noexcept {
  return image_ != nullptr && image_->owned == nullptr;
}

// ------------------------------------------------------------- accessors --

std::optional<std::uint32_t> SnapshotIndex::id_of(Asn as) const noexcept {
  const auto it = std::lower_bound(asns_.begin(), asns_.end(), as);
  if (it == asns_.end() || *it != as) return std::nullopt;
  return static_cast<std::uint32_t>(it - asns_.begin());
}

std::optional<RelView> SnapshotIndex::relationship(Asn as, Asn neighbor) const noexcept {
  const auto id = id_of(as);
  if (!id) return std::nullopt;
  const auto begin = adj_nbr_.begin() + static_cast<std::ptrdiff_t>(adj_off_[*id]);
  const auto end = adj_nbr_.begin() + static_cast<std::ptrdiff_t>(adj_off_[*id + 1]);
  const auto it = std::lower_bound(begin, end, neighbor);
  if (it == end || *it != neighbor) return std::nullopt;
  return static_cast<RelView>(adj_rel_[static_cast<std::size_t>(it - adj_nbr_.begin())]);
}

std::span<const Asn> SnapshotIndex::neighbors(Asn as) const noexcept {
  const auto id = id_of(as);
  if (!id) return {};
  return adj_nbr_.subspan(adj_off_[*id], adj_off_[*id + 1] - adj_off_[*id]);
}

std::vector<Asn> SnapshotIndex::filter(Asn as, RelView want) const {
  std::vector<Asn> out;
  const auto id = id_of(as);
  if (!id) return out;
  for (std::uint64_t i = adj_off_[*id]; i < adj_off_[*id + 1]; ++i) {
    if (static_cast<RelView>(adj_rel_[i]) == want) out.push_back(adj_nbr_[i]);
  }
  return out;
}

std::optional<std::uint32_t> SnapshotIndex::rank(Asn as) const noexcept {
  const auto id = id_of(as);
  if (!id || rank_[*id] == 0) return std::nullopt;
  return rank_[*id];
}

std::optional<Asn> SnapshotIndex::as_at_rank(std::uint32_t rank) const noexcept {
  if (rank == 0 || rank > by_rank_.size()) return std::nullopt;
  return asns_[by_rank_[rank - 1]];
}

std::vector<TopEntry> SnapshotIndex::top(std::size_t n) const {
  std::vector<TopEntry> out;
  out.reserve(std::min(n, by_rank_.size()));
  for (std::size_t r = 0; r < by_rank_.size() && r < n; ++r) {
    const std::uint32_t id = by_rank_[r];
    out.push_back({static_cast<std::uint32_t>(r + 1), asns_[id],
                   static_cast<std::size_t>(cone_off_[id + 1] - cone_off_[id]),
                   tdeg_[id]});
  }
  return out;
}

std::span<const Asn> SnapshotIndex::cone(Asn as) const noexcept {
  const auto id = id_of(as);
  if (!id) return {};
  return cone_mem_.subspan(cone_off_[*id], cone_off_[*id + 1] - cone_off_[*id]);
}

bool SnapshotIndex::in_cone(Asn as, Asn member) const noexcept {
  const auto members = cone(as);
  return std::binary_search(members.begin(), members.end(), member);
}

std::uint32_t SnapshotIndex::transit_degree(Asn as) const noexcept {
  const auto id = id_of(as);
  return id ? tdeg_[*id] : 0;
}

std::optional<std::size_t> SnapshotIndex::algorithm_slot(
    std::string_view name) const noexcept {
  for (std::size_t slot = 0; slot < algo_names_.size(); ++slot) {
    if (algo_names_[slot] == name) return slot;
  }
  return std::nullopt;
}

const std::vector<std::uint32_t>& SnapshotIndex::dense_neighbor_ids() const {
  std::call_once(nbr_ids_->once, [this] {
    auto& ids = nbr_ids_->ids;
    ids.resize(adj_nbr_.size());
    for (std::size_t i = 0; i < adj_nbr_.size(); ++i) {
      const auto id = id_of(adj_nbr_[i]);
      // kNoNeighborId only on crafted CRC-valid files (see snapshot.h); the
      // full-validation path rejects such files before this runs.
      ids[i] = id ? *id : kNoNeighborId;
    }
  });
  return nbr_ids_->ids;
}

std::span<const std::uint32_t> SnapshotIndex::neighbor_ids(std::uint32_t id) const {
  return std::span<const std::uint32_t>(dense_neighbor_ids())
      .subspan(adj_off_[id], adj_off_[id + 1] - adj_off_[id]);
}

std::span<const std::uint8_t> SnapshotIndex::relationship_codes(
    std::uint32_t id) const noexcept {
  return adj_rel_.subspan(adj_off_[id], adj_off_[id + 1] - adj_off_[id]);
}

// ------------------------------------------------------------ validation --

Result<void> SnapshotIndex::finalize_and_validate(Validation depth) {
  const std::size_t n = asns_.size();
  const auto fail = [](std::string what) {
    return make_error(ErrorCode::kCorrupt, std::move(what));
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (!asns_[i].valid()) return fail("invalid AS0 in AS table");
    if (i > 0 && !(asns_[i - 1] < asns_[i])) {
      return fail("AS table not strictly ascending");
    }
  }
  if (adj_off_.size() != n + 1 || cone_off_.size() != n + 1) {
    return fail("offset table size does not match AS count");
  }
  if (rank_.size() != n || tdeg_.size() != n) {
    return fail("rank/degree table size does not match AS count");
  }
  if (adj_nbr_.size() != adj_rel_.size()) {
    return fail("adjacency arrays disagree in length");
  }
  if (!adj_off_.empty() && adj_off_.front() != 0) {
    return fail("adjacency offsets must start at 0");
  }
  if (!cone_off_.empty() && cone_off_.front() != 0) {
    return fail("cone offsets must start at 0");
  }
  if (n == 0) {
    if (!adj_nbr_.empty() || !cone_mem_.empty() || !clique_.empty()) {
      return fail("payload without AS table");
    }
  } else {
    if (adj_off_.back() != adj_nbr_.size()) {
      return fail("adjacency offsets do not cover array");
    }
    if (cone_off_.back() != cone_mem_.size()) {
      return fail("cone offsets do not cover array");
    }
  }
  if (adj_nbr_.size() % 2 != 0) {
    return fail("odd adjacency entry count (links are symmetric)");
  }
  link_count_ = adj_nbr_.size() / 2;

  // Offsets must be fully in-bounds before any row is dereferenced: the
  // symmetry check below reads *other* rows.
  for (std::size_t id = 0; id < n; ++id) {
    if (adj_off_[id] > adj_off_[id + 1]) return fail("adjacency offsets not monotone");
    if (cone_off_[id] > cone_off_[id + 1]) return fail("cone offsets not monotone");
  }

  // The per-link and per-cone-member invariants: kFull re-checks them all,
  // kMapped trusts the section CRCs to attest the writer's output
  // (FORMATS.md "Validation contract") — all table checks above and below
  // still run, so accessors stay memory-safe either way.
  //
  // kFull visits ASes in table order: per AS, each adjacency entry's code,
  // self-link, row order and symmetry, then each cone member's membership
  // and row order, then the cone's own AS; the first failure is reported.
  // Table positions come from one hash probe.  Rows are looked up in
  // ascending ASN order, so the back entry in a row a pre-pass found
  // strictly ascending comes from a forward-only cursor; any other row gets
  // the binary search a lookup always did.  A link checked from its lower
  // end records both entries' ids (dense_neighbor_ids()'s), so its higher
  // end needs no lookup.
  if (depth == Validation::kFull) {
    topology::FirstSeenIds position;  // ASN -> table index
    for (const Asn as : asns_) (void)position.id(as);
    std::vector<std::uint8_t> ascending(n, 1);
    for (std::size_t id = 0; id < n; ++id) {
      for (std::uint64_t i = adj_off_[id] + 1; i < adj_off_[id + 1]; ++i) {
        if (!(adj_nbr_[i - 1] < adj_nbr_[i])) {
          ascending[id] = 0;
          break;
        }
      }
    }
    std::vector<std::uint64_t> cursor(adj_off_.begin(), adj_off_.end() - 1);
    // The entry of row `row` where relationship(asns_[row], as) looks.
    const auto back_entry = [&](std::uint32_t row, Asn as) -> std::uint64_t {
      const std::uint64_t end = adj_off_[row + 1];
      if (!ascending[row]) {
        return static_cast<std::uint64_t>(
            std::lower_bound(adj_nbr_.begin() + static_cast<std::ptrdiff_t>(adj_off_[row]),
                             adj_nbr_.begin() + static_cast<std::ptrdiff_t>(end), as) -
            adj_nbr_.begin());
      }
      std::uint64_t& at = cursor[row];
      while (at < end && adj_nbr_[at] < as) ++at;
      return at;
    };
    std::vector<std::uint32_t> ids(adj_nbr_.size(), kNoNeighborId);

    for (std::size_t id = 0; id < n; ++id) {
      const Asn self = asns_[id];
      for (std::uint64_t i = adj_off_[id]; i < adj_off_[id + 1]; ++i) {
        if (adj_rel_[i] > static_cast<std::uint8_t>(RelView::kSibling)) {
          return fail("unknown relationship code in adjacency");
        }
        if (adj_nbr_[i] == self) return fail("self-link in adjacency");
        if (i > adj_off_[id] && !(adj_nbr_[i - 1] < adj_nbr_[i])) {
          return fail("adjacency row not strictly ascending");
        }
        if (ids[i] != kNoNeighborId) continue;  // checked from its lower end
        // Symmetry: the neighbour must list us back with the inverse view.
        const topology::NodeId other = position.find(adj_nbr_[i]);
        if (other == topology::kNoNode) return fail("asymmetric adjacency entry");
        const std::uint64_t back = back_entry(other, self);
        if (back == adj_off_[other + 1] || adj_nbr_[back] != self ||
            adj_rel_[back] != static_cast<std::uint8_t>(
                                  inverse(static_cast<RelView>(adj_rel_[i])))) {
          return fail("asymmetric adjacency entry");
        }
        ids[i] = other;
        if (other > id) ids[back] = static_cast<std::uint32_t>(id);
      }
      const std::uint64_t cone_begin = cone_off_[id];
      const std::uint64_t cone_end = cone_off_[id + 1];
      bool has_self = cone_end == cone_begin;  // empty cone = AS not covered
      for (std::uint64_t i = cone_begin; i < cone_end; ++i) {
        if (position.find(cone_mem_[i]) == topology::kNoNode) {
          return fail("cone member is not a known AS");
        }
        if (i > cone_begin && !(cone_mem_[i - 1] < cone_mem_[i])) {
          return fail("cone row not strictly ascending");
        }
        has_self = has_self || cone_mem_[i] == self;
      }
      if (!has_self) return fail("cone does not contain its own AS");
    }
    std::call_once(nbr_ids_->once, [&] { nbr_ids_->ids = std::move(ids); });
  }

  // Ranks must be unique and contiguous from 1 (0 marks unranked ASes).
  by_rank_.clear();
  std::size_t ranked = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (rank_[id] != 0) ++ranked;
  }
  by_rank_.assign(ranked, 0);
  std::vector<bool> seen(ranked, false);
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint32_t r = rank_[id];
    if (r == 0) continue;
    if (r > ranked || seen[r - 1]) {
      return fail("rank values not unique and contiguous");
    }
    seen[r - 1] = true;
    by_rank_[r - 1] = static_cast<std::uint32_t>(id);
  }

  for (std::size_t i = 0; i < clique_.size(); ++i) {
    if (!id_of(clique_[i])) return fail("clique member is not a known AS");
    if (i > 0 && !(clique_[i - 1] < clique_[i])) {
      return fail("clique not strictly ascending");
    }
  }

  // Derive the dense-id mirrors: validation above guarantees every clique
  // member resolves to an id.  The neighbour-id translation came out of the
  // kFull walk; at kMapped it is deferred to first use so mapping stays
  // CRC-bound.
  clique_bits_.assign((n + 63) / 64, 0);
  for (const Asn member : clique_) {
    const std::uint32_t id = *id_of(member);
    clique_bits_[id >> 6] |= 1ULL << (id & 63);
  }
  return {};
}

// ------------------------------------------------------------------ codec --

std::shared_ptr<SnapshotIndex::Image> SnapshotIndex::encode_image(
    std::span<const SnapshotIndex* const> slots, std::span<const std::string> names) {
  struct Section {
    std::uint32_t id;
    std::span<const std::uint8_t> payload;  ///< host byte order
  };
  std::vector<Section> sections;
  const auto push_slot = [&sections](const SnapshotIndex& part, std::size_t slot) {
    const auto add = [&sections, slot](SectionId id, auto values) {
      sections.push_back({slot_section_id(slot, id),
                          {reinterpret_cast<const std::uint8_t*>(values.data()),
                           values.size_bytes()}});
    };
    add(SectionId::kAsns, part.asns_);
    add(SectionId::kAdjOffsets, part.adj_off_);
    add(SectionId::kAdjNeighbors, part.adj_nbr_);
    add(SectionId::kAdjRels, part.adj_rel_);
    add(SectionId::kConeOffsets, part.cone_off_);
    add(SectionId::kConeMembers, part.cone_mem_);
    add(SectionId::kRanks, part.rank_);
    add(SectionId::kTransitDegrees, part.tdeg_);
    add(SectionId::kClique, part.clique_);
  };
  push_slot(*slots.front(), 0);

  // The directory (and with it the extra slots) is only emitted when the
  // file actually deviates from the historical single-algorithm layout —
  // this keeps a plain "asrank" snapshot byte-identical to the
  // pre-multi-algorithm writer.
  std::vector<std::uint8_t> directory;
  if (slots.size() > 1 || names.front() != "asrank") {
    put_u32(directory, static_cast<std::uint32_t>(names.size()));
    for (std::size_t slot = 0; slot < names.size(); ++slot) {
      put_u32(directory, static_cast<std::uint32_t>(slot));
      put_u16(directory, static_cast<std::uint16_t>(names[slot].size()));
      directory.insert(directory.end(), names[slot].begin(), names[slot].end());
    }
    sections.push_back({static_cast<std::uint32_t>(SectionId::kAlgoDirectory), directory});
    for (std::size_t slot = 1; slot < slots.size(); ++slot) push_slot(*slots[slot], slot);
  }

  // Lay out sections after the header, 8-byte aligned.
  const std::size_t header_size =
      kHeaderPrefixSize + sections.size() * kSectionEntrySize + 4;
  std::vector<std::uint64_t> offsets(sections.size());
  std::uint64_t cursor = header_size;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    cursor = (cursor + (kSectionAlign - 1)) & ~static_cast<std::uint64_t>(kSectionAlign - 1);
    offsets[i] = cursor;
    cursor += sections[i].payload.size();
  }
  const std::uint64_t file_size = cursor;
  auto buffer = std::make_unique<std::uint8_t[]>(file_size);  // zero padding
  std::uint8_t* const out = buffer.get();

  std::vector<std::uint8_t> header;
  header.reserve(header_size);
  header.insert(header.end(), kMagic.begin(), kMagic.end());
  put_u16(header, kFormatVersion);
  put_u16(header, static_cast<std::uint16_t>(sections.size()));
  put_u32(header, 0);  // flags
  put_u64(header, file_size);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& section = sections[i];
    std::uint8_t* const dst = out + offsets[i];
    if (!section.payload.empty()) {
      std::memcpy(dst, section.payload.data(), section.payload.size());
    }
    if constexpr (std::endian::native != std::endian::little) {
      swap_elements(dst, section.payload.size(), element_width(section.id));
    }
    put_u32(header, section.id);
    put_u32(header, 0);  // reserved
    put_u64(header, offsets[i]);
    put_u64(header, section.payload.size());
    put_u32(header, util::crc32({dst, section.payload.size()}));
    put_u32(header, 0);  // pad
  }
  put_u32(header, util::crc32(header));
  std::memcpy(out, header.data(), header.size());
  return std::make_shared<Image>(std::move(buffer), file_size);
}

Result<SnapshotIndex> SnapshotIndex::map_sections(const ContainerView& container,
                                                  std::size_t slot,
                                                  std::shared_ptr<const Image> image,
                                                  Validation depth) {
  SnapshotIndex index;
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kAsns, "AS table", index.asns_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kAdjOffsets,
                               "adjacency offsets", index.adj_off_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kAdjNeighbors,
                               "adjacency neighbours", index.adj_nbr_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kAdjRels,
                               "adjacency relationships", index.adj_rel_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kConeOffsets,
                               "cone offsets", index.cone_off_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kConeMembers,
                               "cone members", index.cone_mem_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kRanks, "ranks", index.rank_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kTransitDegrees,
                               "transit degrees", index.tdeg_));
  ASRANK_TRY_VOID(view_section(container, slot, SectionId::kClique, "clique", index.clique_));
  index.image_ = std::move(image);
  ASRANK_TRY_VOID(index.finalize_and_validate(depth));
  return index;
}

Result<SnapshotIndex> SnapshotIndex::load(std::shared_ptr<const Image> image,
                                          Validation depth) {
  ASRANK_TRY(container, parse_container(image->bytes));

  if constexpr (std::endian::native != std::endian::little) {
    // The sections can't be viewed in place on this host: copy the image
    // once and byte-swap every integer section in the copy.  The CRCs above
    // were checked on the little-endian bytes.
    const auto source = image->bytes;
    auto buffer = std::make_unique<std::uint8_t[]>(source.size());
    std::uint8_t* const copy = buffer.get();
    std::memcpy(copy, source.data(), source.size());
    for (auto& [id, payload] : container.sections) {
      std::uint8_t* const section = copy + (payload.data() - source.data());
      swap_elements(section, payload.size(), element_width(id));
      payload = {section, payload.size()};
    }
    image = std::make_shared<const Image>(std::move(buffer), source.size());
  }

  ASRANK_TRY(index, map_sections(container, 0, image, depth));
  const auto* directory =
      container.find(static_cast<std::uint32_t>(SectionId::kAlgoDirectory));
  if (directory == nullptr) return index;  // legacy layout: {"asrank"}
  ASRANK_TRY(names, parse_directory(*directory));
  for (std::size_t slot = 1; slot < names.size(); ++slot) {
    ASRANK_TRY(extra, map_sections(container, slot, image, depth));
    extra.algo_names_ = {names[slot]};
    index.extras_.push_back(std::make_unique<SnapshotIndex>(std::move(extra)));
  }
  index.algo_names_ = std::move(names);
  return index;
}

// --------------------------------------------------------------- builder --

SnapshotIndex build_snapshot(const topology::TopologyView& view,
                             std::span<const std::uint32_t> transit_degrees,
                             const ConeMap& cones, std::span<const Asn> clique) {
  const topology::AsnInterner& interner = view.interner();
  const std::vector<Asn> asns(interner.asns().begin(), interner.asns().end());
  const std::size_t n = asns.size();

  // The view's CSR rows are id-ascending, and the interner is
  // order-preserving, so the adjacency sections are the view's arrays plus
  // one id→ASN translation of the neighbour array — no re-sorting, no
  // hashing.
  const auto view_nbr = view.adjacency_neighbors();
  std::vector<Asn> adj_nbr;
  adj_nbr.reserve(view_nbr.size());
  for (const topology::NodeId id : view_nbr) adj_nbr.push_back(interner.asn_of(id));

  // One merge walk of the AS table against the cone keys (both ascending)
  // copies the rows as they are; a key not in the graph stops the walk.
  // kFull validation below rejects a malformed row.
  std::vector<std::uint64_t> cone_off(n + 1, 0);
  std::vector<Asn> cone_mem;
  std::vector<std::uint32_t> ranked_ids;
  std::vector<std::uint32_t> rank(n, 0);
  if (transit_degrees.size() != n) {
    throw SnapshotError("transit degrees for " + std::to_string(transit_degrees.size()) +
                        " ASes, graph has " + std::to_string(n));
  }
  const std::span<const std::uint32_t> tdeg = transit_degrees;

  auto cone = cones.begin();
  for (std::uint32_t id = 0; id < n; ++id) {
    const Asn as = asns[id];
    if (cone != cones.end() && (*cone).first == as) {
      const auto members = (*cone).second;
      cone_mem.insert(cone_mem.end(), members.begin(), members.end());
      ranked_ids.push_back(id);
      ++cone;
    }
    cone_off[id + 1] = cone_mem.size();
  }
  if (cone != cones.end()) {
    throw SnapshotError("cone key AS" + (*cone).first.str() + " is not in the graph");
  }

  // Freeze the ranking with the pipeline's exact order: cone size desc,
  // transit degree desc, ASN asc (core::rank_by_cone).  Only cone-covered
  // ASes are ranked; the rest keep rank 0.
  std::sort(ranked_ids.begin(), ranked_ids.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const auto cone_a = cone_off[a + 1] - cone_off[a];
              const auto cone_b = cone_off[b + 1] - cone_off[b];
              if (cone_a != cone_b) return cone_a > cone_b;
              if (tdeg[a] != tdeg[b]) return tdeg[a] > tdeg[b];
              return asns[a] < asns[b];
            });
  for (std::size_t r = 0; r < ranked_ids.size(); ++r) {
    rank[ranked_ids[r]] = static_cast<std::uint32_t>(r + 1);
  }

  std::vector<Asn> clique_members(clique.begin(), clique.end());
  std::sort(clique_members.begin(), clique_members.end());
  clique_members.erase(std::unique(clique_members.begin(), clique_members.end()),
                       clique_members.end());

  // Spans over the arrays above, only as the encoder's input.
  SnapshotIndex draft;
  draft.asns_ = asns;
  draft.adj_off_ = view.adjacency_offsets();
  draft.adj_nbr_ = adj_nbr;
  draft.adj_rel_ = view.adjacency_rels();
  draft.cone_off_ = cone_off;
  draft.cone_mem_ = cone_mem;
  draft.rank_ = rank;
  draft.tdeg_ = tdeg;
  draft.clique_ = clique_members;
  const SnapshotIndex* const slots[] = {&draft};

  // The builder is a throwing boundary (callers hand it in-memory pipeline
  // output, not untrusted bytes), so a validation Error becomes the
  // subsystem's historical exception here.
  auto index = SnapshotIndex::load(SnapshotIndex::encode_image(slots, draft.algo_names_),
                                   SnapshotIndex::Validation::kFull);
  if (!index.ok()) throw SnapshotError(index.error().context);
  return std::move(index).value();
}

SnapshotIndex build_snapshot(const topology::TopologyView& view,
                             const std::unordered_map<Asn, std::size_t>& transit_degrees,
                             const ConeMap& cones, std::span<const Asn> clique) {
  std::vector<std::uint32_t> tdeg(view.node_count(), 0);
  for (std::size_t id = 0; id < tdeg.size(); ++id) {
    const auto it = transit_degrees.find(view.ases()[id]);
    if (it != transit_degrees.end()) tdeg[id] = static_cast<std::uint32_t>(it->second);
  }
  return build_snapshot(view, tdeg, cones, clique);
}

SnapshotIndex build_snapshot(const topology::TopologyView& view, const core::Degrees& degrees,
                             const ConeMap& cones, std::span<const Asn> clique) {
  const std::vector<topology::NodeId> tally_id = view.interner().ids_in(degrees.interner());
  std::vector<std::uint32_t> tdeg(view.node_count(), 0);
  for (std::size_t id = 0; id < tdeg.size(); ++id) {
    if (tally_id[id] != topology::kNoNode) {
      tdeg[id] = static_cast<std::uint32_t>(degrees.transit_degree(tally_id[id]));
    }
  }
  return build_snapshot(view, tdeg, cones, clique);
}

SnapshotIndex build_snapshot(const AsGraph& graph,
                             const std::unordered_map<Asn, std::size_t>& transit_degrees,
                             const ConeMap& cones, const std::vector<Asn>& clique) {
  return build_snapshot(graph.freeze(), transit_degrees, cones, clique);
}

Result<SnapshotIndex> combine_snapshots(
    std::vector<std::pair<std::string, SnapshotIndex>> parts) {
  const auto fail = [](std::string what) {
    return make_error(ErrorCode::kInvalidArgument,
                      "combine_snapshots: " + std::move(what));
  };
  if (parts.empty()) return fail("no parts");
  if (parts.size() > kMaxAlgorithms) {
    return fail("more than " + std::to_string(kMaxAlgorithms) + " algorithms");
  }
  std::vector<const SnapshotIndex*> slots;
  std::vector<std::string> names;
  for (const auto& [name, part] : parts) {
    if (!valid_algo_name(name)) {
      return fail("invalid algorithm name '" + name + "' (want 1-" +
                  std::to_string(kMaxAlgoNameLen) + " chars of [A-Za-z0-9._:-])");
    }
    if (part.algorithm_count() != 1) {
      return fail("part '" + name + "' is already multi-algorithm");
    }
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      return fail("duplicate algorithm name '" + name + "'");
    }
    slots.push_back(&part);
    names.push_back(name);
  }
  // Every part passed validation when it was built or loaded, and the image
  // carries their sections verbatim, so the table checks suffice.
  return SnapshotIndex::load(SnapshotIndex::encode_image(slots, names),
                             SnapshotIndex::Validation::kMapped);
}

// -------------------------------------------------------------------- IO --

Result<void> try_write_snapshot(const SnapshotIndex& index, std::ostream& os) {
  obs::ScopedTimer timer(&io_histogram("write"));
  std::vector<const SnapshotIndex*> slots;
  for (std::size_t slot = 0; slot < index.algorithm_count(); ++slot) {
    slots.push_back(&index.algorithm_at(slot));
  }
  const auto image = SnapshotIndex::encode_image(slots, index.algo_names_);
  os.write(reinterpret_cast<const char*>(image->bytes.data()),
           static_cast<std::streamsize>(image->bytes.size()));
  if (!os) return make_error(ErrorCode::kIo, "write failed");
  obs::log_debug("snapshot written",
                 {{"bytes", image->bytes.size()}, {"algorithms", slots.size()}});
  return {};
}

Result<SnapshotIndex> try_read_snapshot(std::istream& is) {
  obs::ScopedTimer timer(&io_histogram("read"));
  std::size_t capacity = std::size_t{1} << 15;
  auto buffer = std::make_unique<std::uint8_t[]>(capacity);
  std::size_t size = 0;
  for (;;) {
    is.read(reinterpret_cast<char*>(buffer.get() + size),
            static_cast<std::streamsize>(capacity - size));
    size += static_cast<std::size_t>(is.gcount());
    if (size < capacity) break;
    auto grown = std::make_unique<std::uint8_t[]>(capacity * 2);
    std::memcpy(grown.get(), buffer.get(), size);
    buffer = std::move(grown);
    capacity *= 2;
  }
  ASRANK_TRY(index, SnapshotIndex::load(std::make_shared<const SnapshotIndex::Image>(
                                            std::move(buffer), size),
                                        SnapshotIndex::Validation::kFull));
  obs::log_debug("snapshot read", {{"ases", index.as_count()},
                                   {"links", index.link_count()}});
  return index;
}

Result<SnapshotIndex> SnapshotIndex::map_file(const std::string& path) {
  obs::ScopedTimer timer(&io_histogram("map"));
  ASRANK_TRY(file, util::MappedFile::open(path));
  ASRANK_TRY(index, load(std::make_shared<const Image>(std::move(file)), Validation::kMapped));
  if (index.mmap_backed()) mmap_loads_counter().inc();
  obs::log_debug("snapshot mapped", {{"path", path},
                                     {"bytes", index.image_->bytes.size()},
                                     {"ases", index.as_count()},
                                     {"algorithms", index.algorithm_count()},
                                     {"links", index.link_count()}});
  return index;
}

void write_snapshot(const SnapshotIndex& index, std::ostream& os) {
  if (auto written = try_write_snapshot(index, os); !written.ok()) {
    throw SnapshotError(written.error().context);
  }
}

SnapshotIndex read_snapshot(std::istream& is) {
  auto parsed = try_read_snapshot(is);
  if (!parsed.ok()) throw SnapshotError(parsed.error().context);
  return std::move(parsed).value();
}

void write_snapshot_file(const SnapshotIndex& index, const std::string& path) {
  // Write beside the target and rename over it, so a reader that has `path`
  // mapped keeps the old inode instead of seeing its bytes change (or
  // SIGBUS on a truncated page).
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const auto fail = [&tmp](const std::string& what) {
    std::remove(tmp.c_str());
    throw SnapshotError(what);
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("cannot open for writing: " + tmp);
    if (auto written = try_write_snapshot(index, out); !written.ok()) {
      fail(written.error().context);
    }
    out.flush();
    out.close();
    if (!out) fail("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot rename " + tmp + " over " + path);
  }
}

Result<SnapshotIndex> try_read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "cannot open for reading: " + path);
  }
  return try_read_snapshot(in);
}

Result<SnapshotIndex> try_map_snapshot_file(const std::string& path) {
  return SnapshotIndex::map_file(path);
}

SnapshotIndex read_snapshot_file(const std::string& path) {
  auto parsed = try_read_snapshot_file(path);
  if (!parsed.ok()) throw SnapshotError(parsed.error().context);
  return std::move(parsed).value();
}

}  // namespace asrank::snapshot
