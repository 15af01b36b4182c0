#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cones.h"
#include "paths/corpus.h"
#include "core/degrees.h"
#include "core/ranking.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "topology/serialization.h"
#include "util/crc32.h"

namespace asrank::snapshot {
namespace {

// Fixture topology: clique {1,2} at the top, 3 multihomed below both, a
// chain to 4, a side peering 4-5, and a sibling pair 6-7 under 2.
AsGraph make_graph() {
  AsGraph graph;
  graph.add_p2p(Asn(1), Asn(2));
  graph.add_p2c(Asn(1), Asn(3));
  graph.add_p2c(Asn(2), Asn(3));
  graph.add_p2c(Asn(3), Asn(4));
  graph.add_p2c(Asn(1), Asn(5));
  graph.add_p2p(Asn(4), Asn(5));
  graph.add_p2c(Asn(2), Asn(6));
  graph.add_s2s(Asn(6), Asn(7));
  return graph;
}

std::unordered_map<Asn, std::size_t> make_tdeg() {
  return {{Asn(1), 3}, {Asn(2), 3}, {Asn(3), 2}};
}

std::vector<Asn> make_clique() { return {Asn(1), Asn(2)}; }

SnapshotIndex make_index() {
  const auto graph = make_graph();
  return build_snapshot(graph, make_tdeg(), core::recursive_cone(graph),
                        make_clique());
}

std::vector<std::uint8_t> serialized_bytes(const SnapshotIndex& index) {
  std::ostringstream os(std::ios::binary);
  write_snapshot(index, os);
  const std::string raw = os.str();
  return {raw.begin(), raw.end()};
}

SnapshotIndex read_bytes(const std::vector<std::uint8_t>& bytes) {
  std::istringstream is(std::string(bytes.begin(), bytes.end()), std::ios::binary);
  return read_snapshot(is);
}

std::vector<Asn> to_vec(std::span<const Asn> span) {
  return {span.begin(), span.end()};
}

void expect_equivalent(const SnapshotIndex& index, const AsGraph& graph,
                       const ConeMap& cones) {
  EXPECT_EQ(index.as_count(), graph.as_count());
  EXPECT_EQ(index.link_count(), graph.link_count());
  for (const Asn as : graph.ases()) {
    ASSERT_TRUE(index.has_as(as));
    EXPECT_EQ(to_vec(index.cone(as)), to_vec(cones.at(as)));
    EXPECT_EQ(index.cone_size(as), cones.at(as).size());
    for (const Asn member : cones.at(as)) EXPECT_TRUE(index.in_cone(as, member));
    for (const Asn other : graph.ases()) {
      EXPECT_EQ(index.relationship(as, other), graph.view(as, other))
          << as.str() << " -> " << other.str();
    }
    std::vector<Asn> providers = to_vec(graph.providers(as));
    std::sort(providers.begin(), providers.end());
    EXPECT_EQ(index.providers(as), providers);
    std::vector<Asn> customers = to_vec(graph.customers(as));
    std::sort(customers.begin(), customers.end());
    EXPECT_EQ(index.customers(as), customers);
  }
}

// ----------------------------------------------------------- build/query --

TEST(Snapshot, BuildAnswersMatchInputs) {
  const auto graph = make_graph();
  const auto cones = core::recursive_cone(graph);
  const auto index = build_snapshot(graph, make_tdeg(), cones, make_clique());
  expect_equivalent(index, graph, cones);

  EXPECT_EQ(index.relationship(Asn(1), Asn(3)), RelView::kCustomer);
  EXPECT_EQ(index.relationship(Asn(3), Asn(1)), RelView::kProvider);
  EXPECT_EQ(index.relationship(Asn(4), Asn(5)), RelView::kPeer);
  EXPECT_EQ(index.relationship(Asn(6), Asn(7)), RelView::kSibling);
  EXPECT_EQ(index.relationship(Asn(1), Asn(4)), std::nullopt);  // not adjacent
  EXPECT_EQ(index.relationship(Asn(99), Asn(1)), std::nullopt);

  EXPECT_EQ(index.transit_degree(Asn(1)), 3u);
  EXPECT_EQ(index.transit_degree(Asn(4)), 0u);  // omitted from the map
  EXPECT_EQ(to_vec(index.clique()), make_clique());
  EXPECT_FALSE(index.has_as(Asn(99)));
  EXPECT_TRUE(index.cone(Asn(99)).empty());
  EXPECT_FALSE(index.in_cone(Asn(99), Asn(1)));
}

TEST(Snapshot, RankingMatchesBatchPipeline) {
  // Build via the core::Degrees overload and require the frozen ranking to
  // be exactly core::rank_by_cone's output, entry by entry.
  paths::PathCorpus corpus;
  corpus.add({Asn(1), Prefix::v4(1 << 8, 24), AsPath({1, 3, 4})});
  corpus.add({Asn(1), Prefix::v4(2 << 8, 24), AsPath({2, 3, 4})});
  const auto degrees = core::Degrees::compute(corpus);
  const auto view = make_graph().freeze();
  const auto cones = core::recursive_cone(view);
  const auto index = build_snapshot(view, degrees, cones, make_clique());

  const auto expected = core::rank_by_cone(cones, degrees);
  const auto got = index.top(expected.size() + 10);  // over-ask: clamps
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].rank, expected[i].rank);
    EXPECT_EQ(got[i].as, expected[i].as);
    EXPECT_EQ(got[i].cone_size, expected[i].cone_size);
    EXPECT_EQ(got[i].transit_degree, expected[i].transit_degree);
    EXPECT_EQ(index.rank(expected[i].as), expected[i].rank);
    EXPECT_EQ(index.as_at_rank(expected[i].rank), expected[i].as);
  }
  EXPECT_EQ(index.rank(Asn(99)), std::nullopt);
  EXPECT_EQ(index.as_at_rank(0), std::nullopt);
  EXPECT_EQ(index.as_at_rank(expected.size() + 1), std::nullopt);
}

TEST(Snapshot, TextFormatsToSnapshotEquivalence) {
  // The satellite round trip: .as-rel/.ppdc text -> parse -> snapshot ->
  // stream -> index, answers identical to direct computation on the parse.
  const auto graph = make_graph();
  const auto cones = core::recursive_cone(graph);
  std::stringstream rel_text, ppdc_text;
  write_as_rel(graph, rel_text);
  write_ppdc(cones, ppdc_text);

  const auto reparsed_graph = read_as_rel(rel_text);
  const auto reparsed_cones = read_ppdc(ppdc_text);
  const auto index = read_bytes(serialized_bytes(
      build_snapshot(reparsed_graph, make_tdeg(), reparsed_cones, make_clique())));
  expect_equivalent(index, graph, cones);
}

/// `cones` with `as`'s row replaced by (or, for a new key, extended with)
/// `members`, taken as given.
ConeMap with_row(const ConeMap& cones, Asn as, const std::vector<Asn>& members) {
  ConeMap out;
  bool placed = false;
  for (const auto& [key, row] : cones) {
    if (!placed && !(key < as)) {
      out.append(as, members);
      placed = true;
      if (key == as) continue;
    }
    out.append(key, row);
  }
  if (!placed) out.append(as, members);
  return out;
}

TEST(Snapshot, BuildRejectsInconsistentInputs) {
  const auto graph = make_graph();
  const auto cones = core::recursive_cone(graph);

  const auto bad_cone_key = with_row(cones, Asn(99), {Asn(99)});
  EXPECT_THROW((void)build_snapshot(graph, make_tdeg(), bad_cone_key, make_clique()),
               SnapshotError);

  const auto no_self = with_row(cones, Asn(4), {Asn(5)});
  EXPECT_THROW((void)build_snapshot(graph, make_tdeg(), no_self, make_clique()),
               SnapshotError);

  // Rows are copied as given, not sorted or deduplicated.
  const auto not_ascending = with_row(cones, Asn(3), {Asn(4), Asn(3)});
  EXPECT_THROW((void)build_snapshot(graph, make_tdeg(), not_ascending, make_clique()),
               SnapshotError);
  const auto duplicate_member = with_row(cones, Asn(3), {Asn(3), Asn(3), Asn(4)});
  EXPECT_THROW((void)build_snapshot(graph, make_tdeg(), duplicate_member, make_clique()),
               SnapshotError);

  EXPECT_THROW((void)build_snapshot(graph, make_tdeg(), cones, {Asn(99)}),
               SnapshotError);
}

// ------------------------------------------------------------- round trip --

TEST(Snapshot, StreamRoundTrip) {
  const auto graph = make_graph();
  const auto cones = core::recursive_cone(graph);
  const auto index = build_snapshot(graph, make_tdeg(), cones, make_clique());
  const auto reread = read_bytes(serialized_bytes(index));
  expect_equivalent(reread, graph, cones);
  EXPECT_EQ(to_vec(reread.clique()), make_clique());
  EXPECT_EQ(reread.top(100).size(), index.top(100).size());
}

TEST(Snapshot, FileRoundTrip) {
  const std::string path = testing::TempDir() + "asrk1_roundtrip.snapshot";
  const auto index = make_index();
  write_snapshot_file(index, path);
  const auto reread = read_snapshot_file(path);
  EXPECT_EQ(serialized_bytes(reread), serialized_bytes(index));
  std::remove(path.c_str());
  EXPECT_THROW((void)read_snapshot_file(path), SnapshotError);
}

TEST(Snapshot, WriteIsByteForByteDeterministic) {
  const auto first = serialized_bytes(make_index());
  const auto second = serialized_bytes(make_index());
  EXPECT_EQ(first, second);
  // And a decode/encode cycle reproduces the same bytes.
  EXPECT_EQ(serialized_bytes(read_bytes(first)), first);
}

// ------------------------------------------------------------ corruption --

TEST(Snapshot, RejectsWrongMagic) {
  auto bytes = serialized_bytes(make_index());
  bytes[0] = 'X';
  try {
    (void)read_bytes(bytes);
    FAIL() << "wrong magic accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("magic"), std::string::npos);
  }
}

TEST(Snapshot, RejectsUnsupportedVersion) {
  auto bytes = serialized_bytes(make_index());
  bytes[kMagic.size()] = 0xFF;  // format version is LE u16 right after magic
  try {
    (void)read_bytes(bytes);
    FAIL() << "bad version accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

TEST(Snapshot, RejectsEveryTruncation) {
  const auto bytes = serialized_bytes(make_index());
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        (void)read_bytes(std::vector<std::uint8_t>(bytes.begin(),
                                                   bytes.begin() + cut)),
        SnapshotError)
        << "prefix of " << cut << " bytes accepted";
  }
}

TEST(Snapshot, RejectsFlippedSectionCrc) {
  // Byte 16 of a section table entry is its CRC field; flipping it must
  // surface as a header checksum failure (the table is header-covered).
  auto bytes = serialized_bytes(make_index());
  bytes[kHeaderPrefixSize + 16] ^= 0xFF;
  EXPECT_THROW((void)read_bytes(bytes), SnapshotError);
}

TEST(Snapshot, DetectsAnyMeaningfulByteFlip) {
  // Flip every byte in turn.  Each flip must either be rejected outright or
  // (only possible for alignment padding, which no checksum covers) leave
  // every answer identical to the pristine snapshot.
  const auto pristine_bytes = serialized_bytes(make_index());
  const auto pristine = serialized_bytes(read_bytes(pristine_bytes));
  std::size_t undetected = 0;
  for (std::size_t i = 0; i < pristine_bytes.size(); ++i) {
    auto bytes = pristine_bytes;
    bytes[i] ^= 0xFF;
    try {
      const auto index = read_bytes(bytes);
      ++undetected;
      EXPECT_EQ(serialized_bytes(index), pristine)
          << "flip at offset " << i << " silently changed answers";
    } catch (const SnapshotError&) {
      // Rejected: the desired outcome for any covered byte.
    }
  }
  // Padding is at most 7 bytes per boundary; anything more means a coverage
  // hole in the checksums.
  EXPECT_LT(undetected, 8 * (kSectionCount + 1));
}

TEST(Snapshot, RejectsGarbageStream) {
  std::istringstream text("this is not a snapshot file at all, honest\n");
  EXPECT_THROW((void)read_snapshot(text), SnapshotError);
  std::istringstream empty("");
  EXPECT_THROW((void)read_snapshot(empty), SnapshotError);
}

// ------------------------------------------------------------ mmap path --

// Write `bytes` to a fresh file and return the path (overwrites).
std::string write_temp(const std::vector<std::uint8_t>& bytes,
                       const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(SnapshotMmap, MapFileMatchesHeapRead) {
  const auto graph = make_graph();
  const auto cones = core::recursive_cone(graph);
  const auto index = build_snapshot(graph, make_tdeg(), cones, make_clique());
  const auto path = write_temp(serialized_bytes(index), "mmap-equiv.asrk");

  auto mapped = try_map_snapshot_file(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().context;
  EXPECT_TRUE(mapped.value().mmap_backed());
  EXPECT_FALSE(index.mmap_backed());
  expect_equivalent(mapped.value(), graph, cones);
  EXPECT_EQ(to_vec(mapped.value().clique()), make_clique());
  EXPECT_EQ(mapped.value().transit_degree(Asn(1)), 3u);
  EXPECT_EQ(mapped.value().rank(Asn(1)), index.rank(Asn(1)));
  // The mapped sections reserialize to the exact bytes on disk.
  EXPECT_EQ(serialized_bytes(mapped.value()), serialized_bytes(index));
  std::remove(path.c_str());
}

TEST(SnapshotMmap, MapFileReturnsTypedErrors) {
  auto missing = try_map_snapshot_file(testing::TempDir() + "/missing-map.asrk");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kNotFound);
  EXPECT_NE(missing.error().context.find("cannot open"), std::string::npos);

  // An empty file maps fine but is not a snapshot.
  auto empty = try_map_snapshot_file(write_temp({}, "empty-map.asrk"));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, ErrorCode::kTruncated);

  auto garbage = try_map_snapshot_file(write_temp(
      {'n', 'o', 't', ' ', 'a', ' ', 's', 'n', 'a', 'p'}, "garbage-map.asrk"));
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.error().code, ErrorCode::kNotFound);
}

TEST(SnapshotMmap, MapFileRejectsEveryTruncation) {
  // The stream loader's truncation fuzz, replayed through mmap: every proper
  // prefix must fail with a typed error, never crash, never validate.
  const auto bytes = serialized_bytes(make_index());
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto path = write_temp(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut),
        "mmap-truncate.asrk");
    auto mapped = try_map_snapshot_file(path);
    ASSERT_FALSE(mapped.ok()) << "prefix of " << cut << " bytes accepted";
    EXPECT_TRUE(mapped.error().code == ErrorCode::kTruncated ||
                mapped.error().code == ErrorCode::kCorrupt ||
                mapped.error().code == ErrorCode::kUnsupported)
        << "cut " << cut << ": " << mapped.error().context;
    EXPECT_FALSE(mapped.error().context.empty());
  }
}

TEST(SnapshotMmap, MapFileDetectsAnyMeaningfulByteFlip) {
  // Byte-flip fuzz over the mmap path.  The mapped loader skips the deep
  // per-link re-validation (the CRCs attest it), so the bar is exactly the
  // stream loader's: every flip is either rejected with a typed error or —
  // checksum-free padding only — leaves all answers byte-identical.
  const auto pristine_bytes = serialized_bytes(make_index());
  std::size_t undetected = 0;
  for (std::size_t i = 0; i < pristine_bytes.size(); ++i) {
    auto bytes = pristine_bytes;
    bytes[i] ^= 0xFF;
    const auto path = write_temp(bytes, "mmap-flip.asrk");
    auto mapped = try_map_snapshot_file(path);
    if (mapped.ok()) {
      ++undetected;
      EXPECT_EQ(serialized_bytes(mapped.value()), pristine_bytes)
          << "flip at offset " << i << " silently changed answers";
    } else {
      EXPECT_FALSE(mapped.error().context.empty()) << "flip at offset " << i;
    }
  }
  EXPECT_LT(undetected, 8 * (kSectionCount + 1));
}

TEST(SnapshotMmap, MapFileAndReadFileRejectIdentically) {
  // Differential fuzz: both loaders must accept/reject the same inputs.
  // (Error messages may differ in depth — the mapped loader stops at the
  // first container defect — but the verdict may not.)
  const auto pristine = serialized_bytes(make_index());
  for (std::size_t i = 0; i < pristine.size(); i += 3) {
    auto bytes = pristine;
    bytes[i] ^= 0xFF;
    const auto path = write_temp(bytes, "mmap-vs-heap.asrk");
    const bool heap_ok = try_read_snapshot_file(path).ok();
    const bool mmap_ok = try_map_snapshot_file(path).ok();
    EXPECT_EQ(heap_ok, mmap_ok) << "loaders disagree on flip at offset " << i;
  }
}

std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t at,
                     std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = width; i-- > 0;) value = value << 8 | bytes[at + i];
  return value;
}

void put_le(std::vector<std::uint8_t>& bytes, std::size_t at, std::size_t width,
            std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

TEST(SnapshotMmap, BothLoadersRejectMisalignedSection) {
  // A CRC-valid image whose u64 adjacency-offsets section starts at an
  // offset ≡ 4 (mod 8): the section moves to the end of the file, and its
  // table entry, the file size and the header CRC are fixed up.  Neither
  // loader may accept it.
  auto bytes = serialized_bytes(make_index());
  const std::size_t count = get_le(bytes, kMagic.size() + 2, 2);
  const std::size_t table_end = kHeaderPrefixSize + count * kSectionEntrySize;
  std::size_t entry = 0;
  for (std::size_t at = kHeaderPrefixSize; at < table_end; at += kSectionEntrySize) {
    if (get_le(bytes, at, 4) == static_cast<std::uint32_t>(SectionId::kAdjOffsets)) {
      entry = at;
    }
  }
  ASSERT_NE(entry, 0u);
  const auto offset = static_cast<std::ptrdiff_t>(get_le(bytes, entry + 8, 8));
  const auto length = static_cast<std::ptrdiff_t>(get_le(bytes, entry + 16, 8));
  const std::vector<std::uint8_t> payload(bytes.begin() + offset,
                                          bytes.begin() + offset + length);
  while (bytes.size() % 8 != 4) bytes.push_back(0);
  put_le(bytes, entry + 8, 8, bytes.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  put_le(bytes, kMagic.size() + 8, 8, bytes.size());
  put_le(bytes, table_end, 4, util::crc32({bytes.data(), table_end}));
  const auto path = write_temp(bytes, "misaligned.asrk");

  const auto expect_misaligned = [](const Result<SnapshotIndex>& loaded,
                                    const char* loader) {
    ASSERT_FALSE(loaded.ok()) << loader << " accepted a misaligned section";
    EXPECT_EQ(loaded.error().code, ErrorCode::kCorrupt) << loader;
    EXPECT_NE(loaded.error().context.find("misaligned section offset"),
              std::string::npos)
        << loader << ": " << loaded.error().context;
  };
  expect_misaligned(try_read_snapshot_file(path), "read");
  expect_misaligned(try_map_snapshot_file(path), "map");
  std::remove(path.c_str());
}

// ------------------------------------------------- semantic validation --

/// One element of a section of slot 0 overwritten with `value`.
struct ElementPatch {
  SectionId section;
  std::size_t index;
  std::uint64_t value;
};

/// `bytes` with `patches` applied in place, and each section CRC and the
/// header CRC fixed up, so only the per-link and per-cone-member checks of a
/// full load can reject the image.
std::vector<std::uint8_t> with_patches(std::vector<std::uint8_t> bytes,
                                       std::initializer_list<ElementPatch> patches) {
  const std::size_t count = get_le(bytes, kMagic.size() + 2, 2);
  const std::size_t table_end = kHeaderPrefixSize + count * kSectionEntrySize;
  for (const ElementPatch& patch : patches) {
    const std::size_t width = patch.section == SectionId::kAdjRels ? 1
                              : patch.section == SectionId::kAdjOffsets ||
                                      patch.section == SectionId::kConeOffsets
                                  ? 8
                                  : 4;
    for (std::size_t at = kHeaderPrefixSize; at < table_end; at += kSectionEntrySize) {
      if (get_le(bytes, at, 4) != static_cast<std::uint32_t>(patch.section)) continue;
      const std::size_t offset = get_le(bytes, at + 8, 8);
      const std::size_t length = get_le(bytes, at + 16, 8);
      put_le(bytes, offset + patch.index * width, width, patch.value);
      put_le(bytes, at + 24, 4, util::crc32({bytes.data() + offset, length}));
    }
  }
  put_le(bytes, table_end, 4, util::crc32({bytes.data(), table_end}));
  return bytes;
}

/// The kCorrupt message a full (heap) load of `bytes` fails with.
std::string full_load_error(const std::vector<std::uint8_t>& bytes) {
  std::istringstream is(std::string(bytes.begin(), bytes.end()), std::ios::binary);
  const auto loaded = try_read_snapshot(is);
  if (loaded.ok()) return "accepted";
  EXPECT_EQ(loaded.error().code, ErrorCode::kCorrupt);
  return loaded.error().context;
}

// make_index()'s sections, by element index:
//   adjacency rows  AS1 [2 3 5]  AS2 [1 3 6]  AS3 [1 2 4]  AS4 [3 5]  AS5 [1 4]
//                   AS6 [2 7]    AS7 [6]      (flat indexes 0-2, 3-5, 6-8, ...)
//   RelView codes   provider 0, customer 1, peer 2, sibling 3
//   cone rows       AS1 [1 3 4 5]  AS2 [2 3 4 6]  AS3 [3 4]  AS4 [4]  AS5 [5] ...
TEST(SnapshotValidation, CrcValidImagesWithOneDefectEachFailByName) {
  using enum SectionId;
  const auto pristine = serialized_bytes(make_index());
  ASSERT_EQ(full_load_error(with_patches(pristine, {})), "accepted");

  // AS1 calls AS2 a sibling; AS2 calls AS1 a peer.
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kAdjRels, 0, 3}})),
            "asymmetric adjacency entry");
  // AS1's neighbour AS5 becomes AS8, which is not in the AS table.
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kAdjNeighbors, 2, 8}})),
            "asymmetric adjacency entry");
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kAdjRels, 4, 4}})),
            "unknown relationship code in adjacency");
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kAdjNeighbors, 0, 1}})),
            "self-link in adjacency");
  // AS1's row [3 2 5], codes kept with their neighbours: every entry is
  // symmetric, only the order is wrong.
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kAdjNeighbors, 0, 3},
                                                    {kAdjNeighbors, 1, 2},
                                                    {kAdjRels, 0, 1},
                                                    {kAdjRels, 1, 2}})),
            "adjacency row not strictly ascending");
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kConeMembers, 3, 99}})),
            "cone member is not a known AS");
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kConeMembers, 1, 4},
                                                    {kConeMembers, 2, 3}})),
            "cone row not strictly ascending");
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kConeMembers, 10, 5}})),
            "cone does not contain its own AS");
}

TEST(SnapshotValidation, FirstDefectInRowOrderIsTheOneReported) {
  using enum SectionId;
  const auto pristine = serialized_bytes(make_index());
  // AS3's row [2 1 4] (both provider codes, so only the order changes).
  const ElementPatch unsorted_as3[] = {{kAdjNeighbors, 6, 2}, {kAdjNeighbors, 7, 1}};

  // An asymmetric entry in AS1's row comes before AS3's unsorted row.
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kAdjRels, 0, 3}, unsorted_as3[0],
                                                    unsorted_as3[1]})),
            "asymmetric adjacency entry");
  // With AS3's row unsorted alone, AS1's entry for AS3 is looked up in that
  // row before the row itself is checked, and the lookup misses.
  EXPECT_EQ(full_load_error(with_patches(pristine, {unsorted_as3[0], unsorted_as3[1]})),
            "asymmetric adjacency entry");
  // ASes are checked in table order, each adjacency row before its cone
  // row: AS1's unknown cone member comes before AS6's asymmetric entry.
  EXPECT_EQ(full_load_error(with_patches(pristine, {{kAdjRels, 13, 2},
                                                    {kConeMembers, 3, 99}})),
            "cone member is not a known AS");
}

TEST(SnapshotMmap, MappedIndexSurvivesMoves) {
  // The registry moves indexes into shared_ptrs; the mapping (and the spans
  // into it) must follow the move.
  const auto path = write_temp(serialized_bytes(make_index()), "mmap-move.asrk");
  auto mapped = try_map_snapshot_file(path);
  ASSERT_TRUE(mapped.ok());
  SnapshotIndex moved = std::move(mapped).value();
  SnapshotIndex again = std::move(moved);
  EXPECT_TRUE(again.mmap_backed());
  EXPECT_EQ(again.cone_size(Asn(1)), 4u);
  EXPECT_EQ(serialized_bytes(again), serialized_bytes(make_index()));
  std::remove(path.c_str());
}

TEST(Snapshot, TryReadSnapshotFileReturnsTypedErrors) {
  auto missing =
      try_read_snapshot_file(testing::TempDir() + "/definitely-missing.asrk");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kNotFound);
  EXPECT_NE(missing.error().context.find("cannot open"), std::string::npos);

  const std::string path = testing::TempDir() + "/result-roundtrip.asrk";
  write_snapshot_file(make_index(), path);
  auto loaded = try_read_snapshot_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().context;
  EXPECT_EQ(serialized_bytes(loaded.value()), serialized_bytes(make_index()));

  // Corrupt bytes travel the Result rail as kCorrupt, not an exception.
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a snapshot";
  }
  auto corrupt = try_read_snapshot_file(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.error().code, ErrorCode::kNotFound);
}

// ------------------------------------------------------- multi-algorithm --

// A second algorithm's view of the same topology: 1->5 is gone and the 4-5
// peering is inverted into 5->4 transit, so the sections genuinely differ
// per slot (different link sets, cones, and ranks).
SnapshotIndex make_variant_index() {
  AsGraph graph;
  graph.add_p2p(Asn(1), Asn(2));
  graph.add_p2c(Asn(1), Asn(3));
  graph.add_p2c(Asn(2), Asn(3));
  graph.add_p2c(Asn(3), Asn(4));
  graph.add_p2c(Asn(5), Asn(4));
  graph.add_p2c(Asn(2), Asn(6));
  graph.add_s2s(Asn(6), Asn(7));
  return build_snapshot(graph, make_tdeg(), core::recursive_cone(graph),
                        make_clique());
}

SnapshotIndex make_multi_index() {
  std::vector<std::pair<std::string, SnapshotIndex>> parts;
  parts.emplace_back("asrank", make_index());
  parts.emplace_back("gao2001", make_variant_index());
  auto combined = combine_snapshots(std::move(parts));
  EXPECT_TRUE(combined.ok());
  return std::move(combined).value();
}

TEST(SnapshotMultiAlgo, SingleAlgorithmIndexesLoadAsAsrank) {
  // Back compat: pre-registry files carry no directory section and must keep
  // identifying as the implicit {"asrank"} after a round trip.
  const auto index = make_index();
  EXPECT_EQ(index.algorithm_count(), 1u);
  ASSERT_EQ(index.algorithm_names().size(), 1u);
  EXPECT_EQ(index.algorithm_names()[0], "asrank");
  EXPECT_EQ(index.algorithm_slot("asrank"), 0u);
  EXPECT_EQ(index.algorithm_slot("gao2001"), std::nullopt);
  const auto reread = read_bytes(serialized_bytes(index));
  EXPECT_EQ(reread.algorithm_count(), 1u);
  EXPECT_EQ(reread.algorithm_names()[0], "asrank");
}

TEST(SnapshotMultiAlgo, OnePartAsrankCombineMatchesPlainWriterByteForByte) {
  std::vector<std::pair<std::string, SnapshotIndex>> parts;
  parts.emplace_back("asrank", make_index());
  auto combined = combine_snapshots(std::move(parts));
  ASSERT_TRUE(combined.ok()) << combined.error().context;
  EXPECT_EQ(serialized_bytes(combined.value()), serialized_bytes(make_index()));
}

TEST(SnapshotMultiAlgo, CombineRoundTripsEachSectionByteIdentical) {
  const auto combined = make_multi_index();
  ASSERT_EQ(combined.algorithm_count(), 2u);
  EXPECT_EQ(combined.algorithm_names()[0], "asrank");
  EXPECT_EQ(combined.algorithm_names()[1], "gao2001");
  EXPECT_EQ(combined.algorithm_slot("gao2001"), 1u);

  // Slot 0 is served by the combined index's own accessors.
  EXPECT_EQ(combined.cone_size(Asn(1)), make_index().cone_size(Asn(1)));
  EXPECT_EQ(&combined.algorithm_at(0), &combined);

  // Decode/encode reproduces the exact bytes, sections and directory alike.
  const auto bytes = serialized_bytes(combined);
  const auto reread = read_bytes(bytes);
  EXPECT_EQ(serialized_bytes(reread), bytes);
  ASSERT_EQ(reread.algorithm_count(), 2u);

  // Each slot answers as the original part did, and the extra slot — a
  // self-contained single-algorithm index — reserializes byte-identically
  // to a one-part combine of the original under the same name.
  const auto variant = make_variant_index();
  const auto& slot1 = reread.algorithm_at(1);
  EXPECT_EQ(slot1.cone_size(Asn(1)), variant.cone_size(Asn(1)));
  EXPECT_EQ(slot1.relationship(Asn(4), Asn(5)), variant.relationship(Asn(4), Asn(5)));
  EXPECT_EQ(slot1.rank(Asn(1)), variant.rank(Asn(1)));
  std::vector<std::pair<std::string, SnapshotIndex>> renamed;
  renamed.emplace_back("gao2001", make_variant_index());
  auto expected = combine_snapshots(std::move(renamed));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(serialized_bytes(slot1), serialized_bytes(expected.value()));
}

TEST(SnapshotMultiAlgo, MappedMultiAlgorithmFileMatchesHeapRead) {
  const auto combined = make_multi_index();
  const auto bytes = serialized_bytes(combined);
  const auto path = write_temp(bytes, "mmap-multi.asrk");

  auto mapped = try_map_snapshot_file(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().context;
  EXPECT_TRUE(mapped.value().mmap_backed());
  ASSERT_EQ(mapped.value().algorithm_count(), 2u);
  EXPECT_EQ(mapped.value().algorithm_names()[1], "gao2001");
  // Extra slots share the file mapping and answer like the built index.
  const auto& heap_slot1 = combined.algorithm_at(1);
  const auto& mmap_slot1 = mapped.value().algorithm_at(1);
  EXPECT_TRUE(mmap_slot1.mmap_backed());
  for (const Asn as : {Asn(1), Asn(2), Asn(3), Asn(4), Asn(5)}) {
    EXPECT_EQ(mmap_slot1.cone_size(as), heap_slot1.cone_size(as)) << as.str();
    EXPECT_EQ(mmap_slot1.rank(as), heap_slot1.rank(as)) << as.str();
  }
  EXPECT_EQ(mmap_slot1.relationship(Asn(4), Asn(5)), heap_slot1.relationship(Asn(4), Asn(5)));
  // And the mapped index reserializes to the exact bytes on disk.
  EXPECT_EQ(serialized_bytes(mapped.value()), bytes);
  std::remove(path.c_str());
}

TEST(SnapshotMultiAlgo, MappedMultiAlgorithmFileRejectsEveryTruncation) {
  const auto bytes = serialized_bytes(make_multi_index());
  // Step 7 keeps the fuzz tractable; byte 0 and every section boundary
  // region still get hit across the file.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    const auto path = write_temp(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut),
        "mmap-multi-truncate.asrk");
    auto mapped = try_map_snapshot_file(path);
    ASSERT_FALSE(mapped.ok()) << "prefix of " << cut << " bytes accepted";
    EXPECT_FALSE(mapped.error().context.empty());
    EXPECT_FALSE(try_read_snapshot_file(path).ok()) << "stream loader at " << cut;
  }
}

TEST(SnapshotMultiAlgo, CombineRejectsInvalidInputs) {
  const auto expect_rejected = [](std::vector<std::pair<std::string, SnapshotIndex>> parts,
                                  const std::string& needle) {
    auto combined = combine_snapshots(std::move(parts));
    ASSERT_FALSE(combined.ok()) << "combine accepted: " << needle;
    EXPECT_EQ(combined.error().code, ErrorCode::kInvalidArgument);
    EXPECT_NE(combined.error().context.find(needle), std::string::npos)
        << combined.error().context;
  };

  expect_rejected({}, "no parts");

  std::vector<std::pair<std::string, SnapshotIndex>> dup;
  dup.emplace_back("asrank", make_index());
  dup.emplace_back("asrank", make_variant_index());
  expect_rejected(std::move(dup), "duplicate algorithm name 'asrank'");

  std::vector<std::pair<std::string, SnapshotIndex>> bad_name;
  bad_name.emplace_back("not a name", make_index());
  expect_rejected(std::move(bad_name), "invalid algorithm name");

  std::vector<std::pair<std::string, SnapshotIndex>> empty_name;
  empty_name.emplace_back("", make_index());
  expect_rejected(std::move(empty_name), "invalid algorithm name");

  std::vector<std::pair<std::string, SnapshotIndex>> too_many;
  for (std::size_t i = 0; i < kMaxAlgorithms + 1; ++i) {
    too_many.emplace_back("algo" + std::to_string(i), make_index());
  }
  expect_rejected(std::move(too_many), "more than");

  std::vector<std::pair<std::string, SnapshotIndex>> nested;
  nested.emplace_back("outer", make_multi_index());
  expect_rejected(std::move(nested), "already multi-algorithm");
}

}  // namespace
}  // namespace asrank::snapshot
