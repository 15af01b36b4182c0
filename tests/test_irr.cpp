#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "text_fuzz.h"
#include "util/rng.h"
#include "validation/irr.h"
#include "validation/rpsl.h"

namespace asrank::validation {
namespace {

TEST(Irr, ParsesRouteObjects) {
  std::stringstream text(
      "route: 192.0.2.0/24\n"
      "origin: AS64500\n"
      "descr: example\n"
      "\n"
      "route: 10.0.0.0/8\n"
      "origin: AS64501\n");
  const auto database = parse_irr(text);
  ASSERT_EQ(database.routes.size(), 2u);
  EXPECT_EQ(database.routes[0].prefix.str(), "192.0.2.0/24");
  EXPECT_EQ(database.routes[0].origin, Asn(64500));
}

TEST(Irr, ParsesAsSets) {
  std::stringstream text(
      "as-set: AS-EXAMPLE\n"
      "members: AS64500, AS64501, AS-NESTED\n"
      "\n"
      "as-set: as-nested\n"
      "members: AS64502\n");
  const auto database = parse_irr(text);
  ASSERT_EQ(database.as_sets.size(), 2u);
  const auto& example = database.as_sets.at("AS-EXAMPLE");
  EXPECT_EQ(example.asn_members.size(), 2u);
  EXPECT_EQ(example.set_members, (std::vector<std::string>{"AS-NESTED"}));
  EXPECT_TRUE(database.as_sets.contains("AS-NESTED"));  // name upper-cased
}

TEST(Irr, MalformedLinesThrow) {
  std::stringstream bad_route("route: banana/24\n");
  EXPECT_THROW((void)parse_irr(bad_route), std::runtime_error);
  std::stringstream bad_origin(
      "route: 10.0.0.0/8\n"
      "origin: banana\n");
  EXPECT_THROW((void)parse_irr(bad_origin), std::runtime_error);
  std::stringstream no_origin("route: 10.0.0.0/8\n\n");
  EXPECT_THROW((void)parse_irr(no_origin), std::runtime_error);
  // The missing origin names the route object's line.
  std::stringstream late("route: 10.0.0.0/8\norigin: AS1\n\n\nroute: 10.1.0.0/16\n");
  try {
    (void)parse_irr(late);
    ADD_FAILURE() << "no throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "irr line 5: route object without origin");
  }
}

TEST(Irr, WriteParseRoundTrip) {
  IrrDatabase database;
  database.routes.push_back({*Prefix::parse("192.0.2.0/24"), Asn(64500)});
  database.routes.push_back({*Prefix::parse("10.0.0.0/8"), Asn(64501)});
  AsSet set;
  set.name = "AS-EXAMPLE";
  set.asn_members = {Asn(1), Asn(2)};
  set.set_members = {"AS-OTHER"};
  database.as_sets.emplace(set.name, set);

  std::stringstream text;
  write_irr(database, text);
  const auto parsed = parse_irr(text);
  EXPECT_EQ(parsed.routes, database.routes);
  ASSERT_TRUE(parsed.as_sets.contains("AS-EXAMPLE"));
  EXPECT_EQ(parsed.as_sets.at("AS-EXAMPLE").asn_members, set.asn_members);
  EXPECT_EQ(parsed.as_sets.at("AS-EXAMPLE").set_members, set.set_members);
}

TEST(Irr, OriginTableLongestMatch) {
  IrrDatabase database;
  database.routes.push_back({*Prefix::parse("10.0.0.0/8"), Asn(8)});
  database.routes.push_back({*Prefix::parse("10.1.0.0/16"), Asn(16)});
  const auto table = origin_table(database);
  EXPECT_EQ(table.lookup_v4(0x0a010101)->origin, Asn(16));
  EXPECT_EQ(table.lookup_v4(0x0aff0000)->origin, Asn(8));
}

TEST(Irr, OriginTableConflictsResolveToLowestAsn) {
  IrrDatabase database;
  database.routes.push_back({*Prefix::parse("10.0.0.0/8"), Asn(900)});
  database.routes.push_back({*Prefix::parse("10.0.0.0/8"), Asn(100)});
  database.routes.push_back({*Prefix::parse("10.0.0.0/8"), Asn(500)});
  const auto table = origin_table(database);
  EXPECT_EQ(table.exact(*Prefix::parse("10.0.0.0/8")), Asn(100));
}

TEST(Irr, ExpandAsSetRecursively) {
  std::stringstream text(
      "as-set: AS-TOP\n"
      "members: AS1, AS-MID\n"
      "\n"
      "as-set: AS-MID\n"
      "members: AS2, AS-TOP, AS-UNKNOWN\n");  // cycle + unknown member
  const auto database = parse_irr(text);
  const auto members = expand_as_set(database, "as-top");  // case-insensitive
  EXPECT_EQ(members, (std::vector<Asn>{Asn(1), Asn(2)}));
  EXPECT_TRUE(expand_as_set(database, "AS-NOPE").empty());
}

TEST(Irr, ValidateOrigins) {
  IrrDatabase database;
  database.routes.push_back({*Prefix::parse("10.0.0.0/8"), Asn(8)});
  database.routes.push_back({*Prefix::parse("192.0.2.0/24"), Asn(24)});
  const auto table = origin_table(database);

  const std::vector<std::pair<Prefix, Asn>> observed{
      {*Prefix::parse("10.1.0.0/16"), Asn(8)},    // covered, matches
      {*Prefix::parse("192.0.2.0/24"), Asn(99)},  // covered, mismatch
      {*Prefix::parse("172.16.0.0/12"), Asn(5)},  // uncovered
  };
  const auto result = validate_origins(table, observed);
  EXPECT_EQ(result.checked, 2u);
  EXPECT_EQ(result.matched, 1u);
  EXPECT_EQ(result.uncovered, 1u);
  EXPECT_DOUBLE_EQ(result.match_rate(), 0.5);
}


// RpslFuzz and IrrFuzz: every prefix and every single-byte flip of seeded
// write_rpsl and write_irr output must parse, or fail with the readers'
// documented error: a std::runtime_error whose message starts with
// "rpsl line <n>: " or "irr line <n>: ".  Each outcome (the parsed objects,
// or the message) folds into one digest per seed, pinned so a reader change
// that alters what any damaged text parses to, or how it fails, is caught.
// The round-trip tests check that the written text parses back equal.

/// A seeded ASN of 1-6 digits not yet in `used`.
std::uint32_t fresh_asn(util::Rng& rng, std::vector<std::uint32_t>& used) {
  for (;;) {
    const auto as = static_cast<std::uint32_t>(
        1 + rng.uniform(std::uint64_t{1} << (4 + rng.uniform(16))));
    if (std::find(used.begin(), used.end(), as) == used.end()) {
      used.push_back(as);
      return as;
    }
  }
}

/// 2-4 aut-num objects of 1-4 policies each, toward distinct neighbours.
std::vector<AutNum> fuzz_aut_nums(util::Rng& rng) {
  std::vector<std::uint32_t> used;
  std::vector<AutNum> objects(2 + rng.uniform(3));
  for (AutNum& object : objects) {
    object.as = Asn(fresh_asn(rng, used));
    object.policies.resize(1 + rng.uniform(4));
    for (RpslPolicy& policy : object.policies) {
      policy.neighbor = Asn(fresh_asn(rng, used));
      policy.has_import = rng.bernoulli(0.8);
      policy.has_export = !policy.has_import || rng.bernoulli(0.7);
      policy.import_any = policy.has_import && rng.bernoulli(0.5);
      policy.export_any = policy.has_export && rng.bernoulli(0.5);
    }
  }
  return objects;
}

/// 2-4 route objects (IPv4 and IPv6) and 1-3 as-sets whose members are
/// ASNs and other sets' names.
IrrDatabase fuzz_irr_database(util::Rng& rng) {
  std::vector<std::uint32_t> used;
  IrrDatabase database;
  database.routes.resize(2 + rng.uniform(3));
  for (RouteObject& route : database.routes) {
    std::string text;
    if (rng.bernoulli(0.75)) {
      const auto length = static_cast<std::uint32_t>(8 + rng.uniform(17));
      const auto address =
          static_cast<std::uint32_t>(rng.uniform(std::uint64_t{1} << 32)) &
          ~((std::uint32_t{1} << (32 - length)) - 1);
      for (int shift = 24; shift >= 0; shift -= 8) {
        text += std::to_string((address >> shift) & 0xff);
        text += shift == 0 ? '/' : '.';
      }
      text += std::to_string(length);
    } else {
      std::ostringstream v6;
      v6 << "2001:db8:" << std::hex << rng.uniform(0x10000) << "::/48";
      text = v6.str();
    }
    route.prefix = *Prefix::parse(text);
    route.origin = Asn(fresh_asn(rng, used));
  }
  const std::size_t sets = 1 + rng.uniform(3);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < sets; ++i) {
    names.push_back("AS-SET" + std::to_string(i) + std::string(1, 'A' + rng.uniform(26)));
  }
  for (const std::string& name : names) {
    AsSet set;
    set.name = name;
    set.asn_members.resize(rng.uniform(4));
    for (Asn& member : set.asn_members) member = Asn(fresh_asn(rng, used));
    for (const std::string& other : names) {
      if (rng.bernoulli(0.4)) set.set_members.push_back(other);
    }
    database.as_sets.emplace(name, std::move(set));
  }
  return database;
}

std::string rpsl_text(util::Rng& rng) {
  std::ostringstream os;
  write_rpsl(fuzz_aut_nums(rng), os);
  return os.str();
}

std::string irr_text(util::Rng& rng) {
  std::ostringstream os;
  write_irr(fuzz_irr_database(rng), os);
  return os.str();
}

using text_fuzz::Digest;
using text_fuzz::PinnedDigests;
using text_fuzz::flip_digest;
using text_fuzz::prefix_digest;

/// Fold a failed parse, which must be exactly a std::runtime_error whose
/// message starts with `prefix` and a line number.
void fold_error(Digest& digest, const std::exception& error, std::string_view prefix) {
  const std::string_view what = error.what();
  digest.add(1);
  digest.add(what);
  EXPECT_EQ(typeid(error), typeid(std::runtime_error)) << what;
  EXPECT_TRUE(what.starts_with(prefix) && what.size() > prefix.size() &&
              what[prefix.size()] >= '1' && what[prefix.size()] <= '9')
      << what;
}

void fold_rpsl(Digest& digest, const std::string& text) {
  std::stringstream is(text);
  std::vector<AutNum> objects;
  try {
    objects = parse_rpsl(is);
  } catch (const std::exception& error) {
    return fold_error(digest, error, "rpsl line ");
  }
  digest.add(0);
  digest.add(objects.size());
  for (const AutNum& object : objects) {
    digest.add(object.as.value());
    digest.add(object.policies.size());
    for (const RpslPolicy& policy : object.policies) {
      digest.add(policy.neighbor.value());
      digest.add(std::uint64_t{policy.has_import} | std::uint64_t{policy.import_any} << 1 |
                 std::uint64_t{policy.has_export} << 2 |
                 std::uint64_t{policy.export_any} << 3);
    }
  }
}

void fold_irr(Digest& digest, const std::string& text) {
  std::stringstream is(text);
  IrrDatabase database;
  try {
    database = parse_irr(is);
  } catch (const std::exception& error) {
    return fold_error(digest, error, "irr line ");
  }
  digest.add(0);
  digest.add(database.routes.size());
  for (const RouteObject& route : database.routes) {
    digest.add(route.prefix.str());
    digest.add(route.origin.value());
  }
  std::vector<const AsSet*> sets;
  for (const auto& [name, set] : database.as_sets) sets.push_back(&set);
  std::sort(sets.begin(), sets.end(),
            [](const AsSet* a, const AsSet* b) { return a->name < b->name; });
  digest.add(sets.size());
  for (const AsSet* set : sets) {
    digest.add(set->name);
    digest.add(set->asn_members.size());
    for (const Asn member : set->asn_members) digest.add(member.value());
    digest.add(set->set_members.size());
    for (const std::string& member : set->set_members) digest.add(member);
  }
}

/// Per-seed digests (seeds 1..4), each over three texts' outcomes.  The
/// IRR digests fold "irr line <n>: route object without origin"; a reader
/// that drops the line number from that error changes them.
constexpr PinnedDigests kRpslPrefixDigests = {
    0x47ada4fce8088666ULL, 0xb96583e13521c2e2ULL,
    0x58eecfe46f297d3bULL, 0x11a5b9bd7a28c782ULL};
constexpr PinnedDigests kRpslFlipDigests = {
    0xa4420232ad180e16ULL, 0x7a5e7b601f03fa24ULL,
    0x713f23b70afb3d13ULL, 0xe91e784741dd3154ULL};
constexpr PinnedDigests kIrrPrefixDigests = {
    0xd899b1994b5bdbddULL, 0x3684a7c028211b7aULL,
    0x7bc92bf25136ec6cULL, 0x0616ae593e27061cULL};
constexpr PinnedDigests kIrrFlipDigests = {
    0x590085dc5a514f27ULL, 0x0ce39b0aaf41cb15ULL,
    0xf18962a511f9d837ULL, 0xff2e25ce01ae4352ULL};

template <typename DigestFn>
void expect_pinned(const PinnedDigests& pinned, const DigestFn& digest_of) {
  for (std::uint64_t seed = 1; seed <= pinned.size(); ++seed) {
    const std::uint64_t digest = digest_of(seed);
    EXPECT_EQ(digest, pinned[seed - 1])
        << "seed " << seed << " digest 0x" << std::hex << digest;
  }
}

TEST(RpslFuzz, EveryPrefixParsesOrFailsWithALineError) {
  expect_pinned(kRpslPrefixDigests, [](std::uint64_t seed) {
    return prefix_digest(seed, rpsl_text, fold_rpsl);
  });
}

TEST(RpslFuzz, EverySingleByteFlipParsesOrFailsWithALineError) {
  expect_pinned(kRpslFlipDigests, [](std::uint64_t seed) {
    return flip_digest(seed, rpsl_text, fold_rpsl);
  });
}

TEST(RpslFuzz, WrittenTextParsesBackEqual) {
  util::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const auto objects = fuzz_aut_nums(rng);
    std::stringstream text;
    write_rpsl(objects, text);
    EXPECT_EQ(parse_rpsl(text), objects) << text.str();
  }
}

TEST(IrrFuzz, EveryPrefixParsesOrFailsWithALineError) {
  expect_pinned(kIrrPrefixDigests, [](std::uint64_t seed) {
    return prefix_digest(seed, irr_text, fold_irr);
  });
}

TEST(IrrFuzz, EverySingleByteFlipParsesOrFailsWithALineError) {
  expect_pinned(kIrrFlipDigests, [](std::uint64_t seed) {
    return flip_digest(seed, irr_text, fold_irr);
  });
}

TEST(IrrFuzz, WrittenTextParsesBackEqual) {
  util::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const auto database = fuzz_irr_database(rng);
    std::stringstream text;
    write_irr(database, text);
    EXPECT_EQ(parse_irr(text), database) << text.str();
  }
}

}  // namespace
}  // namespace asrank::validation
