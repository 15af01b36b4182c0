#include "topology/serialization.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "topology/topology_view.h"
#include "util/strings.h"

namespace asrank {

namespace {

/// Parse failures ride the Result rail as kCorrupt; the context string is
/// exactly the message the throwing wrappers historically raised.
[[nodiscard]] Error fail(std::size_t line_no, const std::string& what) {
  return make_error(ErrorCode::kCorrupt,
                    "line " + std::to_string(line_no) + ": " + what);
}

/// Strict dataset-file ASN: plain decimal only.  The lenient Asn::parse
/// (which also takes "AS64500" and asdot "1.2") is for human input; in
/// .as-rel/.ppdc files those spellings are junk and must be rejected.
std::optional<Asn> parse_field_asn(std::string_view field) {
  const auto value = util::parse_unsigned<std::uint32_t>(field);
  if (!value || *value == 0) return std::nullopt;
  return Asn(*value);
}

}  // namespace

void write_as_rel(const AsGraph& graph, std::ostream& os) { write_as_rel(graph.freeze(), os); }

void write_as_rel(const topology::TopologyView& view, std::ostream& os) {
  os << "# " << view.node_count() << " ASes, " << view.link_count() << " links\n";
  os << "# format: <provider|peer>|<customer|peer>|<-1 p2c, 0 p2p, 2 s2s>\n";
  for (const Link& link : view.links()) {
    os << link.a.value() << '|' << link.b.value() << '|' << as_rel_code(link.type) << '\n';
  }
}

Result<AsGraph> try_read_as_rel(std::istream& is) {
  AsGraph graph;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto text = util::trim(line);
    if (text.empty() || text.front() == '#') continue;
    const auto fields = util::split(text, '|', /*keep_empty=*/true);
    if (fields.size() != 3) return fail(line_no, "expected 3 '|'-separated fields");
    const auto a = parse_field_asn(fields[0]);
    const auto b = parse_field_asn(fields[1]);
    if (!a || !b) return fail(line_no, "malformed ASN field");
    const auto code = util::parse_unsigned<std::uint32_t>(
        fields[2].starts_with('-') ? fields[2].substr(1) : fields[2]);
    if (!code) return fail(line_no, "malformed relationship code");
    const int rel_code = fields[2].starts_with('-') ? -static_cast<int>(*code)
                                                    : static_cast<int>(*code);
    const auto type = link_type_from_code(rel_code);
    if (!type) return fail(line_no, "unknown relationship code " + std::to_string(rel_code));
    if (graph.has_link(*a, *b)) {
      return fail(line_no, "duplicate link " + a->str() + "|" + b->str());
    }
    try {
      graph.set_relationship(*a, *b, *type);
    } catch (const std::exception& error) {
      return fail(line_no, error.what());
    }
  }
  return graph;
}

AsGraph read_as_rel(std::istream& is) {
  auto parsed = try_read_as_rel(is);
  if (!parsed.ok()) throw std::runtime_error(parsed.error().context);
  return std::move(parsed).value();
}

ConeMap::ConeMap(std::vector<Asn> keys, std::vector<std::uint64_t> offsets,
                 std::vector<Asn> members)
    : keys_(std::move(keys)), offsets_(std::move(offsets)), members_(std::move(members)) {
  if (offsets_.size() != keys_.size() + 1 || offsets_.front() != 0 ||
      offsets_.back() != members_.size() || !std::is_sorted(offsets_.begin(), offsets_.end()) ||
      std::adjacent_find(keys_.begin(), keys_.end(), [](Asn a, Asn b) { return !(a < b); }) !=
          keys_.end()) {
    throw std::invalid_argument("ConeMap: malformed CSR table");
  }
}

void ConeMap::append(Asn as, std::span<const Asn> members) {
  if (size() > 0 && !(keys_.back() < as)) {
    throw std::invalid_argument("ConeMap: key AS" + as.str() + " does not ascend");
  }
  keys_.push_back(as);
  members_.insert(members_.end(), members.begin(), members.end());
  offsets_.push_back(members_.size());
}

std::span<const Asn> ConeMap::at(Asn as) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), as);
  if (it == keys_.end() || *it != as) throw std::out_of_range("ConeMap: no cone for AS" + as.str());
  return row(static_cast<std::size_t>(it - keys_.begin()));
}

void write_ppdc(const ConeMap& cones, std::ostream& os) {
  os << "# format: <as> <cone member> ...\n";
  for (const auto& [as, members] : cones) {
    os << as.value();
    for (const Asn member : members) os << ' ' << member.value();
    os << '\n';
  }
}

Result<ConeMap> try_read_ppdc(std::istream& is) {
  // Rows go to one flat buffer in file order, then to the table in key order.
  struct Row {
    Asn as;
    std::size_t begin, end;
  };
  std::vector<Row> rows;
  std::vector<Asn> members;
  std::unordered_set<Asn> seen;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto text = util::trim(line);
    if (text.empty() || text.front() == '#') continue;
    const auto tokens = util::split_ws(text);
    const auto as = parse_field_asn(tokens[0]);
    if (!as) return fail(line_no, "malformed AS");
    const std::size_t begin = members.size();
    bool has_self = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto member = parse_field_asn(tokens[i]);
      if (!member) return fail(line_no, "malformed cone member '" + std::string(tokens[i]) + "'");
      if (members.size() > begin && !(members.back() < *member)) {
        return fail(line_no, "cone members not strictly ascending");
      }
      has_self = has_self || *member == *as;
      members.push_back(*member);
    }
    if (!has_self) return fail(line_no, "cone does not contain its own AS");
    if (!seen.insert(*as).second) {
      return fail(line_no, "duplicate cone for AS" + as->str());
    }
    rows.push_back({*as, begin, members.size()});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.as < b.as; });
  ConeMap cones;
  for (const Row& row : rows) {
    cones.append(row.as, std::span<const Asn>(members).subspan(row.begin, row.end - row.begin));
  }
  return cones;
}

ConeMap read_ppdc(std::istream& is) {
  auto parsed = try_read_ppdc(is);
  if (!parsed.ok()) throw std::runtime_error(parsed.error().context);
  return std::move(parsed).value();
}

}  // namespace asrank
