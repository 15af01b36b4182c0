#include "validation/irr.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "util/strings.h"

namespace asrank::validation {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("irr line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

IrrDatabase parse_irr(std::istream& is) {
  IrrDatabase database;
  std::string line;
  std::size_t line_no = 0;

  // Object state: at most one of these is active.
  std::optional<RouteObject> route;
  std::size_t route_line = 0;
  std::optional<AsSet> as_set;

  auto flush = [&] {
    if (route) {
      if (!route->origin.valid()) fail(route_line, "route object without origin");
      database.routes.push_back(*route);
    }
    if (as_set) database.as_sets.emplace(as_set->name, std::move(*as_set));
    route.reset();
    as_set.reset();
  };

  while (std::getline(is, line)) {
    ++line_no;
    const auto text = util::trim(line);
    if (text.empty()) {
      flush();
      continue;
    }
    if (text.front() == '%' || text.front() == '#') continue;
    const auto colon = text.find(':');
    if (colon == std::string_view::npos) continue;
    const auto attr = util::to_lower(util::trim(text.substr(0, colon)));
    const auto rest = util::trim(text.substr(colon + 1));

    if (attr == "route") {
      flush();
      const auto prefix = Prefix::parse(rest);
      if (!prefix) fail(line_no, "malformed route prefix");
      route = RouteObject{*prefix, Asn{}};
      route_line = line_no;
    } else if (attr == "origin" && route) {
      const auto origin = Asn::parse(rest);
      if (!origin) fail(line_no, "malformed origin");
      route->origin = *origin;
    } else if (attr == "as-set") {
      flush();
      as_set = AsSet{};
      as_set->name.assign(rest.begin(), rest.end());
      std::transform(as_set->name.begin(), as_set->name.end(), as_set->name.begin(),
                     [](unsigned char c) { return std::toupper(c); });
      if (as_set->name.empty()) fail(line_no, "empty as-set name");
    } else if (attr == "members" && as_set) {
      for (const auto member : util::split(rest, ',')) {
        const auto token = util::trim(member);
        if (token.empty()) continue;
        if (const auto asn = Asn::parse(token)) {
          as_set->asn_members.push_back(*asn);
        } else {
          std::string name(token);
          std::transform(name.begin(), name.end(), name.begin(),
                         [](unsigned char c) { return std::toupper(c); });
          as_set->set_members.push_back(std::move(name));
        }
      }
    }
    // Other attributes (descr, mnt-by, source, ...) are ignored.
  }
  flush();
  return database;
}

void write_irr(const IrrDatabase& database, std::ostream& os) {
  for (const RouteObject& route : database.routes) {
    os << "route: " << route.prefix.str() << '\n';
    os << "origin: AS" << route.origin.value() << '\n';
    os << '\n';
  }
  // Deterministic order for round-trip comparison.
  std::vector<const AsSet*> sets;
  sets.reserve(database.as_sets.size());
  for (const auto& [name, set] : database.as_sets) sets.push_back(&set);
  std::sort(sets.begin(), sets.end(),
            [](const AsSet* a, const AsSet* b) { return a->name < b->name; });
  for (const AsSet* set : sets) {
    os << "as-set: " << set->name << '\n';
    os << "members:";
    bool first = true;
    for (const Asn member : set->asn_members) {
      os << (first ? " " : ", ") << "AS" << member.value();
      first = false;
    }
    for (const std::string& member : set->set_members) {
      os << (first ? " " : ", ") << member;
      first = false;
    }
    os << "\n\n";
  }
}

PrefixTable origin_table(const IrrDatabase& database) {
  PrefixTable table;
  for (const RouteObject& route : database.routes) {
    const auto existing = table.exact(route.prefix);
    if (!existing || route.origin < *existing) {
      table.insert(route.prefix, route.origin);
    }
  }
  return table;
}

std::vector<Asn> expand_as_set(const IrrDatabase& database, const std::string& name) {
  std::unordered_set<std::string> visited;
  std::unordered_set<Asn> members;
  std::vector<std::string> stack{name};
  while (!stack.empty()) {
    std::string current = std::move(stack.back());
    stack.pop_back();
    std::transform(current.begin(), current.end(), current.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (!visited.insert(current).second) continue;  // cycle or repeat
    const auto it = database.as_sets.find(current);
    if (it == database.as_sets.end()) continue;  // unknown nested set
    members.insert(it->second.asn_members.begin(), it->second.asn_members.end());
    stack.insert(stack.end(), it->second.set_members.begin(), it->second.set_members.end());
  }
  std::vector<Asn> out(members.begin(), members.end());
  std::sort(out.begin(), out.end());
  return out;
}

OriginValidation validate_origins(const PrefixTable& registry,
                                  const std::vector<std::pair<Prefix, Asn>>& observed) {
  OriginValidation result;
  for (const auto& [prefix, origin] : observed) {
    const auto match = registry.lookup(prefix);
    if (!match) {
      ++result.uncovered;
      continue;
    }
    ++result.checked;
    if (match->origin == origin) ++result.matched;
  }
  return result;
}

}  // namespace asrank::validation
