#include "mrt/text_table.h"

#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/strings.h"

namespace asrank::mrt {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("text table line " + std::to_string(line_no) + ": " + what);
}

bool is_origin_code(std::string_view token) noexcept {
  return token == "i" || token == "e" || token == "?";
}

}  // namespace

std::vector<TextRoute> parse_show_ip_bgp(std::istream& is) {
  std::vector<TextRoute> out;
  std::string line;
  std::size_t line_no = 0;
  Prefix current_network;
  bool have_network = false;
  while (std::getline(is, line)) {
    ++line_no;
    const auto text = util::trim(line);
    if (text.empty() || text.front() != '*') continue;  // headers, separators

    auto tokens = util::split_ws(text);
    // tokens[0] is the status field: "*", "*>", "*>i", ...
    const bool best = tokens[0].find('>') != std::string_view::npos;
    std::size_t i = 1;
    if (i >= tokens.size()) fail(line_no, "route line with no fields");

    if (tokens[i].find('/') != std::string_view::npos) {
      const auto network = Prefix::parse(tokens[i]);
      if (!network) fail(line_no, "malformed network");
      current_network = *network;
      have_network = true;
      ++i;
    } else if (!have_network) {
      fail(line_no, "continuation line before any network");
    }

    if (i >= tokens.size()) fail(line_no, "missing next hop");
    ++i;  // next hop: ignored

    // Three numeric columns: metric, local-pref, weight.
    for (int col = 0; col < 3; ++col) {
      if (i >= tokens.size() || !util::parse_unsigned<std::uint32_t>(tokens[i])) {
        fail(line_no, "missing numeric metric/locprf/weight column");
      }
      ++i;
    }

    if (tokens.empty() || !is_origin_code(tokens.back())) {
      fail(line_no, "missing origin code");
    }
    AsPath path;
    for (; i + 1 < tokens.size(); ++i) {
      const auto asn = Asn::parse(tokens[i]);
      if (!asn) fail(line_no, "malformed AS path hop");
      path.push_back(*asn);
    }
    out.push_back(TextRoute{current_network, std::move(path), best});
  }
  return out;
}

void write_show_ip_bgp(const std::vector<TextRoute>& routes, std::ostream& os) {
  os << "   Network          Next Hop            Metric LocPrf Weight Path\n";
  for (const TextRoute& route : routes) {
    // The network pads to 16 columns and always ends in a space, so a
    // prefix of 17 or more characters stays a field of its own.
    os << (route.best ? "*> " : "*  ") << std::left << std::setw(16) << route.prefix.str()
       << ' ' << std::setw(20) << "0.0.0.0" << "0 100 0 " << route.path.str() << " i\n";
  }
}

void write_pipe_table(const std::vector<TextRoute>& routes, std::ostream& os) {
  for (const TextRoute& route : routes) {
    os << route.prefix.str() << '|' << route.path.str() << '\n';
  }
}

std::vector<TextRoute> parse_pipe_table(std::istream& is) {
  std::vector<TextRoute> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto text = util::trim(line);
    if (text.empty() || text.front() == '#') continue;
    const auto fields = util::split(text, '|', /*keep_empty=*/true);
    if (fields.size() != 2) fail(line_no, "expected 'prefix|path'");
    const auto prefix = Prefix::parse(fields[0]);
    const auto path = AsPath::parse(fields[1]);
    if (!prefix || !path) fail(line_no, "malformed prefix or path");
    out.push_back(TextRoute{*prefix, *path, /*best=*/true});
  }
  return out;
}

}  // namespace asrank::mrt
