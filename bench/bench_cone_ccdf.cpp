// E7 — paper §5 figure analogue: CCDF of customer-cone sizes under the
// three cone definitions.  The paper finds heavy-tailed cone sizes with the
// recursive cone over-counting relative to the provider/peer observed cone,
// and the directly-observed cone smallest.
#include "bench_common.h"

#include "core/cones.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace asrank;
  const auto options = bench::parse_options(argc, argv);
  bench::header("E7 customer-cone size CCDF, three definitions (paper Fig. 5-style)",
                options);
  bench::paper_shape(
      "cone sizes are heavy-tailed; recursive >= provider/peer observed >= "
      "BGP observed in total mass; the three curves converge at the tail "
      "(the largest transit providers)");

  const auto world = bench::make_world(options);
  const auto& view = world.result.graph;
  const auto recursive = core::recursive_cone(view);
  const auto ppdc = core::provider_peer_observed_cone(view, world.result.arena);
  const auto observed = core::bgp_observed_cone(view, world.result.arena);

  auto sizes = [](const ConeMap& cones) {
    std::vector<double> out;
    out.reserve(cones.size());
    for (const auto& [as, members] : cones) out.push_back(static_cast<double>(members.size()));
    return out;
  };
  const auto recursive_sizes = sizes(recursive);
  const auto ppdc_sizes = sizes(ppdc);
  const auto observed_sizes = sizes(observed);

  // CCDF sampled at round cone sizes.
  util::TableWriter table({"cone size >=", "recursive", "ppdc", "bgp-observed"});
  auto fraction_at = [](const std::vector<util::CcdfPoint>& ccdf, double x) {
    double fraction = 0.0;
    for (const auto& point : ccdf) {
      if (point.value >= x) {
        fraction = point.fraction;
        break;
      }
    }
    return fraction;
  };
  const auto r = util::ccdf(recursive_sizes);
  const auto p = util::ccdf(ppdc_sizes);
  const auto o = util::ccdf(observed_sizes);
  for (const double x : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0}) {
    table.add_row({util::fmt(x, 0), util::fmt(fraction_at(r, x), 4),
                   util::fmt(fraction_at(p, x), 4), util::fmt(fraction_at(o, x), 4)});
  }
  table.render(std::cout);

  auto total = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return sum;
  };
  std::cout << "total cone mass: recursive " << util::fmt(total(recursive_sizes), 0)
            << ", ppdc " << util::fmt(total(ppdc_sizes), 0) << ", bgp-observed "
            << util::fmt(total(observed_sizes), 0) << "\n";
  const auto summary = util::summarize(recursive_sizes);
  std::cout << "recursive cone sizes: median " << util::fmt(summary.median, 1) << ", p90 "
            << util::fmt(summary.p90, 1) << ", max " << util::fmt(summary.max, 0)
            << " (heavy tail)\n";
  return 0;
}
