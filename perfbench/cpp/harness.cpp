#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Equal neighbours (two failed requests at +inf, say) need no blend.
  if (frac == 0.0 || samples[lo] == samples[hi]) return samples[lo];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Tracer::Tracer(bool enabled, std::string thread_name)
    : enabled_(enabled), thread_(std::move(thread_name)) {
  if (enabled_) spans_.reserve(1 << 16);
}

namespace {
std::int64_t now_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}
}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<std::uint32_t>(index_of_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = now_ns(Clock::now());
  index_of_.push_back(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_[index_of_[id - 1]].end_ns = now_ns(Clock::now());
}

std::uint32_t Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                          std::uint32_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<std::uint32_t>(index_of_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = now_ns(start);
  span.end_ns = now_ns(end);
  index_of_.push_back(spans_.size());
  spans_.push_back(span);
  return span.id;
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const auto& span : spans_) out[span.name] += (span.end_ns - span.start_ns) / 1e6;
  return out;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& span : spans_) {
    if (span.parent != 0) {
      child_ns[index_of_[span.parent - 1]] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out[span.name] += (static_cast<double>(span.end_ns - span.start_ns) - child_ns[i]) / 1e6;
  }
  return out;
}

std::map<std::string, std::size_t> Tracer::counts() const {
  std::map<std::string, std::size_t> out;
  for (const auto& span : spans_) ++out[span.name];
  return out;
}

void write_spans(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const Tracer* tracer : tracers) {
    for (const auto& span : tracer->spans()) {
      out << tracer->thread_name() << '\t' << span.id << '\t' << span.parent << '\t'
          << span.request << '\t' << span.name << '\t' << span.start_ns << '\t'
          << span.end_ns << '\n';
    }
  }
}

Exposition scrape() {
  Exposition out;
  std::istringstream in(asrank::obs::Registry::global().render_prometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double delta(const Exposition& before, const Exposition& after, std::string_view family,
             std::string_view label_filter) {
  double sum = 0.0;
  for (auto it = after.lower_bound(std::string(family)); it != after.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, family.size(), family) != 0) break;
    if (key.size() > family.size() && key[family.size()] != '{') continue;
    if (!label_filter.empty() && key.find(label_filter) == std::string::npos) continue;
    const auto prior = before.find(key);
    sum += it->second - (prior == before.end() ? 0.0 : prior->second);
  }
  return sum;
}

std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (auto& f : field) {
    if (!(in >> f)) return 0;
  }
  return field[7];  // user nice system idle iowait irq softirq steal
}

double steal_share(std::uint64_t before, std::uint64_t after, double seconds) {
  static const double ticks_per_second = static_cast<double>(::sysconf(_SC_CLK_TCK));
  static const double cpus = static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  if (seconds <= 0 || after < before) return 0.0;
  return static_cast<double>(after - before) / (ticks_per_second * seconds * cpus);
}

std::vector<double> unstolen(const std::vector<double>& values, const std::vector<double>& steal,
                             std::size_t* left_out) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i >= steal.size() || steal[i] <= kStealLimit) kept.push_back(values[i]);
  }
  if (left_out != nullptr) *left_out += values.size() - kept.size();
  return kept.size() * 2 < values.size() ? values : kept;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) != 0) {
    throw std::runtime_error("pthread_setaffinity_np failed");
  }
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ByteBuf::pos_type ByteBuf::seekoff(off_type off, std::ios_base::seekdir dir,
                                   std::ios_base::openmode which) {
  if ((which & std::ios_base::in) == 0) return pos_type(off_type(-1));
  off_type base = 0;
  if (dir == std::ios_base::cur) base = gptr() - eback();
  if (dir == std::ios_base::end) base = egptr() - eback();
  const off_type target = base + off;
  if (target < 0 || target > egptr() - eback()) return pos_type(off_type(-1));
  setg(eback(), eback() + target, egptr());
  return pos_type(target);
}

ByteBuf::pos_type ByteBuf::seekpos(pos_type pos, std::ios_base::openmode which) {
  return seekoff(off_type(pos), std::ios_base::beg, which);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

}  // namespace perfbench
