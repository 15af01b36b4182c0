// Measurement plumbing shared by the three workloads: clocks, quantiles,
// the span recorder of the traced run, before/after deltas of the library's
// obs::Registry series, host steal, CPU pinning, and the result the binary
// prints.
//
// Nothing here reaches into the library's internals: spans wrap the calls
// the benchmark makes, and registry deltas read the Prometheus exposition
// the library already renders.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fixture_dir;  ///< inputs made by `perfbench fixture`
  std::string work_dir;     ///< scratch space for files the program writes
  std::string trace_path;   ///< where the traced run writes its spans
  unsigned nproc = 1;
};

/// Linear-interpolated quantile of an unsorted sample, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// One timed interval of the traced run.  Spans of one request share
/// `request`; `parent` is the id of the enclosing span (0 = root).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder.  One per thread (not synchronised); a disabled
/// tracer records nothing and begin() returns 0.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::string thread_name);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::uint64_t request = 0);
  void end(std::uint32_t id);
  /// Record an interval measured elsewhere; returns its id.
  std::uint32_t add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint32_t parent = 0, std::uint64_t request = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const std::string& thread_name() const noexcept { return thread_; }

  /// Total duration per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> total_ms() const;
  /// Self time per span name (duration minus the time its child spans
  /// cover), in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Span count per name.
  [[nodiscard]] std::map<std::string, std::size_t> counts() const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint32_t parent = 0,
          std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.end(id_); }
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

 private:
  bool enabled_;
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> index_of_;  ///< span id - 1 -> position in spans_
};

/// Write every tracer's spans as tab-separated rows
/// (thread, id, parent, request, name, start_ns, end_ns).
void write_spans(const std::string& path, const std::vector<const Tracer*>& tracers);

/// A parsed Prometheus exposition: series line key -> value.
using Exposition = std::map<std::string, double>;

/// Parse the global registry's current exposition.
[[nodiscard]] Exposition scrape();

/// Sum of (after - before) over series of `family` (exact metric name as
/// rendered, e.g. "asrank_stage_duration_micros_sum") whose label string
/// contains `label_filter` (empty = every series).
[[nodiscard]] double delta(const Exposition& before, const Exposition& after,
                           std::string_view family, std::string_view label_filter = {});

/// Hypervisor steal: time this VM's CPUs wanted to run but the host ran
/// something else (the `steal` column of /proc/stat).  On a shared host it
/// comes in bursts that take a quarter of one CPU for seconds, and a figure
/// measured through such a burst describes the neighbours, not the program.
/// So each unit of work (a load slice, a pass, an epoch) records the steal
/// share it saw, and the medians leave out units above kStealLimit.
inline constexpr double kStealLimit = 0.03;

/// Steal so far, summed over all CPUs, in clock ticks (0 where /proc/stat
/// has no steal column).
[[nodiscard]] std::uint64_t steal_ticks();

/// Share of all CPUs' time stolen between two steal_ticks() readings taken
/// `seconds` apart.
[[nodiscard]] double steal_share(std::uint64_t before, std::uint64_t after, double seconds);

/// The values whose unit saw a steal share of at most kStealLimit, or all of
/// them when that would leave fewer than half.  `left_out` (when given)
/// counts the units over the limit, kept or not, so a stamp shows how
/// stolen the run was.
[[nodiscard]] std::vector<double> unstolen(const std::vector<double>& values,
                                           const std::vector<double>& steal,
                                           std::size_t* left_out = nullptr);

/// CPUs the process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Restrict the calling thread (and the threads it creates afterwards) to
/// `cpus`.  The serving workloads give the generator a CPU of its own this
/// way, so it neither steals from nor waits behind the server.
void pin_thread(const std::vector<int>& cpus);

/// Process peak resident set size, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Read-only std::streambuf over bytes the caller keeps alive (no copy, so a
/// decode pass measures decoding, not a buffer copy).
class ByteBuf : public std::streambuf {
 public:
  ByteBuf(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + size);
  }
  /// Make more of the underlying buffer readable (streamed input).
  void extend(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);
    setg(p, p + (gptr() - eback()), p + size);
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;
};

[[nodiscard]] std::string read_file(const std::string& path);

/// What a workload hands back: correctness, operation accounting, metrics
/// by name, and provenance notes that go into the stamp.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;  ///< why `correct` is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> stamp;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

}  // namespace perfbench
