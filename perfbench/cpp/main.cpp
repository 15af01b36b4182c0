// perfbench: the repository benchmark binary.  perfbench/run.py builds it and
// drives it; it can also be run by hand:
//
//   perfbench fixture --workload W --seed N --out DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --fixtures DIR --work DIR [--spans FILE]
//
// `run` prints one JSON object on its last line: correct, attempted, failed,
// metrics (name -> value), the provenance stamp, and the failed checks.  It
// exits 1 when an output check failed and 2 on a usage or run error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "obs/log.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  out << "}, \"stamp\": {";
  first = true;
  for (const auto& [key, value] : result.stamp) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  out << "}, \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(result.errors[i]);
  }
  out << "]}";
  std::cout << out.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench fixture --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --seed N --seconds S --trace 0|1\n"
               "                     --fixtures DIR --work DIR [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&flags](const char* name) -> const std::string& {
    const auto it = flags.find(name);
    if (it == flags.end()) throw std::invalid_argument(std::string("missing --") + name);
    return it->second;
  };

  // The library logs every epoch install at INFO; keep stderr to warnings.
  asrank::obs::Logger::global().set_level(asrank::obs::LogLevel::kWarn);
  try {
    if (command == "fixture") {
      std::filesystem::create_directories(flag("out"));
      make_fixture(flag("workload"), std::stoull(flag("seed")), flag("out"));
      return 0;
    }
    if (command != "run") return usage();

    Options options;
    options.workload = flag("workload");
    options.seed = std::stoull(flag("seed"));
    options.seconds = std::stod(flag("seconds"));
    options.trace = flag("trace") == "1";
    options.fixture_dir = flag("fixtures");
    options.work_dir = flag("work");
    options.trace_path = flags.count("spans") ? flags["spans"] : options.work_dir + "/spans.tsv";
    options.nproc = std::max(1u, std::thread::hardware_concurrency());
    if (options.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
    std::filesystem::create_directories(options.work_dir);

    const auto start = Clock::now();
    const std::uint64_t steal_start = steal_ticks();
    Result result;
    if (options.workload == "pipeline_rib") {
      result = run_pipeline_rib(options);
    } else if (options.workload == "serve_zipf_mix") {
      result = run_serve_zipf_mix(options);
    } else if (options.workload == "ingest_live") {
      result = run_ingest_live(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    // How much of the CPUs the host took while the workload ran; a run with
    // a high share measured the neighbours as much as the program.
    result.stamp["host_steal_pct"] = std::to_string(
        100.0 * steal_share(steal_start, steal_ticks(), seconds_between(start, Clock::now())));
    result.stamp["nproc"] = std::to_string(options.nproc);
    result.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
    result.stamp["compiler"] = compiler();
    result.stamp["seed"] = std::to_string(options.seed);
    result.stamp["workload"] = options.workload;
    result.stamp["trace"] = options.trace ? "1" : "0";
    print(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
