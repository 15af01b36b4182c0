#include "ingest/epoch_builder.h"

#include <stdexcept>
#include <utility>

#include "core/cones.h"
#include "obs/timer.h"

namespace asrank::ingest {

namespace {

/// Same alphabet serve::SnapshotRegistry accepts for epoch labels.
bool valid_label_char(char c) noexcept {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
         c == '.' || c == '_' || c == ':' || c == '-';
}

}  // namespace

EpochBuilder::EpochBuilder(EpochBuilderConfig config, obs::Registry& metrics)
    : config_(std::move(config)),
      build_latency_(&metrics.histogram("asrank_ingest_epoch_build_micros",
                                        "Wall-clock cost of building one ingest epoch")),
      epochs_total_(&metrics.counter("asrank_ingest_epochs_emitted_total",
                                     "Epochs built by the ingest pipeline")) {}

Result<snapshot::SnapshotIndex> EpochBuilder::build(const paths::PathCorpus& corpus,
                                                    EpochBuildInfo* info) {
  obs::ScopedTimer timer(build_latency_);
  try {
    snapshot::SnapshotIndex index = batch_build(corpus, config_);
    EpochBuildInfo local;
    local.sequence = ++sequence_;
    local.cones.dirty_fraction = index.as_count() == 0 ? 0.0 : 1.0;
    local.cones.full_recompute = true;
    local.build_micros = timer.elapsed_micros();
    epochs_total_->inc();
    if (info != nullptr) *info = local;
    return index;
  } catch (const std::exception& error) {
    // Provider cycles, snapshot invariant violations, bad-alloc on absurd
    // input: a long-running ingest loop must survive all of them.
    return make_error(ErrorCode::kInternal,
                      std::string("ingest: epoch build failed: ") + error.what());
  }
}

snapshot::SnapshotIndex EpochBuilder::batch_build(const paths::PathCorpus& corpus,
                                                  const EpochBuilderConfig& config) {
  const core::AsRankInference inference(config.inference);
  const core::InferenceResult result = inference.run(corpus);
  const ConeMap cones = core::recursive_cone(result.graph, config.cone_threads);
  return snapshot::build_snapshot(result.graph, result.degrees, cones, result.clique);
}

std::string expand_epoch_label(std::string_view format, std::uint64_t sequence,
                               std::uint64_t timestamp) {
  std::string out;
  for (std::size_t i = 0; i < format.size(); ++i) {
    const char c = format[i];
    if (c != '%') {
      out.push_back(c);
      continue;
    }
    if (++i >= format.size()) {
      throw std::invalid_argument("epoch label format: dangling '%'");
    }
    switch (format[i]) {
      case 'N': {
        std::string digits = std::to_string(sequence);
        if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
        out += digits;
        break;
      }
      case 'T':
        out += std::to_string(timestamp);
        break;
      case '%':
        out.push_back('%');
        break;
      default:
        throw std::invalid_argument(std::string("epoch label format: unknown escape '%") +
                                    format[i] + "'");
    }
  }
  if (out.empty() || out.size() > 64) {
    throw std::invalid_argument("epoch label format: expansion must be 1-64 characters");
  }
  for (const char c : out) {
    if (!valid_label_char(c)) {
      throw std::invalid_argument(
          "epoch label format: expansion has characters outside [A-Za-z0-9._:-]");
    }
  }
  return out;
}

}  // namespace asrank::ingest
