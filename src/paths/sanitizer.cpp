#include "paths/sanitizer.h"

#include "paths/arena.h"

namespace asrank::paths {

SanitizeResult sanitize(const PathCorpus& input, const SanitizerConfig& config) {
  const PathArena arena = PathArena::build(input, config);
  return {arena.materialize(), arena.stats()};
}

}  // namespace asrank::paths
