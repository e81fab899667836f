// Seeded input generator owned by the benchmark. The workload seed given
// on the command line reaches the simulator only through what this
// produces: run seeds (which the program expands into tile data) and
// random stencil shapes.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stencil/stencil_def.hpp"

namespace perfbench {

/// Number of (dims, radius) x tap-count pairs the shapes are drawn from.
inline constexpr std::uint64_t kShapeStrata = 5 * 7;

class InputGen {
 public:
  explicit InputGen(std::uint64_t seed) : seed_(seed) {}

  /// Run seed of round `round` (a fresh one per round).
  std::uint64_t run_seed(std::uint64_t round) const;

  /// Random stencil shape number `index`, from the same family as the
  /// repo's fuzz tests: 2-D (radius 1-3, 64^2 tile) or 3-D (radius 1-2,
  /// 16^3 tile), one of seven tap counts in 4-17 (capped by the halo,
  /// unique offsets) with the centre
  /// always included, fma-chain (with or without a constant term) or
  /// sum-scale. The index fixes the (dims, radius) stratum, the tap count
  /// and the schedule class, so any kShapeStrata consecutive shapes cover
  /// every (stratum, taps) pair once; the seed draws the tap offsets. The
  /// name embeds seed and index, so no two shapes share a plan-cache key.
  saris::StencilCode shape(std::uint64_t index) const;

 private:
  std::uint64_t seed_;
};

/// Histogram of the shapes a run used, by dims, radius and tap count.
struct ShapeMix {
  std::map<std::uint32_t, std::uint64_t> dims, radius, taps;

  void add(const saris::StencilCode& sc);
  /// One line: "dims {2: 10, 3: 6} radius {...} taps {...}".
  std::string render() const;
};

}  // namespace perfbench
