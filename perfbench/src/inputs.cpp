#include "inputs.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

namespace perfbench {
namespace {

using saris::i32;
using saris::u32;
using std::uint64_t;

uint64_t splitmix(uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Independent stream state for (seed, stream, index): each draw depends
/// only on its own coordinates, never on how many draws came before.
uint64_t stream_state(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t s = seed;
  uint64_t a = splitmix(s) ^ stream;
  uint64_t b = splitmix(a) ^ index;
  return splitmix(b);
}

constexpr uint64_t kRunSeedStream = 1;
constexpr uint64_t kShapeStream = 2;

}  // namespace

uint64_t InputGen::run_seed(uint64_t round) const {
  return stream_state(seed_, kRunSeedStream, round);
}

saris::StencilCode InputGen::shape(uint64_t index) const {
  uint64_t s = stream_state(seed_, kShapeStream, index);
  // Stratified: the index picks the (dims, radius) stratum, the wanted tap
  // count and the schedule class, so any kShapeStrata consecutive indices
  // hold every (stratum, taps) pair once and the classes in the fuzz
  // tests' proportions; the stream picks the tap offsets.
  static constexpr u32 kDimsRadius[5][2] = {{2, 1}, {2, 2}, {2, 3},
                                            {3, 1}, {3, 2}};
  saris::StencilCode sc;
  sc.dims = kDimsRadius[index % 5][0];
  sc.radius = kDimsRadius[index % 5][1];
  if (sc.dims == 2) {
    sc.tile_nx = sc.tile_ny = 64;
    sc.tile_nz = 1;
  } else {
    sc.tile_nx = sc.tile_ny = sc.tile_nz = 16;
  }
  sc.name = "cold_" + std::to_string(seed_) + "_" + std::to_string(index);

  const i32 r = static_cast<i32>(sc.radius);
  const uint64_t span = 2 * sc.radius + 1;
  u32 max_taps = 1;  // distinct offsets inside the halo
  for (u32 d = 0; d < sc.dims; ++d) max_taps *= static_cast<u32>(span);
  // Seven tap counts spread over 4..17: 4, 6, 8, 11, 13, 15, 17.
  const u32 want = std::min(
      4 + static_cast<u32>(((index / 5) % 7 * 13 + 3) / 6), max_taps);
  std::set<std::tuple<i32, i32, i32>> offs;
  offs.insert({0, 0, 0});
  while (offs.size() < want) {
    const i32 dx = static_cast<i32>(splitmix(s) % span) - r;
    const i32 dy = static_cast<i32>(splitmix(s) % span) - r;
    const i32 dz =
        sc.dims == 3 ? static_cast<i32>(splitmix(s) % span) - r : 0;
    offs.insert({dx, dy, dz});
  }

  // About the fuzz tests' mix: over kShapeStrata shapes, 10 sum-scale, 13
  // fma-chain with a constant term, 12 without.
  const uint64_t cls = index % 8;
  const bool sum_scale = cls < 2;
  sc.sched = sum_scale ? saris::ScheduleClass::kSumScale
                       : saris::ScheduleClass::kFmaChain;
  sc.const_term = cls >= 2 && cls < 5;
  u32 coeff = 0;
  for (const auto& [dx, dy, dz] : offs) {
    saris::Tap t;
    t.dx = dx;
    t.dy = dy;
    t.dz = dz;
    t.coeff = sum_scale ? saris::kNoCoeff : coeff++;
    sc.taps.push_back(t);
  }
  sc.n_coeffs = sum_scale ? 1 : coeff + (sc.const_term ? 1 : 0);
  return sc;
}

void ShapeMix::add(const saris::StencilCode& sc) {
  ++dims[sc.dims];
  ++radius[sc.radius];
  ++taps[sc.loads_per_point()];
}

std::string ShapeMix::render() const {
  std::ostringstream os;
  auto hist = [&os](const char* label,
                    const std::map<std::uint32_t, std::uint64_t>& h) {
    os << label << " {";
    bool first = true;
    for (const auto& [k, n] : h) {
      os << (first ? "" : ", ") << k << ": " << n;
      first = false;
    }
    os << "}";
  };
  hist("dims", dims);
  hist(" radius", radius);
  hist(" taps", taps);
  return os.str();
}

}  // namespace perfbench
