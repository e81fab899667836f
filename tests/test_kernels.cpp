// End-to-end integration tests: every stencil code of Table 1 runs on the
// simulated cluster in both variants, its output matches the golden
// reference, and the FLOP/structure invariants of the paper hold.
#include <gtest/gtest.h>

#include "runtime/kernel_runner.hpp"
#include "stencil/codes.hpp"
#include "system/system_runner.hpp"

namespace saris {
namespace {

class KernelTest : public ::testing::TestWithParam<
                       std::tuple<std::string, KernelVariant>> {};

TEST_P(KernelTest, MatchesReferenceAndFlopCount) {
  const auto& [name, variant] = GetParam();
  const StencilCode& sc = code_by_name(name);
  RunConfig cfg;
  cfg.variant = variant;
  cfg.seed = 42;
  RunMetrics m = run_kernel(sc, cfg);  // aborts internally on mismatch
  EXPECT_LE(m.max_rel_err, cfg.tolerance);
  EXPECT_EQ(m.flops,
            static_cast<u64>(sc.flops_per_point()) * sc.interior_points());
  EXPECT_GT(m.cycles, 0u);
  // Every core did some useful work.
  for (const CorePerf& p : m.per_core) {
    EXPECT_TRUE(p.halted);
    EXPECT_GT(p.fpu_useful_ops, 0u);
  }
}

std::vector<std::tuple<std::string, KernelVariant>> all_params() {
  std::vector<std::tuple<std::string, KernelVariant>> ps;
  for (const StencilCode& sc : all_codes()) {
    ps.emplace_back(sc.name, KernelVariant::kBase);
    ps.emplace_back(sc.name, KernelVariant::kSaris);
  }
  return ps;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, KernelTest, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<KernelTest::ParamType>& info) {
      return std::get<0>(info.param) +
             std::string("_") + variant_name(std::get<1>(info.param));
    });

TEST(KernelContract, OutputsThatCancelToNearZeroVerify) {
  // This seed's j2d5pt tile has an output that cancels to ~3.6e-8, whose
  // rounding error is 1.9e-10 of its own magnitude but far below the
  // tile's scale. It is tile 2 of cluster 4 in a system run seeded 1001.
  const u64 seed = 4354689962983359199ull;
  EXPECT_EQ(system_tile_seed(1001, 4, 2), seed);
  const StencilCode& sc = code_by_name("j2d5pt");
  for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
    RunConfig cfg;
    cfg.variant = v;
    cfg.seed = seed;
    RunMetrics m = run_kernel(sc, cfg);
    EXPECT_LE(m.max_rel_err, cfg.tolerance) << variant_name(v);
  }
}

TEST(KernelContract, SarisFasterThanBase) {
  // The headline claim on the cheapest code: saris beats base clearly.
  const StencilCode& sc = code_by_name("jacobi_2d");
  auto [base, saris] = run_both(sc);
  double speedup = static_cast<double>(base.cycles) /
                   static_cast<double>(saris.cycles);
  EXPECT_GT(speedup, 1.5) << "base=" << base.cycles
                          << " saris=" << saris.cycles;
  EXPECT_GT(saris.fpu_util(), base.fpu_util());
}

}  // namespace
}  // namespace saris
