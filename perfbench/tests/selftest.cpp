// Tests of the benchmark's own helpers: the percentiles and their sample
// counts, self time over nested spans, the input generator's determinism,
// and the check that tells a rounding-level verification miss from a wrong
// result. Exits non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "inputs.hpp"
#include "ops.hpp"
#include "runtime/kernel_runner.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stencil/codes.hpp"
#include "stencil/stencil_def.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile() {
  using perfbench::percentile;
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // 1..100, unsorted
  const auto p90 = percentile(xs, 90);
  EXPECT(p90.value == 90.0);
  EXPECT(p90.samples == 100);
  EXPECT(percentile(xs, 50).value == 50.0);
  EXPECT(percentile(xs, 100).value == 100.0);

  // 99 samples: rank ceil(0.9 * 99) = 90.
  xs.pop_back();
  EXPECT(percentile(xs, 90).value == 91.0);
  EXPECT(percentile(xs, 90).samples == 99);

  EXPECT(percentile({}, 50).samples == 0);
  EXPECT(percentile({7.0}, 90).value == 7.0);
  EXPECT(percentile({7.0}, 90).samples == 1);
  EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
}

void test_hd_quantile() {
  using perfbench::hd_quantile;
  using perfbench::incomplete_beta;
  EXPECT(near(incomplete_beta(2, 3, 0.4), 0.5248));  // closed form
  EXPECT(near(incomplete_beta(2, 3, 0.4) + incomplete_beta(3, 2, 0.6), 1.0));
  EXPECT(incomplete_beta(2, 3, 0.0) == 0.0);
  EXPECT(incomplete_beta(2, 3, 1.0) == 1.0);

  // The weights sum to one and are symmetric about the median.
  EXPECT(near(hd_quantile(std::vector<double>(10, 5.0), 90).value, 5.0));
  EXPECT(near(hd_quantile({3.0, 1.0, 2.0}, 50).value, 2.0));
  EXPECT(near(hd_quantile({1.0, 2.0, 3.0, 10.0}, 50).value +
                  hd_quantile({-10.0, -3.0, -2.0, -1.0}, 50).value,
              0.0));
  // A smooth estimate: between the neighbouring order statistics, rising
  // with p, and moved only a little by a change in one far sample.
  std::vector<double> xs;
  for (int i = 1; i <= 20; ++i) xs.push_back(i);
  const auto p90 = hd_quantile(xs, 90);
  EXPECT(p90.samples == 20);
  EXPECT(p90.value > 18.0 && p90.value < 20.0);
  EXPECT(hd_quantile(xs, 50).value < p90.value);
  xs.front() = -1000.0;
  EXPECT(std::fabs(hd_quantile(xs, 90).value - p90.value) < 1e-6);
  EXPECT(hd_quantile({}, 50).samples == 0);
  EXPECT(hd_quantile({7.0}, 90).value == 7.0);
}

void test_self_time() {
  using perfbench::Span;
  // op [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
  std::vector<Span> spans(4);
  spans[0] = {"op", 0.0, 10.0, -1, 1, 0.0};
  spans[1] = {"a", 1.0, 4.0, 0, 1, 0.0};
  spans[2] = {"c", 2.0, 3.0, 1, 1, 0.0};
  spans[3] = {"b", 5.0, 9.0, 0, 1, 0.0};
  const std::vector<double> self = perfbench::self_seconds(spans);
  EXPECT(near(self[0], 3.0));  // 10 - (3 + 4)
  EXPECT(near(self[1], 2.0));  // 3 - 1
  EXPECT(near(self[2], 1.0));
  EXPECT(near(self[3], 4.0));

  // Overlapping children count once.
  std::vector<Span> overlap(3);
  overlap[0] = {"p", 0.0, 10.0, -1, 1, 0.0};
  overlap[1] = {"x", 2.0, 6.0, 0, 1, 0.0};
  overlap[2] = {"y", 4.0, 8.0, 0, 1, 0.0};
  EXPECT(near(perfbench::self_seconds(overlap)[0], 4.0));

  // The recorder nests spans and ties them to their op.
  perfbench::Tracer tr;
  {
    perfbench::SpanScope outer(tr, "outer", 7);
    perfbench::SpanScope inner(tr, "inner", 7);
  }
  EXPECT(tr.spans().size() == 2);
  EXPECT(tr.spans()[1].parent == 0);
  EXPECT(tr.spans()[0].parent == -1);
  EXPECT(tr.spans()[1].op == 7);
  EXPECT(tr.spans()[0].end_s >= tr.spans()[1].end_s);
}

bool same_shape(const saris::StencilCode& a, const saris::StencilCode& b) {
  return saris::code_signature(a) == saris::code_signature(b);
}

void test_generator() {
  const perfbench::InputGen g1(42), g2(42), g3(43);
  bool seeds_differ = false, shapes_differ = false;
  perfbench::ShapeMix mix;
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT(g1.run_seed(i) == g2.run_seed(i));
    EXPECT(same_shape(g1.shape(i), g2.shape(i)));
    seeds_differ |= g1.run_seed(i) != g3.run_seed(i);
    shapes_differ |= !same_shape(g1.shape(i), g3.shape(i));
    const saris::StencilCode sc = g1.shape(i);
    EXPECT(sc.dims == 2 || sc.dims == 3);
    EXPECT(sc.radius >= 1 && sc.radius <= (sc.dims == 2 ? 3u : 2u));
    EXPECT(sc.loads_per_point() >= 4 && sc.loads_per_point() <= 17);
    mix.add(sc);
  }
  EXPECT(seeds_differ);
  EXPECT(shapes_differ);
  // A draw depends only on its index, not on earlier draws.
  EXPECT(same_shape(perfbench::InputGen(42).shape(9), g1.shape(9)));
  EXPECT(g1.run_seed(1) != g1.run_seed(2));
  std::uint64_t total = 0;
  for (const auto& [k, n] : mix.dims) total += n;
  EXPECT(total == 64);

  // Any kShapeStrata consecutive shapes cover every (dims, radius, wanted
  // tap count) pair once: 7 shapes per stratum.
  perfbench::ShapeMix strata;
  for (std::uint64_t i = 3; i < 3 + perfbench::kShapeStrata; ++i) {
    strata.add(g1.shape(i));
  }
  EXPECT(strata.dims[2] == 3 * 7);
  EXPECT(strata.dims[3] == 2 * 7);
  EXPECT(strata.radius[1] == 2 * 7);
  EXPECT(strata.radius[3] == 7);
  EXPECT(strata.taps[17] == 4);  // all but 2-D radius 1 (9 offsets)
  EXPECT(mix.render().rfind("dims {", 0) == 0);
}

void test_within_rounding() {
  const saris::StencilCode sc = saris::code_by_name("jacobi_2d");
  saris::Grid<> want(sc.tile_nx, sc.tile_ny, sc.tile_nz);
  want.fill_random(5);
  const double tol = saris::RunConfig{}.tolerance;
  const saris::u32 r = sc.radius;
  EXPECT(perfbench::within_rounding(sc, want, want, tol));

  // An output that cancels to near zero: a relative miss, a rounding-level
  // absolute error.
  saris::Grid<> got = want;
  want.at(r + 2, r + 3) = 1e-14;
  got.at(r + 2, r + 3) = 1e-14 + 1e-17;
  EXPECT(perfbench::within_rounding(sc, got, want, tol));

  // A wrong value misses by the size of the data.
  got.at(r + 4, r + 1) += 1e-3;
  EXPECT(!perfbench::within_rounding(sc, got, want, tol));

  // The halo is not computed by the kernel and is not compared.
  saris::Grid<> halo = want;
  halo.at(0, 0) += 1.0;
  EXPECT(perfbench::within_rounding(sc, halo, want, tol));
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_generator();
  test_within_rounding();
  test_hd_quantile();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
