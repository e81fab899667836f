// Repo benchmark: one workload, one seed, one mode per process.
//
//   perfbench --workload matrix_warm|stencil_cold|system_steady --seed N
//             --seconds S --trace 0|1 [--commit ID] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// measures the per-layer metrics: it runs the workload untraced for half
// the time, then the same ops again with a span around every call into a
// layer, and writes the spans as a Chrome trace. The last line of stdout
// is the result: {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 unless a correctness check failed (1) or the arguments are bad
// (2). See README.md for the workloads and metrics.
#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "ops.hpp"
#include "runtime/kernel_runner.hpp"
#include "runtime/plan_cache.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stencil/codes.hpp"
#include "stencil/reference.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using std::uint64_t;

// Paper reference values the model is scored against (SARIS, DAC'24):
// mean speedup of the 10 codes over the base variant, Fig. 3a, and mean
// saris FPU utilisation, Fig. 3b.
constexpr double kPaperSpeedup = 2.72;
constexpr double kPaperFpuUtil = 0.81;

constexpr std::size_t kSetupReps = 9;       // set-up passes timed per run
// stencil_cold's shape set: one shape per (dims, radius) stratum and tap
// count, so the mix is the same for every seed and only the tap offsets
// and the data are random.
constexpr uint64_t kColdShapes = kShapeStrata;
constexpr uint64_t kMinRounds = 5;          // repeats behind each cell's time
constexpr double kHardCapSeconds = 140.0;   // stop extending a short run
constexpr std::size_t kMaxErrorsKept = 5;
const char* const kSystemCodes[] = {"jacobi_2d", "j2d5pt", "box3d1r"};

enum class Workload { kMatrixWarm, kStencilCold, kSystemSteady };

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- rounds

/// Moves the process to the next CPU it may use, one per round. On a
/// shared host one CPU can stay slow for tens of seconds, while a neighbour
/// keeps its core busy; rotating spreads every cell's ops over all the
/// CPUs, instead of leaving the whole run wherever the scheduler put it.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

std::vector<Op> matrix_ops(uint64_t run_seed, bool inspect) {
  std::vector<Op> ops;
  for (const saris::StencilCode& sc : saris::all_codes()) {
    for (auto v : {saris::KernelVariant::kBase, saris::KernelVariant::kSaris}) {
      Op op;
      op.code = sc;
      op.variant = v;
      op.run_seed = run_seed;
      op.inspect = inspect;
      ops.push_back(op);
    }
  }
  return ops;
}

/// The ops of measured round r (r >= 1), each with round r's run seed.
std::vector<Op> make_round(Workload w, const InputGen& gen, uint64_t r) {
  const uint64_t seed = gen.run_seed(r);
  std::vector<Op> ops;
  auto both = [&](const saris::StencilCode& sc, Op proto) {
    for (auto v : {saris::KernelVariant::kBase, saris::KernelVariant::kSaris}) {
      proto.code = sc;
      proto.variant = v;
      proto.run_seed = seed;
      ops.push_back(proto);
    }
  };
  switch (w) {
    case Workload::kMatrixWarm:
      return matrix_ops(seed, false);
    case Workload::kStencilCold: {
      Op proto;
      proto.cold = true;
      proto.inspect = true;
      proto.cg.verify = 1;
      proto.cg.analyze_cost = 1;
      for (uint64_t i = 0; i < kColdShapes; ++i) both(gen.shape(i), proto);
      break;
    }
    case Workload::kSystemSteady: {
      Op proto;
      proto.system = true;
      for (const char* name : kSystemCodes) {
        both(saris::code_by_name(name), proto);
      }
      break;
    }
  }
  return ops;
}

// ---------------------------------------------------------------- checks

/// Correctness bookkeeping shared by every phase of a run.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rounding_misses = 0;  ///< see record()
  uint64_t diags = 0;
  uint64_t broken = 0;                  ///< failed benchmark checks
  std::vector<std::string> errors;      ///< first few failures, misses
  std::vector<std::string> violations;  ///< first few failed checks
  /// Simulated-counter signature of each cell's first successful op.
  /// Timing is data-independent, so every later op of the cell (another
  /// seed, the traced run) must reproduce it exactly.
  std::map<std::string, uint64_t> signature;

  /// Record one op; returns true if its timing and counters are usable.
  /// Any failure, any verifier diagnostic, and any change in a cell's
  /// simulated counters fails the op and is a violation: the run is not
  /// correct. One exception, in the measured rounds only: a rounding miss
  /// (see OpResult::rounding_miss) is not a failure, because the
  /// benchmark's own check of the outputs passes; it is the program's
  /// relative tolerance misfiring on outputs that cancel to near zero. It
  /// counts in `rounding_misses`, and the op is left out of the timings.
  /// `setup` marks an op of a set-up pass, whose seed is fixed, so any
  /// miss there is a defect.
  bool record(const Op& op, const OpResult& r, bool setup) {
    ++attempted;
    if (!setup && r.rounding_miss) {
      ++rounding_misses;
      if (errors.size() < kMaxErrorsKept) {
        errors.push_back("rounding miss: " +
                         r.error.substr(0, r.error.find('\n')));
      }
      return false;
    }
    std::string why;
    auto violate = [&](const std::string& msg) {
      add_violation(msg);
      why = msg;
    };
    if (r.inspected) {
      diags += r.diags;
      if (r.diags != 0) {
        violate(op.cell() + ": " + std::to_string(r.diags) +
                " verifier diagnostics");
      }
    }
    if (!r.ok) {
      // A verifier rejection is reported once, as its diagnostics above.
      if (why.empty()) {
        violate(op.cell() + ": " + r.error.substr(0, r.error.find('\n')));
      }
      why = r.error.empty() ? "op failed" : r.error;
    } else {
      auto [it, fresh] = signature.emplace(op.cell(), r.signature);
      if (!fresh && it->second != r.signature) {
        violate(op.cell() +
                ": simulated counters differ from an earlier run of the "
                "same cell");
      }
    }
    if (why.empty()) return true;
    ++failed;
    if (errors.size() < kMaxErrorsKept) errors.push_back(why);
    return false;
  }

  void add_violation(const std::string& msg) {
    ++broken;
    if (violations.size() < kMaxErrorsKept) violations.push_back(msg);
  }
};

// ---------------------------------------------------------------- set-up

struct Setup {
  std::vector<double> seconds;  ///< one per pass
  std::vector<Op> ops;
  std::vector<OpResult> results;  ///< of the first pass
};

/// Cold set-up pass: empty the plan cache and the golden-reference memo,
/// then run the Table 1 matrix once. It compiles (and verifies) every cell
/// the warm workloads execute, warms the lazy memory pool, and gives the
/// paper-accuracy metrics. It runs at the default run seed of the repo's
/// figure benches, so its cycle counts are the ones they reproduce.
void setup_pass(Setup& s, Ledger& ledger, Clock::time_point t0,
                uint64_t& next_id) {
  saris::PlanCache::global().clear();
  saris::clear_reference_memo();
  if (s.ops.empty()) s.ops = matrix_ops(saris::RunConfig{}.seed, true);
  const bool first = s.results.empty();
  for (const Op& op : s.ops) {
    OpResult r = run_op(op, nullptr, next_id++);
    ledger.record(op, r, true);
    if (first) s.results.push_back(std::move(r));
  }
  s.seconds.push_back(since(t0));
}

// ---------------------------------------------------------------- phases

struct OpRecord {
  double wall_s = 0.0;
  double loop_s = 0.0;
  uint64_t sys_cycles = 0;
  uint64_t cluster_cycles = 0;
  std::uint32_t cores = 0;
  bool ok = false;
  bool base = false;
  bool system = false;
};

/// The successful ops of one cell (code x variant) in a phase.
struct CellTimes {
  std::vector<double> wall_s;  ///< one per op
  std::uint32_t tiles = 0;     ///< tiles of one op
  bool base = false;
};

struct Phase {
  std::vector<OpRecord> ops;
  uint64_t rounds = 0;
  uint64_t first_op_id = 0;
  uint64_t cache_hits = 0, cache_lookups = 0;
  std::map<std::string, CellTimes> cells;
  std::uint32_t lint = 0;  ///< lint findings, one artifact per cell
  /// Simulated counts summed over the cells, each from its first
  /// successful op; [0] base, [1] saris.
  SimCounts counts[2];
  ShapeMix mix;
  double wall_s = 0.0;
};

/// Run whole rounds, each holding every cell of the workload once:
/// exactly `fixed_rounds` when non-zero, otherwise until `target_s` has
/// passed and at least `min_rounds` rounds ran. `after_round`, when set, is
/// called with the measured seconds after every round; the time it takes
/// is not measured, so it does not shorten the phase.
Phase run_phase(Workload w, const InputGen& gen, Tracer* tr, double target_s,
                uint64_t min_rounds, uint64_t fixed_rounds, Ledger& ledger,
                uint64_t& next_id, Clock::time_point process_start,
                const std::function<void(double)>& after_round = {}) {
  static CpuRotation cpus;
  Phase p;
  p.first_op_id = next_id;
  const auto t0 = Clock::now();
  double paused = 0.0;
  auto measured = [&] { return since(t0) - paused; };
  for (uint64_t r = 1;; ++r) {
    if (fixed_rounds != 0) {
      if (r > fixed_rounds) break;
    } else if (measured() >= target_s &&
               (p.rounds >= min_rounds ||
                since(process_start) >= kHardCapSeconds)) {
      break;
    }
    cpus.next();
    const std::vector<Op> ops = make_round(w, gen, r);
    for (const Op& op : ops) {
      if (r == 1 && op.cold && op.variant == saris::KernelVariant::kBase) {
        p.mix.add(op.code);
      }
      const OpResult res = run_op(op, tr, next_id++);
      const bool ok = ledger.record(op, res, false);
      OpRecord rec;
      rec.wall_s = res.wall_s;
      rec.loop_s = res.loop_s;
      rec.sys_cycles = res.sys_cycles;
      rec.cluster_cycles = res.cluster_cycles;
      rec.cores = res.cores;
      rec.ok = ok;
      rec.base = op.variant == saris::KernelVariant::kBase;
      rec.system = op.system;
      p.ops.push_back(rec);
      p.cache_hits += res.cache_hits;
      p.cache_lookups += res.cache_lookups;
      // Every op of a cold workload compiles its own artifact; dropping it
      // keeps memory flat without turning any later lookup into a hit.
      if (op.cold) saris::PlanCache::global().clear();
      if (!ok) continue;
      auto [cell, fresh] = p.cells.try_emplace(op.cell());
      if (fresh) {
        p.counts[rec.base ? 0 : 1].add(res.counts);
        p.lint += res.lint;
        cell->second.tiles = res.tiles;
        cell->second.base = rec.base;
      }
      cell->second.wall_s.push_back(res.wall_s);
    }
    saris::clear_reference_memo();
    p.rounds = r;
    if (after_round) {
      const auto a0 = Clock::now();
      after_round(measured());
      paused += since(a0);
    }
  }
  p.wall_s = measured();
  // A cell none of whose ops succeeded is broken, not unlucky.
  for (const Op& op : make_round(w, gen, 1)) {
    if (p.cells.count(op.cell()) == 0) {
      ledger.add_violation(op.cell() + ": no op of the cell succeeded");
    }
  }
  return p;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Model accuracy against the paper, from the set-up pass.
void accuracy(const Setup& s, double* speedup_err, double* util_err,
              std::size_t* cells) {
  std::map<std::string, uint64_t> base_cycles, saris_cycles;
  std::map<std::string, double> saris_util;
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const OpResult& r = s.results[i];
    if (!r.ok) continue;
    const std::string& name = s.ops[i].code.name;
    if (s.ops[i].variant == saris::KernelVariant::kBase) {
      base_cycles[name] = r.counts.cycles;
    } else {
      saris_cycles[name] = r.counts.cycles;
      saris_util[name] = ratio(static_cast<double>(r.counts.fpu_useful_ops),
                               static_cast<double>(r.counts.core_cycles));
    }
  }
  double log_speedup = 0.0, log_util = 0.0;
  std::size_t n = 0;
  for (const auto& [name, b] : base_cycles) {
    auto it = saris_cycles.find(name);
    if (it == saris_cycles.end()) continue;
    log_speedup += std::log(static_cast<double>(b) / it->second);
    log_util += std::log(saris_util[name]);
    ++n;
  }
  *cells = n;
  const double speedup = n ? std::exp(log_speedup / n) : 0.0;
  const double util = n ? std::exp(log_util / n) : 0.0;
  *speedup_err = std::fabs(speedup - kPaperSpeedup) / kPaperSpeedup * 100.0;
  *util_err = std::fabs(util - kPaperFpuUtil) / kPaperFpuUtil * 100.0;
}

std::vector<Metric> end_to_end(const Setup& setup, const Phase& p,
                               const Ledger& ledger) {
  std::vector<Metric> out;
  out.push_back({"setup_s", median(setup.seconds), "s", setup.seconds.size()});
  // Host time of a cell is the median of its ops in the run (one per
  // round, at least five): the fastest op would rest on the host's
  // quietest moment, which comes and goes between runs.
  std::vector<double> ms;
  double tiles[2] = {0, 0}, wall[2] = {0, 0};
  for (const auto& [cell, c] : p.cells) {
    const double t = median(c.wall_s);
    ms.push_back(t * 1e3);
    tiles[c.base ? 0 : 1] += c.tiles;
    wall[c.base ? 0 : 1] += t;
  }
  const Percentile p50 = hd_quantile(ms, 50);
  const Percentile p90 = hd_quantile(ms, 90);
  out.push_back({"op_ms_p50", p50.value, "ms", p50.samples});
  out.push_back({"op_ms_p90", p90.value, "ms", p90.samples});
  out.push_back({"tiles_per_s", ratio(tiles[0] + tiles[1], wall[0] + wall[1]),
                 "1/s", p.cells.size()});
  out.push_back({"base_tiles_per_s", ratio(tiles[0], wall[0]), "1/s",
                 p.cells.size() / 2});
  out.push_back({"saris_tiles_per_s", ratio(tiles[1], wall[1]), "1/s",
                 p.cells.size() / 2});
  out.push_back({"verified_frac",
                 ratio(static_cast<double>(ledger.attempted - ledger.failed),
                       static_cast<double>(ledger.attempted)),
                 "ratio", ledger.attempted});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
  double speedup_err = 0, util_err = 0;
  std::size_t cells = 0;
  accuracy(setup, &speedup_err, &util_err, &cells);
  out.push_back({"speedup_err_pct", speedup_err, "%", cells});
  out.push_back({"fpu_util_err_pct", util_err, "%", cells});
  return out;
}

/// Mean self time (ms) of the spans named `name`; those in the measured
/// phase (op id >= first_op) when there are any, else those of set-up.
struct SpanMean {
  double ms = 0.0;
  std::size_t n = 0;
  bool measured = false;  ///< taken from the measured phase
};
SpanMean span_mean(const std::vector<Span>& spans,
                   const std::vector<double>& self, const char* name,
                   uint64_t first_op, bool minus_loop = false) {
  double sum[2] = {0, 0};
  std::size_t n[2] = {0, 0};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != name) continue;
    const int k = spans[i].op >= first_op ? 1 : 0;
    sum[k] += self[i] - (minus_loop ? spans[i].loop_s : 0.0);
    ++n[k];
  }
  const int k = n[1] ? 1 : 0;
  return {n[k] ? sum[k] / n[k] * 1e3 : 0.0, n[k], k == 1};
}

std::vector<Metric> per_layer(const Setup& setup, const Phase& u,
                              const Phase& t, const Tracer& tr,
                              const Ledger& ledger) {
  std::vector<Metric> out;
  const std::vector<Span>& spans = tr.spans();
  const std::vector<double> self = self_seconds(spans);
  auto host = [&](const char* metric, const char* span, bool minus_loop) {
    const SpanMean m = span_mean(spans, self, span, t.first_op_id, minus_loop);
    out.push_back({metric, m.ms, "ms", m.n});
  };
  host("codegen.lower_ms", "compile_kernel", false);
  host("analysis.verify_ms", "verify_kernel", false);
  host("analysis.cost_ms", "analyze_cost", false);

  // Verify time over cycle-loop time of the same cells: the measured ops
  // when they compile (stencil_cold), else the set-up pass.
  const SpanMean verify =
      span_mean(spans, self, "verify_kernel", t.first_op_id);
  double loop_s = 0.0;
  if (verify.measured) {
    for (const OpRecord& r : t.ops) loop_s += r.loop_s;
  } else {
    for (const OpResult& r : setup.results) loop_s += r.loop_s;
  }
  out.push_back({"analysis.verify_per_sim",
                 ratio(verify.ms * static_cast<double>(verify.n) / 1e3, loop_s),
                 "ratio", verify.n});

  double loop_kernel = 0, cyc[2] = {0, 0}, loop[2] = {0, 0}, core_cyc = 0;
  double sys_loop = 0, sys_cycles = 0;
  std::size_t n_kernel = 0, n_system = 0;
  for (const OpRecord& r : t.ops) {
    if (!r.ok) continue;
    cyc[r.base ? 0 : 1] += static_cast<double>(r.cluster_cycles);
    loop[r.base ? 0 : 1] += r.loop_s;
    core_cyc += static_cast<double>(r.cluster_cycles) * r.cores;
    if (r.system) {
      sys_loop += r.loop_s;
      sys_cycles += static_cast<double>(r.sys_cycles);
      ++n_system;
    } else {
      loop_kernel += r.loop_s;
      ++n_kernel;
    }
  }
  out.push_back({"cluster.loop_ms", ratio(loop_kernel * 1e3, n_kernel), "ms",
                 n_kernel});
  out.push_back({"cluster.loop_mcycles_per_s.base", ratio(cyc[0], loop[0]) / 1e6,
                 "Mcycle/s", t.ops.size() / 2});
  out.push_back({"cluster.loop_mcycles_per_s.saris",
                 ratio(cyc[1], loop[1]) / 1e6, "Mcycle/s", t.ops.size() / 2});
  out.push_back({"cluster.ns_per_core_cycle",
                 ratio((loop[0] + loop[1]) * 1e9, core_cyc), "ns",
                 t.ops.size()});
  host("cluster.construct_ms", "Cluster", false);
  out.push_back({"system.run_ms", ratio(sys_loop * 1e3, n_system), "ms",
                 n_system});
  out.push_back({"system.sim_kcycles_per_s", ratio(sys_cycles, sys_loop) / 1e3,
                 "kcycle/s", n_system});
  host("system.outside_loop_ms", "run_system_kernel", true);
  host("runtime.plan_cache_ms", "get_or_compile", false);
  host("runtime.stage_finish_ms", "execute_kernel", true);
  host("stencil.golden_ms", "reference_for_seed", false);
  double wall_u = 0, wall_t = 0;
  for (const OpRecord& r : u.ops) wall_u += r.wall_s;
  for (const OpRecord& r : t.ops) wall_t += r.wall_s;
  out.push_back({"trace.overhead_ms",
                 ratio((wall_t - wall_u) * 1e3, static_cast<double>(u.ops.size())),
                 "ms", u.ops.size()});

  // Simulated counts of every cell, per variant.
  const char* suffix[2] = {".base", ".saris"};
  for (int v = 0; v < 2; ++v) {
    const SimCounts& c = u.counts[v];
    const std::size_t n = c.tiles;
    auto count = [&](const std::string& name, double value,
                     const char* unit = "count") {
      out.push_back({name + suffix[v], value, unit, n});
    };
    auto d = [](uint64_t x) { return static_cast<double>(x); };
    const double cc = d(c.core_cycles);
    count("cluster.sim_cycles", d(c.cycles), "cycle");
    count("core.int_instrs", d(c.int_instrs));
    count("core.fp_instrs", d(c.fp_instrs));
    count("core.ipc", ratio(d(c.int_instrs + c.fp_instrs), cc), "instr/cycle");
    count("core.stall_icache", d(c.stall_icache), "cycle");
    count("core.stall_fpu_queue_full", d(c.stall_fpu_queue_full), "cycle");
    count("core.stall_seq_busy", d(c.stall_seq_busy), "cycle");
    count("core.stall_scfg_busy", d(c.stall_scfg_busy), "cycle");
    count("core.stall_branch", d(c.stall_branch), "cycle");
    count("core.stall_barrier", d(c.stall_barrier), "cycle");
    count("core.stall_int_lsu", d(c.stall_int_lsu), "cycle");
    count("core.stall_halt_drain", d(c.stall_halt_drain), "cycle");
    count("fpu.stall_operand", d(c.fpu_stall_operand), "cycle");
    count("fpu.stall_sr_empty", d(c.fpu_stall_sr_empty), "cycle");
    count("fpu.stall_sr_full", d(c.fpu_stall_sr_full), "cycle");
    count("fpu.stall_mem", d(c.fpu_stall_mem), "cycle");
    count("fpu.idle_empty", d(c.fpu_idle_empty), "cycle");
    count("fpu.useful_ops", d(c.fpu_useful_ops));
    count("fpu.util", ratio(d(c.fpu_useful_ops), cc), "ratio");
    count("icache.misses", d(c.icache_misses));
    count("icache.hit_ratio",
          ratio(d(c.icache_hits), d(c.icache_hits + c.icache_misses)),
          "ratio");
    count("ssr.elems", d(c.ssr_elems));
    count("ssr.idx_words", d(c.ssr_idx_words));
    count("tcdm.accesses", d(c.tcdm_accesses));
    count("tcdm.conflicts", d(c.tcdm_conflicts));
    count("tcdm.conflict_ratio",
          ratio(d(c.tcdm_conflicts), d(c.tcdm_accesses + c.tcdm_conflicts)),
          "ratio");
    count("dma.bytes", d(c.dma_bytes), "B");
    count("dma.util", ratio(c.dma_util_sum, d(c.tiles)), "ratio");
    const double runs = d(c.system_runs);
    const double granted_words = d(c.hbm_granted_bytes) / 8.0;
    count("system.hbm_granted_bytes", d(c.hbm_granted_bytes), "B");
    count("system.hbm_denied_grants", d(c.hbm_denied_grants));
    count("system.hbm_grant_ratio",
          ratio(granted_words, granted_words + d(c.hbm_denied_grants)),
          "ratio");
    count("system.hbm_util_steady", ratio(c.hbm_util_steady_sum, runs),
          "ratio");
    count("system.hbm_util_first_tile", ratio(c.hbm_util_first_sum, runs),
          "ratio");
    count("system.reload_gap_cycles", ratio(c.reload_gap_sum, runs), "cycle");
  }
  out.push_back({"runtime.plan_cache_hit_ratio",
                 ratio(static_cast<double>(u.cache_hits),
                       static_cast<double>(u.cache_lookups)),
                 "ratio", u.cache_lookups});
  out.push_back({"analysis.diags", static_cast<double>(ledger.diags), "count",
                 ledger.attempted});
  out.push_back({"analysis.lint_findings", static_cast<double>(u.lint), "count",
                 u.counts[0].tiles + u.counts[1].tiles});
  return out;
}

// ---------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"";
    if (with_samples) os << ", \"samples\": " << ms[i].samples;
    os << "}";
  }
  os << "}";
  return os.str();
}

std::string string_list(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(xs[i]) + "\"";
  }
  return out + "]";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

int run(const Args& a, Workload w, Clock::time_point process_start) {
  InputGen gen(a.seed);
  Ledger ledger;
  Tracer tracer;
  uint64_t next_id = 0;

  Setup setup;
  setup_pass(setup, ledger, process_start, next_id);
  if (a.trace) {
    for (const Op& op : setup.ops) probe_compile(op, tracer, next_id++);
  }

  std::vector<Metric> metrics;
  Phase phase;
  std::string trace_path;
  if (!a.trace) {
    // The other set-up passes are spread over the measured phase, so their
    // median does not rest on one spell of the host's speed, but take none
    // of its time. Each re-warms the caches it empties before the next
    // round.
    auto more_setup = [&](double elapsed) {
      while (setup.seconds.size() < kSetupReps &&
             elapsed >= a.seconds * static_cast<double>(setup.seconds.size()) /
                            kSetupReps) {
        setup_pass(setup, ledger, Clock::now(), next_id);
      }
    };
    phase = run_phase(w, gen, nullptr, a.seconds, kMinRounds, 0, ledger,
                      next_id, process_start, more_setup);
    more_setup(a.seconds);
    metrics = end_to_end(setup, phase, ledger);
  } else {
    phase = run_phase(w, gen, nullptr, a.seconds / 2, 0, 0, ledger, next_id,
                      process_start);
    const Phase traced = run_phase(w, gen, &tracer, 0, 0, phase.rounds, ledger,
                                   next_id, process_start);
    metrics = per_layer(setup, phase, traced, tracer, ledger);
    trace_path = a.out_dir + "/trace-" + a.workload + "-" +
                 std::to_string(a.seed) + ".json";
    if (!write_chrome_trace(trace_path, tracer.spans())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      trace_path.clear();
    }
  }
  const bool correct = ledger.broken == 0;

  // Human-readable summary, then the full record, then the result line.
  std::printf("perfbench %s seed=%llu trace=%d: %llu ops in %llu rounds "
              "(%.1f s measured), %llu failed, %llu rounding misses\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0,
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(phase.rounds), phase.wall_s,
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.rounding_misses));
  if (w == Workload::kStencilCold) {
    std::printf("shape mix: %s\n", phase.mix.render().c_str());
  }
  for (const std::string& e : ledger.errors) {
    std::printf("op: %s\n", e.c_str());
  }
  for (const std::string& v : ledger.violations) {
    std::printf("check failed: %s\n", v.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %-12s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::ostringstream rec;
  rec << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"seconds\": "
      << num(a.seconds) << ", \"host\": {\"nproc\": "
      << std::thread::hardware_concurrency() << ", \"compiler\": \""
      << json_escape(compiler()) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"commit\": \"" << json_escape(a.commit)
      << "\"}, \"ops\": " << ledger.attempted << ", \"measured_ops\": "
      << phase.ops.size() << ", \"rounds\": " << phase.rounds
      << ", \"setup_passes\": " << setup.seconds.size()
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"failed\": " << ledger.failed
      << ", \"rounding_misses\": " << ledger.rounding_misses
      << ", \"shape_mix\": \"" << phase.mix.render() << "\""
      << ", \"trace_file\": \"" << json_escape(trace_path) << "\""
      << ", \"errors\": " << string_list(ledger.errors)
      << ", \"violations\": " << ledger.broken
      << ", \"first_violations\": " << string_list(ledger.violations)
      << ", \"metrics\": " << metrics_json(metrics, true) << "}";
  std::printf("record: %s\n", rec.str().c_str());
  const std::string rec_path = a.out_dir + "/result-" + a.workload + "-" +
                               std::to_string(a.seed) + "-trace" +
                               (a.trace ? "1" : "0") + ".json";
  std::ofstream(rec_path) << rec.str() << "\n";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              metrics_json(metrics, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto process_start = Clock::now();
  Args a;
  const std::map<std::string, Workload> workloads = {
      {"matrix_warm", Workload::kMatrixWarm},
      {"stencil_cold", Workload::kStencilCold},
      {"system_steady", Workload::kSystemSteady}};
  if (!parse_args(argc, argv, a) || workloads.count(a.workload) == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "matrix_warm|stencil_cold|system_steady --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--out-dir DIR]\n");
    return 2;
  }
  return run(a, workloads.at(a.workload), process_start);
}
