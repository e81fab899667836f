#include "ops.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "analysis/verifier.hpp"
#include "cluster/cluster.hpp"
#include "common/sim_error.hpp"
#include "runtime/kernel_runner.hpp"
#include "runtime/plan_cache.hpp"
#include "stencil/reference.hpp"
#include "system/system_runner.hpp"

namespace perfbench {
namespace {

using saris::CompiledKernel;
using saris::PlanCache;
using saris::RunMetrics;
using std::uint64_t;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a accumulator for counter signatures.
struct Hasher {
  uint64_t h = 14695981039346656037ull;
  void add(uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void add_double(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

/// Every simulated counter of a tile; max_rel_err (data-dependent) and the
/// host timings are left out.
void hash_metrics(Hasher& h, const RunMetrics& m) {
  h.add(m.cycles);
  for (saris::Cycle c : m.core_busy) h.add(c);
  h.add(m.flops);
  h.add(m.fpu_useful_ops);
  h.add(m.fp_instrs);
  h.add(m.int_instrs);
  h.add(m.fp_loads);
  h.add(m.fp_stores);
  h.add(m.tcdm_accesses);
  h.add(m.tcdm_conflicts);
  for (uint64_t v : m.tcdm_port_accesses) h.add(v);
  for (uint64_t v : m.tcdm_port_conflicts) h.add(v);
  h.add(m.ssr_elems);
  h.add(m.ssr_idx_words);
  h.add(m.icache_misses);
  h.add(m.icache_hits);
  h.add_double(m.dma_util);
  h.add(m.dma_bytes);
  for (const saris::CorePerf& p : m.per_core) {
    for (uint64_t v :
         {p.int_instrs, p.fp_instrs, p.fp_offloads, p.fpu_useful_ops, p.flops,
          p.fp_loads, p.fp_stores, p.stall_icache, p.stall_fpu_queue_full,
          p.stall_seq_busy, p.stall_scfg_busy, p.stall_branch,
          p.stall_barrier, p.stall_int_lsu, p.stall_halt_drain,
          p.fpu_stall_operand, p.fpu_stall_sr_empty, p.fpu_stall_sr_full,
          p.fpu_stall_mem, p.fpu_idle_empty, p.halted_at}) {
      h.add(v);
    }
  }
}

saris::RunConfig kernel_config(const Op& op) {
  saris::RunConfig cfg;
  cfg.variant = op.variant;
  cfg.cg = op.cg;
  cfg.seed = op.run_seed;
  return cfg;
}

saris::SystemRunConfig system_config(const Op& op) {
  saris::SystemRunConfig cfg;
  cfg.clusters = kSystemClusters;
  cfg.tiles = kSystemTiles;
  cfg.run = kernel_config(op);
  return cfg;
}

/// compile_kernel's stages, called one at a time: lowering with analysis
/// off, then the verify and cost passes its options ask for, attached to
/// the artifact exactly as compile_kernel attaches them.
std::shared_ptr<const CompiledKernel> compile_by_stage(const Op& op,
                                                       Tracer& tr,
                                                       uint64_t op_id) {
  const saris::RunConfig cfg = kernel_config(op);
  saris::CodegenOptions lower_only = op.cg;
  lower_only.verify = 0;
  lower_only.analyze_cost = 0;
  CompiledKernel ck;
  {
    SpanScope s(tr, "compile_kernel", op_id);
    ck = saris::compile_kernel(op.code, op.variant, lower_only,
                               cfg.cluster.num_cores, cfg.cluster.tcdm_bytes);
  }
  ck.options = op.cg;
  const bool do_verify = saris::resolve_verify(op.cg);
  const bool do_cost = saris::resolve_analyze_cost(op.cg);
  if (do_verify || do_cost) {
    auto report = std::make_shared<saris::VerifyReport>();
    {
      SpanScope s(tr, "verify_kernel", op_id);
      *report = saris::verify_kernel(ck);
    }
    if (do_verify) saris::raise_if_bad(*report, ck.programs);
    if (do_cost) {
      SpanScope s(tr, "analyze_cost", op_id);
      report->cost = saris::analyze_cost(ck, *report);
    }
    ck.verify_report = std::move(report);
  }
  return std::make_shared<const CompiledKernel>(std::move(ck));
}

/// Diagnostics the verifier reports on `op`'s kernel, lowered without
/// analysis so that a rejected kernel still yields its report.
std::uint32_t count_diags(const Op& op) {
  const saris::RunConfig cfg = kernel_config(op);
  saris::CodegenOptions lower_only = op.cg;
  lower_only.verify = 0;
  lower_only.analyze_cost = 0;
  const CompiledKernel ck =
      saris::compile_kernel(op.code, op.variant, lower_only,
                            cfg.cluster.num_cores, cfg.cluster.tcdm_bytes);
  return static_cast<std::uint32_t>(saris::verify_kernel(ck).diags.size());
}

/// Run one tile with verification off and check it with within_rounding.
bool tile_within_rounding(const saris::StencilCode& sc, saris::RunConfig cfg) {
  cfg.verify = false;
  saris::KernelIO io;
  for (saris::u32 i = 0; i < sc.n_inputs; ++i) {
    io.inputs.emplace_back(sc.tile_nx, sc.tile_ny, sc.tile_nz);
    io.inputs.back().fill_random(cfg.seed + i);
  }
  io.coeffs = sc.default_coeffs();
  saris::run_kernel_io(sc, cfg, io);
  const auto want = saris::reference_for_seed(sc, cfg.seed, &io.inputs);
  return within_rounding(sc, io.outputs.front(), *want, cfg.tolerance);
}

/// True when every tile of the failed op is within rounding of its golden
/// reference (see tile_within_rounding); a system op re-runs each of its
/// tiles on one cluster, which computes the same outputs.
bool rounding_only(const Op& op) {
  try {
    if (!op.system) return tile_within_rounding(op.code, kernel_config(op));
    for (std::uint32_t g = 0; g < kSystemClusters; ++g) {
      for (std::uint32_t t = 0; t < kSystemTiles; ++t) {
        saris::RunConfig cfg = kernel_config(op);
        cfg.seed = saris::system_tile_seed(op.run_seed, g, t);
        if (!tile_within_rounding(op.code, cfg)) return false;
      }
    }
    return true;
  } catch (const saris::SimError&) {
    return false;
  }
}

void inspect(const CompiledKernel& ck, OpResult& r) {
  r.inspected = true;
  if (!ck.verify_report) return;
  r.diags = static_cast<std::uint32_t>(ck.verify_report->diags.size());
  if (ck.verify_report->cost) {
    r.lint = static_cast<std::uint32_t>(ck.verify_report->cost->lint.size());
  }
}

void finish_kernel_op(const RunMetrics& m, OpResult& r) {
  Hasher h;
  hash_metrics(h, m);
  r.signature = h.h;
  r.counts.add(m);
  r.loop_s = m.step_wall_seconds;
  r.cluster_cycles = m.cycles;
  r.cores = m.num_cores();
  r.tiles = 1;
  r.ok = true;
}

/// Returns the artifact when it used one directly (traced runs); untraced,
/// run_kernel keeps it to itself.
std::shared_ptr<const CompiledKernel> run_kernel_op(const Op& op, Tracer* tr,
                                                    uint64_t op_id,
                                                    OpResult& r) {
  const saris::RunConfig cfg = kernel_config(op);
  if (tr == nullptr) {
    finish_kernel_op(saris::run_kernel(op.code, cfg), r);
    return nullptr;
  }
  // run_kernel's composition, one span per call.
  saris::KernelIO io;
  for (saris::u32 i = 0; i < op.code.n_inputs; ++i) {
    io.inputs.emplace_back(op.code.tile_nx, op.code.tile_ny, op.code.tile_nz);
    io.inputs.back().fill_random(cfg.seed + i);
  }
  io.coeffs = op.code.default_coeffs();
  std::shared_ptr<const saris::Grid<>> golden;
  {
    SpanScope s(*tr, "reference_for_seed", op_id);
    golden = saris::reference_for_seed(op.code, cfg.seed, &io.inputs);
  }
  std::shared_ptr<const CompiledKernel> ck;
  if (op.cold) {
    ck = compile_by_stage(op, *tr, op_id);
  } else {
    SpanScope s(*tr, "get_or_compile", op_id);
    ck = PlanCache::global().get_or_compile(op.code, op.variant, op.cg,
                                            cfg.cluster.num_cores,
                                            cfg.cluster.tcdm_bytes);
  }
  std::unique_ptr<saris::Cluster> cluster;
  {
    SpanScope s(*tr, "Cluster", op_id);
    cluster = std::make_unique<saris::Cluster>(cfg.cluster);
  }
  RunMetrics m;
  {
    SpanScope s(*tr, "execute_kernel", op_id);
    m = saris::execute_kernel(*ck, *cluster, cfg, io, golden.get());
    s.span().loop_s = m.step_wall_seconds;
  }
  finish_kernel_op(m, r);
  return ck;
}

void run_system_op(const Op& op, Tracer* tr, uint64_t op_id, OpResult& r) {
  saris::SystemRunMetrics sm;
  if (tr == nullptr) {
    sm = saris::run_system_kernel(op.code, system_config(op));
  } else {
    SpanScope s(*tr, "run_system_kernel", op_id);
    sm = saris::run_system_kernel(op.code, system_config(op));
    s.span().loop_s = sm.step_wall_seconds;
  }
  r.loop_s = sm.step_wall_seconds;
  r.tiles = sm.tiles_ok;
  if (sm.degraded()) {
    for (std::size_t g = 0; g < sm.errors.size(); ++g) {
      if (!sm.errors[g].empty()) {
        r.error = sm.errors[g];
        r.errc = sm.error_codes[g];
        break;
      }
    }
    // A miss in one cluster and another error elsewhere is not a miss.
    for (saris::SimErrc c : sm.error_codes) {
      if (c != saris::SimErrc::kNone && c != r.errc) {
        r.errc = saris::SimErrc::kNone;
      }
    }
    return;
  }
  if (sm.tiles_ok != kSystemClusters * kSystemTiles) {
    r.error = "system run verified " + std::to_string(sm.tiles_ok) +
              " tiles, expected " +
              std::to_string(kSystemClusters * kSystemTiles);
    return;
  }
  Hasher h;
  for (std::size_t g = 0; g < sm.tiles_metrics.size(); ++g) {
    for (std::size_t t = 0; t < sm.tiles_metrics[g].size(); ++t) {
      const RunMetrics& m = sm.tiles_metrics[g][t];
      hash_metrics(h, m);
      r.counts.add(m);
      for (const auto* mat : {&sm.tiles_window, &sm.tiles_latency,
                              &sm.tiles_start, &sm.tiles_done_sys}) {
        h.add((*mat)[g][t]);
      }
      h.add(sm.tiles_hbm_bytes[g][t]);
      h.add(sm.tiles_hbm_denied[g][t]);
    }
    r.cluster_cycles += sm.tiles_done_sys[g].back();
  }
  h.add(sm.cycles);
  h.add(sm.compute_cycles);
  h.add(sm.hbm_granted_bytes);
  h.add(sm.hbm_denied_grants);
  h.add_double(sm.hbm_utilization);
  h.add_double(sm.hbm_util_first_tile);
  h.add_double(sm.hbm_util_steady);
  r.signature = h.h;
  r.counts.system_runs = 1;
  r.counts.hbm_granted_bytes = sm.hbm_granted_bytes;
  r.counts.hbm_denied_grants = sm.hbm_denied_grants;
  r.counts.hbm_util_steady_sum = sm.hbm_util_steady;
  r.counts.hbm_util_first_sum = sm.hbm_util_first_tile;
  r.counts.reload_gap_sum = sm.mean_reload_gap();
  r.sys_cycles = sm.cycles;
  r.cores = sm.per_cluster.front().num_cores();
  r.ok = true;
}

}  // namespace

bool within_rounding(const saris::StencilCode& sc, const saris::Grid<>& got,
                     const saris::Grid<>& want, double tolerance) {
  const saris::u32 r = sc.radius;
  const saris::u32 zlo = sc.dims == 3 ? r : 0;
  const saris::u32 zhi = sc.dims == 3 ? sc.tile_nz - r : 1;
  double scale = 0.0, worst = 0.0;
  for (saris::u32 z = zlo; z < zhi; ++z) {
    for (saris::u32 y = r; y < sc.tile_ny - r; ++y) {
      for (saris::u32 x = r; x < sc.tile_nx - r; ++x) {
        scale = std::max(scale, std::fabs(want.at(x, y, z)));
        worst = std::max(worst, std::fabs(got.at(x, y, z) - want.at(x, y, z)));
      }
    }
  }
  return worst <= tolerance * scale;
}

std::string Op::cell() const {
  return (system ? "system:" : "") + code.name + "/" +
         saris::variant_name(variant);
}

void SimCounts::add(const RunMetrics& m) {
  ++tiles;
  cycles += m.cycles;
  core_cycles += m.cycles * m.num_cores();
  int_instrs += m.int_instrs;
  fp_instrs += m.fp_instrs;
  for (const saris::CorePerf& p : m.per_core) {
    stall_icache += p.stall_icache;
    stall_fpu_queue_full += p.stall_fpu_queue_full;
    stall_seq_busy += p.stall_seq_busy;
    stall_scfg_busy += p.stall_scfg_busy;
    stall_branch += p.stall_branch;
    stall_barrier += p.stall_barrier;
    stall_int_lsu += p.stall_int_lsu;
    stall_halt_drain += p.stall_halt_drain;
    fpu_stall_operand += p.fpu_stall_operand;
    fpu_stall_sr_empty += p.fpu_stall_sr_empty;
    fpu_stall_sr_full += p.fpu_stall_sr_full;
    fpu_stall_mem += p.fpu_stall_mem;
    fpu_idle_empty += p.fpu_idle_empty;
  }
  fpu_useful_ops += m.fpu_useful_ops;
  icache_misses += m.icache_misses;
  icache_hits += m.icache_hits;
  ssr_elems += m.ssr_elems;
  ssr_idx_words += m.ssr_idx_words;
  tcdm_accesses += m.tcdm_accesses;
  tcdm_conflicts += m.tcdm_conflicts;
  dma_bytes += m.dma_bytes;
  dma_util_sum += m.dma_util;
}

void SimCounts::add(const SimCounts& o) {
  tiles += o.tiles;
  cycles += o.cycles;
  core_cycles += o.core_cycles;
  int_instrs += o.int_instrs;
  fp_instrs += o.fp_instrs;
  stall_icache += o.stall_icache;
  stall_fpu_queue_full += o.stall_fpu_queue_full;
  stall_seq_busy += o.stall_seq_busy;
  stall_scfg_busy += o.stall_scfg_busy;
  stall_branch += o.stall_branch;
  stall_barrier += o.stall_barrier;
  stall_int_lsu += o.stall_int_lsu;
  stall_halt_drain += o.stall_halt_drain;
  fpu_stall_operand += o.fpu_stall_operand;
  fpu_stall_sr_empty += o.fpu_stall_sr_empty;
  fpu_stall_sr_full += o.fpu_stall_sr_full;
  fpu_stall_mem += o.fpu_stall_mem;
  fpu_idle_empty += o.fpu_idle_empty;
  fpu_useful_ops += o.fpu_useful_ops;
  icache_misses += o.icache_misses;
  icache_hits += o.icache_hits;
  ssr_elems += o.ssr_elems;
  ssr_idx_words += o.ssr_idx_words;
  tcdm_accesses += o.tcdm_accesses;
  tcdm_conflicts += o.tcdm_conflicts;
  dma_bytes += o.dma_bytes;
  dma_util_sum += o.dma_util_sum;
  system_runs += o.system_runs;
  hbm_granted_bytes += o.hbm_granted_bytes;
  hbm_denied_grants += o.hbm_denied_grants;
  hbm_util_steady_sum += o.hbm_util_steady_sum;
  hbm_util_first_sum += o.hbm_util_first_sum;
  reload_gap_sum += o.reload_gap_sum;
}

OpResult run_op(const Op& op, Tracer* tr, uint64_t op_id) {
  OpResult r;
  std::shared_ptr<const CompiledKernel> ck;
  {
    std::unique_ptr<SpanScope> op_span;
    if (tr != nullptr) op_span = std::make_unique<SpanScope>(*tr, "op", op_id);
    const PlanCache::Stats before = PlanCache::global().stats();
    const auto t0 = std::chrono::steady_clock::now();
    try {
      if (op.system) {
        run_system_op(op, tr, op_id, r);
      } else {
        ck = run_kernel_op(op, tr, op_id, r);
      }
    } catch (const saris::SimError& e) {
      r = OpResult{};
      r.error = e.what();
      r.errc = e.errc();
    }
    r.wall_s = seconds_since(t0);
    const PlanCache::Stats after = PlanCache::global().stats();
    r.cache_hits = after.hits - before.hits;
    r.cache_lookups =
        after.hits + after.misses - before.hits - before.misses;
  }
  // A failure is classified after the op's timing window: the re-runs and
  // re-compiles below are the benchmark's work, not the op's.
  if (r.errc == saris::SimErrc::kVerifyFailed) {
    r.rounding_miss = rounding_only(op);
  }
  if (r.errc == saris::SimErrc::kIllegalProgram && op.inspect && !op.system) {
    r.inspected = true;
    try {
      r.diags = std::max<std::uint32_t>(1, count_diags(op));
    } catch (const saris::SimError&) {
      r.diags = 1;
    }
  }
  // After the op's timing and cache-stats window: a lookup of an artifact
  // the op just compiled or used is a hit that no user call made.
  if (r.ok && op.inspect && !op.system) {
    if (!ck) {
      const saris::RunConfig cfg = kernel_config(op);
      ck = PlanCache::global().get_or_compile(op.code, op.variant, op.cg,
                                              cfg.cluster.num_cores,
                                              cfg.cluster.tcdm_bytes);
    }
    inspect(*ck, r);
  }
  return r;
}

void probe_compile(const Op& op, Tracer& tr, uint64_t op_id) {
  SpanScope s(tr, "probe", op_id);
  compile_by_stage(op, tr, op_id);
}

}  // namespace perfbench
