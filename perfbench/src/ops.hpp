// The benchmark's unit of work and how it calls into the simulator.
//
// An op is one run_kernel tile or one run_system_kernel call. Untraced, an
// op calls that public entry point exactly as a user would. Traced, it
// composes the same calls run_kernel makes (golden reference, plan-cache
// lookup or compile stages, cluster construction, execute_kernel) with a
// span around each, so a layer's host time is measured from outside.
#pragma once

#include <cstdint>
#include <string>

#include "codegen/options.hpp"
#include "common/sim_error.hpp"
#include "runtime/compiled_kernel.hpp"
#include "runtime/metrics.hpp"
#include "spans.hpp"
#include "stencil/grid.hpp"
#include "stencil/stencil_def.hpp"

namespace perfbench {

/// system_steady's machine: G clusters, each streaming T tiles.
inline constexpr std::uint32_t kSystemClusters = 4;
inline constexpr std::uint32_t kSystemTiles = 3;

struct Op {
  bool system = false;  ///< run_system_kernel instead of run_kernel
  /// The op compiles a kernel no cache holds; traced, its compile stages
  /// (lowering, verify, cost) are timed one by one instead of through the
  /// plan cache.
  bool cold = false;
  /// Look the compiled artifact up after the run to check its verifier
  /// diagnostics and count its lint findings.
  bool inspect = false;
  saris::StencilCode code;
  saris::KernelVariant variant = saris::KernelVariant::kBase;
  saris::CodegenOptions cg{};
  std::uint64_t run_seed = 0;

  std::string cell() const;  ///< "code/variant", "system:" prefixed
};

/// Simulated counters, summed over the tiles of one or more ops. They
/// depend only on the compiled kernel and the machine, never on the data.
struct SimCounts {
  std::uint64_t tiles = 0;
  std::uint64_t cycles = 0;       ///< summed compute windows
  std::uint64_t core_cycles = 0;  ///< summed compute window x cores
  std::uint64_t int_instrs = 0, fp_instrs = 0;
  std::uint64_t stall_icache = 0, stall_fpu_queue_full = 0,
                stall_seq_busy = 0, stall_scfg_busy = 0, stall_branch = 0,
                stall_barrier = 0, stall_int_lsu = 0, stall_halt_drain = 0;
  std::uint64_t fpu_stall_operand = 0, fpu_stall_sr_empty = 0,
                fpu_stall_sr_full = 0, fpu_stall_mem = 0,
                fpu_idle_empty = 0, fpu_useful_ops = 0;
  std::uint64_t icache_misses = 0, icache_hits = 0;
  std::uint64_t ssr_elems = 0, ssr_idx_words = 0;
  std::uint64_t tcdm_accesses = 0, tcdm_conflicts = 0;
  std::uint64_t dma_bytes = 0;
  double dma_util_sum = 0.0;  ///< summed per tile
  // run_system_kernel calls only:
  std::uint64_t system_runs = 0;
  std::uint64_t hbm_granted_bytes = 0, hbm_denied_grants = 0;
  double hbm_util_steady_sum = 0.0, hbm_util_first_sum = 0.0;
  double reload_gap_sum = 0.0;  ///< summed per run (mean over its tiles)

  void add(const saris::RunMetrics& m);
  void add(const SimCounts& o);
};

struct OpResult {
  bool ok = false;
  std::string error;      ///< why the op failed
  /// The failure's error code; kNone when the op failed without a SimError
  /// (a system run that verified fewer tiles than it ran).
  saris::SimErrc errc = saris::SimErrc::kNone;
  /// A verification miss (kVerifyFailed) whose outputs, re-run without
  /// verification, match the golden reference to within the tolerance
  /// relative to the tile's largest output: cancellation left an output
  /// near zero with a rounding-level error. Any other miss is a wrong
  /// result.
  bool rounding_miss = false;
  double wall_s = 0.0;    ///< host time of the whole op
  double loop_s = 0.0;    ///< host time of the cycle loop inside it
  std::uint32_t tiles = 0;  ///< tiles completed and verified
  std::uint64_t signature = 0;  ///< hash of every simulated counter
  SimCounts counts;
  std::uint64_t sys_cycles = 0;  ///< system window (system ops)
  /// Cycles the loop ticked, summed over clusters.
  std::uint64_t cluster_cycles = 0;
  std::uint32_t cores = 0;  ///< cores per cluster
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  bool inspected = false;  ///< diags / lint below are valid
  std::uint32_t diags = 0, lint = 0;
};

/// The check behind OpResult::rounding_miss: over the tile interior, every
/// |got - want| is within `tolerance` times the largest |want|. run_kernel's
/// relative check fails an output that cancels to near zero even when its
/// error is at rounding level; a wrong kernel misses by the size of the
/// values themselves.
bool within_rounding(const saris::StencilCode& sc, const saris::Grid<>& got,
                     const saris::Grid<>& want, double tolerance);

/// Run `op`; with a tracer, record spans tagged with `op_id`. A SimError
/// from the simulator, or a degraded system run, fails the op. A verifier
/// rejection of an inspected op still reports its diagnostics.
OpResult run_op(const Op& op, Tracer* tr, std::uint64_t op_id);

/// Traced runs only: compile `op`'s kernel stage by stage (lowering,
/// verify, cost as its options ask) with a span around each, without
/// touching the plan cache. Times the compile stages of cells whose
/// measured ops hit a warm cache.
void probe_compile(const Op& op, Tracer& tr, std::uint64_t op_id);

}  // namespace perfbench
