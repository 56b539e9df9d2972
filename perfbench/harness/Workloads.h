//===- Workloads.h - The benchmark's workloads ----------------------------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Stats.h"

#include "core/DataShackle.h"
#include "interp/Interpreter.h"
#include "ir/Program.h"
#include "kernels/SimdGemm.h"
#include "native/NativeJit.h"
#include "parallel/ParallelExecutor.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What every result is recorded with, and what the benchmark refuses to
/// report without: a Release build, a working native compiler, and the
/// SIMD level that the kernels resolve to.
struct MachineRecord {
  unsigned Nproc = 1; ///< CPUs in this process's affinity mask.
  std::string CpuModel;
  shackle::SimdLevel Simd = shackle::SimdLevel::Scalar;
  std::string Compiler;
  std::string BuildType;
  bool NativeTier = false;
};

struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Corrupts one output element of one repetition (or one reply) after it
  /// is produced, to prove the output checks catch a wrong result.
  bool InjectWrongOutput = false;
  /// Directory for scratch files (the service socket).
  std::string WorkDir;
  MachineRecord Machine;
};

Result runMmmTwoLevel(const RunConfig &Cfg);
Result runCholeskyRw(const RunConfig &Cfg);
Result runServiceMix(const RunConfig &Cfg);

/// Prints why the run cannot be reported and exits 4 (no result line).
[[noreturn]] void refuse(const std::string &Why);

/// One registry configuration (benchmark, config, block) at size N: the
/// program, its chain, and its useful flop count.
struct RegistryConfig {
  RegistryConfig(std::string Bench, std::string Config, int64_t Block,
                 int64_t N);
  std::string Bench, Config;
  int64_t Block = 0, N = 0;
  std::shared_ptr<const shackle::Program> Prog;
  shackle::ShackleChain Chain;
  double Flops = 0;
};

/// NativeModule::compile with task-grain kernels and SIMD auto (what
/// `shackle run --native=task` compiles), under a native.compile span.
/// Refuses the run when the module is null or resolved another SIMD level
/// than \p Recorded.
std::shared_ptr<shackle::NativeModule>
compileNative(const shackle::ParallelPlan &Plan, shackle::SimdLevel Recorded);

/// Row-major copy of the N x N array \p A, read through
/// ProgramInstance::offset so references never assume the physical layout.
std::vector<double> logical(const shackle::ProgramInstance &I, unsigned A,
                            int64_t N);

/// Medians of the plan layers, each called directly on one configuration
/// under its own span.
struct PlanLayers {
  double LegalityMs = 0, LegalityQueries = 0, ScanMs = 0, PartitionMs = 0,
         DagMs = 0, DagEdges = 0, CriticalPath = 0;
};
PlanLayers probePlanLayers(const RegistryConfig &C, unsigned TaskFactors);
void addPlanLayers(Result &R, const PlanLayers &L);

/// kernels.*: the GEMM tile at leading dimension \p Ld and the FMA peak.
void probeKernels(Result &R, shackle::SimdLevel Level, int64_t Ld);
/// native.* and parallel.undo_capture_ms on \p Plan compiled into \p Mod.
void probeNative(Result &R, const shackle::ParallelPlan &Plan,
                 const shackle::NativeModule &Mod,
                 const shackle::ProgramInstance &Init);
/// interp.mflops: the serial oracle on a small instance of the workload.
void probeOracle(Result &R, const RegistryConfig &Small);
/// service.*: PlanCache misses and hits on the workload's own plan key.
void probePlanCache(Result &R, const RegistryConfig &C, unsigned Threads);

/// Adds the trace.* metrics from the recorded spans: the tracing overhead
/// and the shares of set-up and measured wall that no child span covers.
/// Call last, with tracing on.
void finishTrace(Result &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
