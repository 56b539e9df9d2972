//===- Layers.cpp - Per-layer probes of the traced run --------------------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
// Each probe calls one layer's public functions directly, under a span, on
// the configuration the workload runs, and reports medians of a few calls.
// Every workload runs every probe, so a layer that the workload's own loop
// leaves idle is still measured on that workload's programs (README.md
// says which metrics come from the loop and which from a probe).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "parallel/UndoLog.h"
#include "programs/Registry.h"
#include "service/PlanCache.h"
#include "service/PlanKey.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <immintrin.h>

using namespace shackle;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Twelve independent accumulator chains hide the FMA latency (4 cycles x 2
// ports on current x86 cores needs at least 8). Returns a value derived from
// the accumulators so the loop cannot be dropped.
__attribute__((target("avx512f"))) double fmaLoopAvx512(int64_t Iters) {
  __m512d Acc[12];
  for (int I = 0; I < 12; ++I)
    Acc[I] = _mm512_set1_pd(1.0 + I * 1e-3);
  const __m512d M = _mm512_set1_pd(0.999999), A = _mm512_set1_pd(1e-7);
  for (int64_t It = 0; It < Iters; ++It)
    for (int I = 0; I < 12; ++I)
      Acc[I] = _mm512_fmadd_pd(Acc[I], M, A);
  __m512d Sum = Acc[0];
  for (int I = 1; I < 12; ++I)
    Sum = _mm512_add_pd(Sum, Acc[I]);
  double Out[8];
  _mm512_storeu_pd(Out, Sum);
  double Total = 0;
  for (double V : Out)
    Total += V;
  return Total;
}

__attribute__((target("avx2,fma"))) double fmaLoopAvx2(int64_t Iters) {
  __m256d Acc[12];
  for (int I = 0; I < 12; ++I)
    Acc[I] = _mm256_set1_pd(1.0 + I * 1e-3);
  const __m256d M = _mm256_set1_pd(0.999999), A = _mm256_set1_pd(1e-7);
  for (int64_t It = 0; It < Iters; ++It)
    for (int I = 0; I < 12; ++I)
      Acc[I] = _mm256_fmadd_pd(Acc[I], M, A);
  __m256d Sum = Acc[0];
  for (int I = 1; I < 12; ++I)
    Sum = _mm256_add_pd(Sum, Acc[I]);
  double Out[4];
  _mm256_storeu_pd(Out, Sum);
  return Out[0] + Out[1] + Out[2] + Out[3];
}

double fmaLoopScalar(int64_t Iters) {
  double Acc[12];
  for (int I = 0; I < 12; ++I)
    Acc[I] = 1.0 + I * 1e-3;
  for (int64_t It = 0; It < Iters; ++It)
    for (int I = 0; I < 12; ++I)
      Acc[I] = Acc[I] * 0.999999 + 1e-7;
  double Sum = 0;
  for (int I = 0; I < 12; ++I)
    Sum += Acc[I];
  return Sum;
}

volatile double Sink = 0; // Keeps probe results observable.

/// FMA throughput of this core at \p Level, in GFlop/s: independent
/// accumulator chains of vector FMAs, median of timed batches.
double fmaPeakGflops(SimdLevel Level) {
  Span S("kernels.fma_peak");
  const int64_t Iters = 200000;
  double Lanes = Level == SimdLevel::Avx512 ? 8 : Level == SimdLevel::Avx2
                                                     ? 4
                                                     : 1;
  std::vector<double> Rates;
  for (int Rep = 0; Rep < 7; ++Rep) {
    auto T0 = Clock::now();
    double V = Level == SimdLevel::Avx512 ? fmaLoopAvx512(Iters)
               : Level == SimdLevel::Avx2 ? fmaLoopAvx2(Iters)
                                          : fmaLoopScalar(Iters);
    double Sec = msSince(T0, "kernels.fma_peak") * 1e-3;
    Sink = Sink + V;
    Rates.push_back(2.0 * 12 * Lanes * static_cast<double>(Iters) / Sec *
                    1e-9);
  }
  return summarize(Rates, "kernels.fma_peak").Median;
}

/// GFlop/s of the selected GEMM kernel on one 64x64x64 tile whose operands
/// live in \p Ld-wide row-major matrices, median of timed batches.
double tileGflops(SimdLevel Level, int64_t Ld) {
  Span S("kernels.tile");
  constexpr int64_t T = 64;
  GemmKernelFn Kernel = selectGemmKernel(Level);
  std::vector<double> A(T * Ld), B(T * Ld), C(T * Ld, 0.0);
  for (std::size_t I = 0; I < A.size(); ++I) {
    A[I] = 1.0 + static_cast<double>(I % 7) * 1e-3;
    B[I] = 1.0 - static_cast<double>(I % 5) * 1e-3;
  }
  const int Calls = 200;
  std::vector<double> Rates;
  for (int Rep = 0; Rep < 9; ++Rep) {
    auto T0 = Clock::now();
    for (int I = 0; I < Calls; ++I)
      Kernel(C.data(), A.data(), B.data(), T, T, T, Ld, Ld, Ld);
    double Sec = msSince(T0, "kernels.tile") * 1e-3;
    Rates.push_back(2.0 * T * T * T * Calls / Sec * 1e-9);
  }
  Sink = Sink + C[0];
  return summarize(Rates, "kernels.tile").Median;
}

} // namespace

[[noreturn]] void refuse(const std::string &Why) {
  std::fprintf(stderr, "error: refusing to report: %s\n", Why.c_str());
  std::exit(4);
}

RegistryConfig::RegistryConfig(std::string B, std::string C, int64_t Blk,
                               int64_t N)
    : Bench(std::move(B)), Config(std::move(C)), Block(Blk), N(N) {
  const BenchEntry &E = benchRegistry().at(Bench);
  BenchSpec S = E.Make();
  Flops = S.Flops({N});
  Prog = std::move(S.Prog);
  Chain = E.Configs.at(Config)(*Prog, Block);
}

std::shared_ptr<NativeModule> compileNative(const ParallelPlan &Plan,
                                            SimdLevel Recorded) {
  std::vector<const ASTNode *> Roots;
  for (const BlockTask &T : Plan.partition().Tasks)
    for (const BlockTask::Segment &Seg : T.Segments)
      Roots.push_back(Seg.Node);
  NativeJitOptions NO;
  NO.Simd = SimdMode::Auto;
  NO.TaskGrain = true;
  std::vector<Diagnostic> Diags;
  std::shared_ptr<NativeModule> Mod;
  {
    Span N("native.compile");
    Mod = NativeModule::compile(Plan.nest(), Roots, &Plan.partition(), NO,
                                Diags);
  }
  if (!Mod) {
    std::string Why = "native module is null (no usable compiler)";
    for (const Diagnostic &D : Diags)
      Why += "; " + D.str();
    refuse(Why);
  }
  if (Mod->stats().SimdUsed != Recorded)
    refuse(std::string("module SIMD level ") +
           simdLevelName(Mod->stats().SimdUsed) +
           " differs from the recorded " + simdLevelName(Recorded));
  return Mod;
}

std::vector<double> logical(const ProgramInstance &I, unsigned A, int64_t N) {
  std::vector<double> Out(static_cast<std::size_t>(N * N));
  for (int64_t R = 0; R < N; ++R)
    for (int64_t C = 0; C < N; ++C) {
      int64_t Idx[2] = {R, C};
      Out[R * N + C] = I.buffer(A)[I.offset(A, Idx)];
    }
  return Out;
}

PlanLayers probePlanLayers(const RegistryConfig &C, unsigned TaskFactors) {
  PlanLayers L;
  std::vector<double> Leg, Scan, Part, Dag;
  for (int I = 0; I < 3; ++I) {
    LegalityCheckStats LS;
    {
      Span S("core.legality");
      auto T0 = Clock::now();
      LegalityResult LR = checkLegalityFrom(*C.Prog, C.Chain, 0, true,
                                            SolverBudget(), &LS);
      Leg.push_back(msSince(T0, "legality"));
      if (LR.Verdict != LegalityVerdict::Legal)
        refuse("probed chain is not proven legal");
    }
    L.LegalityQueries = static_cast<double>(LS.QueriesRun);
    LoopNest Nest;
    {
      Span S("codegen.scan");
      auto T0 = Clock::now();
      Nest = generateShackledCode(*C.Prog, C.Chain);
      Scan.push_back(msSince(T0, "scan"));
    }
    BlockPartition BP;
    {
      Span S("parallel.partition");
      auto T0 = Clock::now();
      BP = partitionLoopNestByBlocks(
          Nest, C.Chain.numBlockDimsPrefix(TaskFactors), {C.N}, 1ull << 20);
      Part.push_back(msSince(T0, "partition"));
    }
    if (!BP.OK)
      refuse("probed nest does not partition: " + BP.FailReason);
    Span S("parallel.dag");
    BlockDepGraphOptions GO;
    GO.TaskFactors = TaskFactors;
    auto T0 = Clock::now();
    BlockDepGraph G = buildBlockDepGraph(*C.Prog, C.Chain, {C.N}, BP.coords(),
                                         GO);
    Dag.push_back(msSince(T0, "dag"));
    L.DagEdges = static_cast<double>(G.NumEdges);
    L.CriticalPath = static_cast<double>(G.criticalPathLength());
  }
  L.LegalityMs = median(Leg, "legality");
  L.ScanMs = median(Scan, "scan");
  L.PartitionMs = median(Part, "partition");
  L.DagMs = median(Dag, "dag");
  return L;
}

void addPlanLayers(Result &R, const PlanLayers &L) {
  R.metric("core.legality_ms", L.LegalityMs, "ms");
  R.metric("core.legality_queries", L.LegalityQueries, "count");
  R.metric("codegen.scan_ms", L.ScanMs, "ms");
  R.metric("parallel.partition_ms", L.PartitionMs, "ms");
  R.metric("parallel.dag_ms", L.DagMs, "ms");
  R.metric("parallel.dag_edges", L.DagEdges, "count");
  R.metric("parallel.critical_path", L.CriticalPath, "count");
}

void probeKernels(Result &R, SimdLevel Level, int64_t Ld) {
  double Tile = tileGflops(Level, Ld);
  double Peak = fmaPeakGflops(Level);
  R.metric("kernels.tile_gflops", Tile, "GFlop/s");
  R.metric("kernels.fma_peak_gflops", Peak, "GFlop/s");
  R.metric("kernels.tile_frac_of_peak", Tile / Peak, "frac");
}

void probeNative(Result &R, const ParallelPlan &Plan, const NativeModule &Mod,
                 const ProgramInstance &Init) {
  const NativeJitStats &NS = Mod.stats();
  R.metric("native.compile_ms", median(spanMs("native.compile"), "compile"),
           "ms");
  R.metric("native.kernels", NS.NumKernels + NS.TaskKernels, "count");
  R.metric("native.gemm_routed", NS.GemmRouted, "count");

  const std::vector<BlockTask> &Tasks = Plan.partition().Tasks;
  ProgramInstance Inst = Init;
  {
    // Undo capture of every task's footprint through the native
    // enumerators, as the executor does before each task.
    std::vector<double> PassMs;
    for (int Pass = 0; Pass < 5; ++Pass) {
      Span S("parallel.undo_capture");
      auto T0 = Clock::now();
      std::size_t Entries = 0;
      for (uint32_t T = 0; T < Tasks.size(); ++T)
        Entries +=
            captureBlockUndo(Plan.nest(), Tasks[T], T, Inst, &Mod).Entries.size();
      PassMs.push_back(msSince(T0, "undo_capture"));
      if (Entries == 0)
        refuse("undo capture enumerated no writes");
    }
    R.metric("parallel.undo_capture_ms", median(PassMs, "undo"), "ms");
  }
  // One task-grain kernel call (task 0, a DAG source), its footprint
  // restored between calls so every call sees the same data.
  NativeKernelFn Fn = Mod.taskFnFor(0);
  if (!Fn)
    refuse("no task-grain kernel for task 0");
  std::vector<double *> Ptrs;
  for (unsigned A = 0; A < Inst.program().getNumArrays(); ++A)
    Ptrs.push_back(Inst.buffer(A).data());
  std::vector<int64_t> Flat;
  for (const BlockTask::Segment &Seg : Tasks[0].Segments)
    Flat.insert(Flat.end(), Seg.DimValues.begin(), Seg.DimValues.end());
  BlockUndoLog Undo = captureBlockUndo(Plan.nest(), Tasks[0], 0, Inst, &Mod);
  std::vector<double> CallUs;
  for (int I = 0; I < 31; ++I) {
    restoreBlockUndo(Undo, Inst);
    Span S("native.task_call");
    auto T0 = Clock::now();
    Fn(Ptrs.data(), Flat.data(), &Mod.hooks());
    CallUs.push_back(msSince(T0, "task_call") * 1e3);
  }
  R.metric("native.task_call_us", median(CallUs, "task_call"), "us");
}

void probeOracle(Result &R, const RegistryConfig &Small) {
  ParallelPlan Plan = ParallelPlan::build(*Small.Prog, Small.Chain, {Small.N});
  ProgramInstance Init(*Small.Prog, {Small.N});
  Init.fillRandom(7, 0.5, 1.5);
  std::vector<double> Rates;
  for (int I = 0; I < 3; ++I) {
    ProgramInstance Inst = Init;
    Span S("interp.run");
    auto T0 = Clock::now();
    Plan.runSerial(Inst);
    Rates.push_back(Small.Flops / (msSince(T0, "interp") * 1e-3) * 1e-6);
  }
  R.metric("interp.mflops", median(Rates, "interp"), "MFlop/s");
}

void probePlanCache(Result &R, const RegistryConfig &C, unsigned Threads) {
  PlanKey Key = makePlanKey(*C.Prog, C.Chain, {C.N}, PlanKeyAutoTaskLevel,
                            detectMachineShape());
  auto Build = [&] {
    ParallelPlanOptions PO;
    PO.AutoTaskLevel = true;
    PO.ThreadsHint = Threads;
    return ParallelPlan::build(*C.Prog, C.Chain, {C.N}, PO);
  };
  std::vector<double> MissMs, HitUs;
  uint64_t Hits = 0, Misses = 0;
  for (int I = 0; I < 3; ++I) {
    PlanCache Cache;
    {
      Span S("service.miss");
      auto T0 = Clock::now();
      if (!Cache.getOrBuild(Key, C.Prog, Build).Plan)
        refuse("plan cache build failed");
      MissMs.push_back(msSince(T0, "miss"));
    }
    for (int J = 0; J < 100; ++J) {
      Span S("service.hit");
      auto T0 = Clock::now();
      if (!Cache.getOrBuild(Key, C.Prog, Build).Hit)
        refuse("plan cache missed a cached key");
      HitUs.push_back(msSince(T0, "hit") * 1e3);
    }
    PlanCacheStats St = Cache.stats();
    Hits += St.Hits;
    Misses += St.Misses;
  }
  R.metric("service.hit_ratio",
           static_cast<double>(Hits) / static_cast<double>(Hits + Misses),
           "frac");
  R.metric("service.hit_us_p50", median(HitUs, "hit"), "us");
  R.metric("service.miss_ms_p50", median(MissMs, "miss"), "ms");
  R.metric("service.coalesced", 0.0, "count");
  R.metric("service.solver_saved", 0.0, "count");
}

void finishTrace(Result &R) {
  double Cost = spanCostNs();
  double Overhead = static_cast<double>(spans().size()) * Cost * 1e-6 /
                    tracedWallMs();
  R.metric("trace.overhead_frac", Overhead, "frac");
  R.metric("trace.setup_uncovered_frac", uncoveredShare("setup"), "frac");
  R.metric("trace.run_uncovered_frac", uncoveredShare("measure"), "frac");
}

} // namespace perfbench
