//===- Compute.cpp - The mmm_two_level and cholesky_rw workloads ----------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
// Both compute workloads run the same pipeline through the public entry
// points: ParallelPlan::build, NativeModule::compile (task-grain kernels,
// SIMD auto), then repeated ParallelPlan::run with the default integrity
// ladder (undo logs, checksums, poison checks) at nproc threads and at one
// thread. Inputs come from the seed; every repetition's output is checked
// against a reference computed once by code that shares nothing with the
// shackle code generator (kernels/Baselines).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "kernels/Baselines.h"
#include "parallel/ParallelExecutor.h"
#include "programs/Registry.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <random>

using namespace shackle;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// gamma_n = n u / (1 - n u), the standard rounding-error constant.
double gamma(int64_t N) {
  double U = std::numeric_limits<double>::epsilon() / 2;
  return static_cast<double>(N) * U / (1.0 - static_cast<double>(N) * U);
}

/// One compute workload: a registry configuration at a fixed size, its
/// seeded inputs, and the reference its output must match element-wise
/// (Expected +- Tol, in the physical layout of array Checked).
struct ComputeCase {
  const char *Name;
  RegistryConfig Config;
  /// A small instance of the same configuration, for the oracle probe.
  RegistryConfig Small;
  unsigned Checked = 0;
  std::unique_ptr<ProgramInstance> Init = nullptr;
  std::vector<double> Expected = {}, Tol = {};
};

std::vector<double> physical(const ProgramInstance &I, unsigned A, int64_t N,
                             const std::vector<double> &Logical) {
  std::vector<double> Out(I.buffer(A).size(), 0.0);
  for (int64_t R = 0; R < N; ++R)
    for (int64_t C = 0; C < N; ++C) {
      int64_t Idx[2] = {R, C};
      Out[I.offset(A, Idx)] = Logical[R * N + C];
    }
  return Out;
}

/// C += A * B with C, A, B uniform in [-1, 1]. Reference: Baselines'
/// blocked GEMM; bound: two results each within gamma_{N+1} (|C0| + |A||B|)
/// of the exact one, with 50% slack for the rounding of the bound itself.
ComputeCase makeMmm(uint64_t Seed) {
  ComputeCase C{"mmm_two_level",
                {"matmul", "two-level", 64, 1024},
                {"matmul", "two-level", 64, 128}};
  C.Checked = 0; // Arrays: 0 = C, 1 = A, 2 = B.
  C.Init = std::make_unique<ProgramInstance>(
      *C.Config.Prog, std::vector<int64_t>{C.Config.N});
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> U(-1.0, 1.0);
  for (unsigned A = 0; A < 3; ++A)
    for (double &V : C.Init->buffer(A))
      V = U(Rng);

  int64_t N = C.Config.N;
  std::vector<double> Cm = logical(*C.Init, 0, N), Am = logical(*C.Init, 1, N),
                      Bm = logical(*C.Init, 2, N);
  std::vector<double> Bound(Cm.size());
  for (std::size_t I = 0; I < Cm.size(); ++I)
    Bound[I] = std::fabs(Cm[I]);
  blockedMatMul(Cm.data(), Am.data(), Bm.data(), N, 64);
  for (double &V : Am)
    V = std::fabs(V);
  for (double &V : Bm)
    V = std::fabs(V);
  blockedMatMul(Bound.data(), Am.data(), Bm.data(), N, 64);
  double G = 3.0 * gamma(N + 1);
  for (double &V : Bound)
    V *= G;
  C.Expected = physical(*C.Init, 0, N, Cm);
  C.Tol = physical(*C.Init, 0, N, Bound);
  return C;
}

/// Right-looking Cholesky on a seeded SPD matrix: off-diagonal entries
/// uniform in [-1, 1] (symmetric), diagonal 2N + [0, 1). Gershgorin puts
/// every eigenvalue in [N + 1, 3N + 1], so kappa <= 3 and the factor is
/// well defined with no pivoting. Reference: Baselines' naive right-looking
/// Cholesky. Bound on the lower triangle: twice the normwise forward bound
/// 2 kappa N gamma_{N+1} sqrt(lambda_max); the upper triangle is never
/// written and must come back bit-for-bit.
ComputeCase makeCholesky(uint64_t Seed) {
  // N = 768: 4.5 MiB per matrix, larger than one core's 2 MiB L2.
  ComputeCase C{"cholesky_rw",
                {"cholesky-right", "product-rw", 64, 768},
                {"cholesky-right", "product-rw", 64, 192}};
  C.Checked = 0;
  C.Init = std::make_unique<ProgramInstance>(
      *C.Config.Prog, std::vector<int64_t>{C.Config.N});
  int64_t N = C.Config.N;
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> U(-1.0, 1.0);
  std::vector<double> &Buf = C.Init->buffer(0);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J <= I; ++J) {
      int64_t Lo[2] = {I, J}, Up[2] = {J, I};
      double V = I == J ? 2.0 * static_cast<double>(N) + 0.5 * (U(Rng) + 1.0)
                        : U(Rng);
      Buf[C.Init->offset(0, Lo)] = V;
      Buf[C.Init->offset(0, Up)] = V;
    }

  std::vector<double> L = logical(*C.Init, 0, N);
  naiveCholeskyRight(L.data(), N);
  double Tol = 2.0 * 2.0 * 3.0 * static_cast<double>(N) * gamma(N + 1) *
               std::sqrt(3.0 * static_cast<double>(N) + 1.0);
  std::vector<double> T(L.size(), 0.0);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J <= I; ++J)
      T[I * N + J] = Tol;
  C.Expected = physical(*C.Init, 0, N, L);
  C.Tol = physical(*C.Init, 0, N, T);
  return C;
}

struct Built {
  ParallelPlan Plan;
  std::shared_ptr<NativeModule> Mod;
};

/// One set-up: the plan and its task-grain native module, as
/// `shackle run --native=task` builds them.
Built setUp(const ComputeCase &C, const RunConfig &Cfg) {
  Span S("setup");
  ParallelPlanOptions PO;
  PO.AutoTaskLevel = true;
  PO.ThreadsHint = Cfg.Machine.Nproc;
  Built B;
  {
    Span P("parallel.plan_build");
    B.Plan = ParallelPlan::build(*C.Config.Prog, C.Config.Chain, {C.Config.N},
                                 PO);
  }
  if (!B.Plan.parallelReady())
    refuse(std::string(C.Name) + ": plan is not parallel-ready");
  B.Mod = compileNative(B.Plan, Cfg.Machine.Simd);
  return B;
}

/// Why repetition output is wrong, or empty. Every listed condition counts
/// as one failed operation.
std::string checkRep(const ComputeCase &C, const ParallelRunStats &St,
                     const ProgramInstance &Inst) {
  if (St.Failed)
    return "run-failed";
  if (St.Mode != ParallelMode::Parallel)
    return "not-parallel";
  if (St.Integrity.PoisonedBlocks)
    return "poisoned-block";
  if (St.NativeOracleReruns)
    return "oracle-rerun";
  if (St.InterpSegments)
    return "interpreter-fallback";
  const std::vector<double> &Got = Inst.buffer(C.Checked);
  for (std::size_t I = 0; I < Got.size(); ++I) {
    double D = std::fabs(Got[I] - C.Expected[I]);
    if (!(D <= C.Tol[I])) // NaN fails too.
      return "wrong-output";
  }
  return "";
}

void copyInputs(const ProgramInstance &From, ProgramInstance &To) {
  for (unsigned A = 0; A < From.program().getNumArrays(); ++A)
    To.buffer(A) = From.buffer(A);
}

Result runCompute(ComputeCase C, const RunConfig &Cfg) {
  Result R;
  R.Workload = C.Name;
  const unsigned Threads = Cfg.Machine.Nproc;

  // Several set-ups; setup_s is their median, the last one is measured.
  std::vector<double> SetupS;
  Built B;
  for (int I = 0; I < 7; ++I) {
    B = Built();
    auto T0 = Clock::now();
    B = setUp(C, Cfg);
    SetupS.push_back(msSince(T0, "setup") * 1e-3);
  }
  const double Flops = C.Config.Flops;

  ParallelRunOptions OptsN, Opts1;
  OptsN.NumThreads = Threads;
  OptsN.Native = B.Mod.get();
  Opts1 = OptsN;
  Opts1.NumThreads = 1;

  ProgramInstance Inst = *C.Init;
  std::vector<double> WallN, Wall1, CpuN, EffN, StealsN;
  uint64_t InterpSegs = 0, OracleReruns = 0;
  const auto Deadline =
      Clock::now() + std::chrono::duration<double>(Cfg.Seconds);
  {
    Span M("measure");
    // Rounds of four nproc-thread repetitions and one 1-thread one, so both
    // passes see the same host conditions; at least one whole round.
    for (uint64_t Rep = 0; Rep < 5 || Clock::now() < Deadline; ++Rep) {
      bool Single = Rep % 5 == 4;
      {
        Span S("reset");
        copyInputs(*C.Init, Inst);
      }
      double Cpu0 = processCpuSeconds();
      auto T0 = Clock::now();
      ParallelRunStats St;
      {
        Span S("parallel.run");
        St = B.Plan.run(Inst, Single ? Opts1 : OptsN);
      }
      double Ms = msSince(T0, "parallel.run");
      double CpuMs =
          checkedDuration(processCpuSeconds() - Cpu0, "cpu time") * 1e3;
      (Single ? Wall1 : WallN).push_back(Ms);
      if (!Single) {
        CpuN.push_back(CpuMs);
        EffN.push_back(CpuMs / (Threads * Ms));
        StealsN.push_back(static_cast<double>(St.Steals));
      }
      InterpSegs += St.InterpSegments;
      OracleReruns += St.NativeOracleReruns;
      if (Cfg.InjectWrongOutput && Rep == 2)
        Inst.buffer(C.Checked)[Inst.buffer(C.Checked).size() / 2] += 1e-3;
      Span S("check");
      ++R.Attempted;
      std::string Why = checkRep(C, St, Inst);
      if (!Why.empty())
        R.fail(Why);
    }
  }

  Summary Setup = summarize(SetupS, "setup_s");
  Summary SN = summarize(WallN, "run_ms");
  Summary S1 = summarize(Wall1, "run_ms_1t");
  R.timing("setup_s", Setup);
  R.timing("run_ms", SN);
  R.timing("run_ms_1t", S1);

  if (!Cfg.Trace) {
    R.metric("setup_s", Setup.Median, "s");
    R.metric("gflops", Flops / (SN.Median * 1e-3) * 1e-9, "GFlop/s");
    R.metric("gflops_1t", Flops / (S1.Median * 1e-3) * 1e-9, "GFlop/s");
    R.metric("run_ms_p90", SN.P90, "ms");
    R.metric("req_ms_p50", SN.Median, "ms");
    R.metric("req_ms_p90", SN.P90, "ms");
    // A request here is one run at nproc threads.
    R.metric("req_per_s", 1e3 / SN.Median, "1/s");
    R.metric("success_frac",
             1.0 - static_cast<double>(R.Failed) /
                       static_cast<double>(std::max<uint64_t>(1, R.Attempted)),
             "frac");
    R.metric("peak_rss_mb", peakRssMb(), "MiB");
    return R;
  }

  // Traced run: metrics of the measured loop, then the per-layer probes.
  R.metric("parallel.efficiency", median(EffN, "efficiency"), "frac");
  R.metric("parallel.cpu_ms", median(CpuN, "cpu_ms"), "ms");
  R.metric("parallel.steals", median(StealsN, "steals"), "count");
  R.metric("parallel.interp_segments", static_cast<double>(InterpSegs),
           "count");
  R.metric("parallel.oracle_reruns", static_cast<double>(OracleReruns),
           "count");
  probeNative(R, B.Plan, *B.Mod, *C.Init);
  probeKernels(R, Cfg.Machine.Simd, C.Config.N);
  probeOracle(R, C.Small);
  probePlanCache(R, C.Config, Threads);
  addPlanLayers(R, probePlanLayers(C.Config, B.Plan.taskFactors()));
  finishTrace(R);
  return R;
}

} // namespace

Result runMmmTwoLevel(const RunConfig &Cfg) {
  return runCompute(makeMmm(Cfg.Seed), Cfg);
}

Result runCholeskyRw(const RunConfig &Cfg) {
  return runCompute(makeCholesky(Cfg.Seed), Cfg);
}

} // namespace perfbench
