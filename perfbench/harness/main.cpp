//===- main.cpp - The repository benchmark entry point --------------------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
//   perfbench --workload <mmm_two_level|cholesky_rw|service_mix|all>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--inject-wrong-output]
//
// Prints the machine record, every timing with its sample count, median and
// quartiles, every metric by name with its unit, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (and the span trace is written to the work directory). Exit status: 0
// when every output checked correct, 1 when some did not, 2 on bad usage,
// 3-5 when the run cannot be reported (see README.md).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "kernels/SimdGemm.h"
#include "native/NativeJit.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sched.h>
#include <string>
#include <vector>

using namespace perfbench;
using namespace shackle;

namespace {

/// The machine record every result carries.
MachineRecord recordMachine() {
  MachineRecord R;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    R.Nproc = static_cast<unsigned>(CPU_COUNT(&Set));
  std::ifstream Info("/proc/cpuinfo");
  for (std::string Line; std::getline(Info, Line);) {
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      R.CpuModel = Colon == std::string::npos ? Line : Line.substr(Colon + 2);
      break;
    }
  }
  R.Simd = resolveSimdLevel(SimdMode::Auto);
  R.Compiler = nativeCompilerPath();
  R.BuildType = PERFBENCH_BUILD_TYPE;
  R.NativeTier = nativeTierAvailable();
  return R;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<mmm_two_level|cholesky_rw|service_mix|all> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--inject-wrong-output]\n",
               Why);
  std::exit(2);
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const Result &R, const std::string &Prefix) {
  std::string Out;
  for (const auto &[Name, VU] : R.Metrics) {
    if (!std::isfinite(VU.first)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", Name.c_str());
      std::exit(5);
    }
    Out += (Out.empty() ? "\"" : ",\"") + Prefix + Name + "\":{\"value\":" +
           number(VU.first) + ",\"unit\":\"" + VU.second + "\"}";
  }
  return Out;
}

std::string timingJson(const Summary &S) {
  return "{\"n\":" + std::to_string(S.N) + ",\"median\":" + number(S.Median) +
         ",\"q1\":" + number(S.Q1) + ",\"q3\":" + number(S.Q3) +
         ",\"p90\":" + number(S.P90) + ",\"beyond_p90\":" +
         std::to_string(S.BeyondP90) + ",\"min\":" + number(S.Min) +
         ",\"max\":" + number(S.Max) + "}";
}

std::string machineJson(const MachineRecord &M) {
  return "{\"nproc\":" + std::to_string(M.Nproc) + ",\"cpu\":\"" +
         M.CpuModel + "\",\"simd\":\"" + shackle::simdLevelName(M.Simd) +
         "\",\"cc\":\"" + M.Compiler + "\",\"build\":\"" + M.BuildType +
         "\"}";
}

/// The full record of one workload's result, written beside the trace.
void writeRecord(const std::string &Path, const Result &R,
                 const RunConfig &Cfg) {
  std::string Doc = "{\"workload\":\"" + R.Workload + "\",\"seed\":" +
                    std::to_string(Cfg.Seed) + ",\"seconds\":" +
                    number(Cfg.Seconds) + ",\"trace\":" +
                    (Cfg.Trace ? "1" : "0") + ",\"machine\":" +
                    machineJson(Cfg.Machine) + ",\"attempted\":" +
                    std::to_string(R.Attempted) + ",\"failed\":" +
                    std::to_string(R.Failed) + ",\"failures\":{";
  bool First = true;
  for (const auto &[Why, Count] : R.FailureReasons) {
    Doc += (First ? "\"" : ",\"") + Why + "\":" + std::to_string(Count);
    First = false;
  }
  Doc += "},\"timings\":{";
  First = true;
  for (const auto &[Name, S] : R.Timings) {
    Doc += (First ? "\"" : ",\"") + Name + "\":" + timingJson(S);
    First = false;
  }
  Doc += "},\"metrics\":{" + metricsJson(R, "") + "}}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F || std::fputs(Doc.c_str(), F) < 0 || std::fclose(F) != 0) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    std::exit(5);
  }
}

void printResult(const Result &R) {
  for (const auto &[Name, S] : R.Timings)
    std::printf("timing %s %s: n=%zu median=%.6g q1=%.6g q3=%.6g p90=%.6g "
                "(beyond=%zu) min=%.6g max=%.6g\n",
                R.Workload.c_str(), Name.c_str(), S.N, S.Median, S.Q1, S.Q3,
                S.P90, S.BeyondP90, S.Min, S.Max);
  for (const auto &[Why, Count] : R.FailureReasons)
    std::printf("failure %s %s: %llu\n", R.Workload.c_str(), Why.c_str(),
                static_cast<unsigned long long>(Count));
  for (const auto &[Name, VU] : R.Metrics)
    std::printf("metric %s %s = %.6g %s\n", R.Workload.c_str(), Name.c_str(),
                VU.first, VU.second.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  std::string Workload;
  int Trace = -1;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      Workload = Next();
    } else if (A == "--seed") {
      Cfg.Seed = std::strtoull(Next().c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      Cfg.Seconds = std::strtod(Next().c_str(), nullptr);
      HaveSeconds = Cfg.Seconds > 0 && Cfg.Seconds <= 600;
    } else if (A == "--trace") {
      std::string V = Next();
      Trace = V == "1" ? 1 : V == "0" ? 0 : -1;
    } else if (A == "--work-dir") {
      Cfg.WorkDir = Next();
    } else if (A == "--inject-wrong-output") {
      Cfg.InjectWrongOutput = true;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (Workload.empty() || !HaveSeed || !HaveSeconds || Trace < 0 ||
      Cfg.WorkDir.empty())
    usage("--workload, --seed, --seconds (0 < s <= 600), --trace and "
          "--work-dir are required");
  Cfg.Trace = Trace == 1;

  Cfg.Machine = recordMachine();
  std::printf("machine: %s\n", machineJson(Cfg.Machine).c_str());
#ifndef NDEBUG
  std::fprintf(stderr, "error: refusing to report: assertions are enabled\n");
  return 3;
#endif
  if (Cfg.Machine.BuildType != "Release") {
    std::fprintf(stderr, "error: refusing to report: %s build\n",
                 Cfg.Machine.BuildType.c_str());
    return 3;
  }
  if (!Cfg.Machine.NativeTier) {
    std::fprintf(stderr, "error: refusing to report: the native tier cannot "
                         "compile with %s\n",
                 Cfg.Machine.Compiler.c_str());
    return 3;
  }

  struct Entry {
    const char *Name;
    Result (*Run)(const RunConfig &);
  };
  const Entry All[] = {{"mmm_two_level", runMmmTwoLevel},
                       {"cholesky_rw", runCholeskyRw},
                       {"service_mix", runServiceMix}};
  std::vector<Result> Results;
  for (const Entry &E : All) {
    if (Workload != "all" && Workload != E.Name)
      continue;
    clearSpans();
    setTracing(Cfg.Trace);
    Results.push_back(E.Run(Cfg));
    setTracing(false);
    const Result &R = Results.back();
    std::string Stem = Cfg.WorkDir + "/" + R.Workload + "-seed" +
                       std::to_string(Cfg.Seed) + "-trace" +
                       (Cfg.Trace ? "1" : "0");
    if (Cfg.Trace) {
      std::string Err;
      if (!writeTrace(Stem + ".trace.json", Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 5;
      }
    }
    writeRecord(Stem + ".json", R, Cfg);
    printResult(R);
  }
  if (Results.empty())
    usage(("unknown workload " + Workload).c_str());

  uint64_t Attempted = 0, Failed = 0;
  std::string Metrics;
  for (const Result &R : Results) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    std::string M =
        metricsJson(R, Results.size() > 1 ? R.Workload + "/" : std::string());
    Metrics += (Metrics.empty() || M.empty() ? "" : ",") + M;
  }
  bool Correct = Failed == 0 && Attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  return Correct ? 0 : 1;
}
