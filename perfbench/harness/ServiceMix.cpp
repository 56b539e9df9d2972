//===- ServiceMix.cpp - The service_mix workload --------------------------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
// A closed loop of nproc clients, each on one persistent connection to a
// fresh in-process ServiceCore behind ServiceServer (the `shackle serve`
// transport). Three request kinds, drawn per client from the seed:
//
//   cold  compile of a key no request has named yet: legality-heavy
//         Cholesky product-rw, DAG-heavy ADI fused (N 44..72), trivial MMM
//         c. Cold slots fall due at a fixed rate (three a second) and any
//         client that finds a slot due takes it: the number of cold
//         compiles per second does not depend on how fast the service
//         answers.
//   hot   compile of a key primed at set-up (a warm hit), or now and then
//         of the newest cold key, which may still be building (a
//         single-flight collision: the request coalesces).
//   run   an interpreted 1-thread MMM run of a primed key; its reply
//         checksum must equal that of an independent naive MMM on the
//         inputs the service generates.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "kernels/Baselines.h"
#include "programs/Registry.h"
#include "service/Json.h"
#include "service/Server.h"
#include "service/Service.h"
#include "support/Checksum.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace shackle;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// One persistent client connection speaking newline-delimited JSON.
class Client {
public:
  explicit Client(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(Addr.sun_path))
      refuse("cannot create a client socket for " + Path);
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      refuse("cannot connect to " + Path);
  }
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Sends one request line and returns the reply line ("" on I/O error).
  std::string request(const std::string &Line) {
    std::string Out = Line + "\n";
    for (std::size_t Sent = 0; Sent < Out.size();) {
      ssize_t W = ::send(Fd, Out.data() + Sent, Out.size() - Sent,
                         MSG_NOSIGNAL);
      if (W <= 0)
        return "";
      Sent += static_cast<std::size_t>(W);
    }
    for (;;) {
      std::size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Reply = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Reply;
      }
      char Chunk[4096];
      ssize_t R = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (R <= 0)
        return "";
      Buf.append(Chunk, static_cast<std::size_t>(R));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

struct Key {
  std::string Bench, Config;
  int64_t Block = 0, N = 0;
  std::string line(const char *Op) const {
    return std::string("{\"op\":\"") + Op + "\",\"benchmark\":\"" + Bench +
           "\",\"config\":\"" + Config + "\",\"block\":" +
           std::to_string(Block) + ",\"params\":[" + std::to_string(N) +
           "],\"threads\":1}";
  }
};

/// The service's determinism witness (Service.cpp resultChecksum) over an
/// MMM instance whose C was computed by Baselines' naive GEMM from the
/// inputs the service generates (fillRandom(1, 0.5, 1.5)). Naive GEMM adds
/// each C element's products in ascending k, as the shackled code does, so
/// the result is bitwise equal without FMA contraction.
uint64_t referenceRunChecksum(int64_t N) {
  BenchSpec S = makeMatMul();
  ProgramInstance I(*S.Prog, {N});
  I.fillRandom(1, 0.5, 1.5);
  std::vector<double> C = logical(I, 0, N), A = logical(I, 1, N),
                      B = logical(I, 2, N);
  naiveMatMul(C.data(), A.data(), B.data(), N);
  for (int64_t R = 0; R < N; ++R)
    for (int64_t Col = 0; Col < N; ++Col) {
      int64_t Idx[2] = {R, Col};
      I.buffer(0)[I.offset(0, Idx)] = C[R * N + Col];
    }
  Checksum Sum;
  for (unsigned A2 = 0; A2 < S.Prog->getNumArrays(); ++A2) {
    const std::vector<double> &Buf = I.buffer(A2);
    Sum.u64(A2).u64(Buf.size());
    for (double V : Buf)
      Sum.f64(V);
  }
  return Sum.value();
}

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// The seeded pool of cold keys: every key named once, in shuffled order.
std::vector<Key> coldPool(uint64_t Seed) {
  std::vector<Key> Pool;
  for (int64_t N = 44; N <= 72; ++N)
    Pool.push_back({"adi", "fused", 1, N});
  for (int64_t N = 64; N <= 256; N += 16)
    for (int64_t B : {16, 32})
      Pool.push_back({"cholesky-right", "product-rw", B, N});
  for (int64_t N = 64; N <= 320; N += 8)
    for (int64_t B : {16, 32})
      Pool.push_back({"matmul", "c", B, N});
  std::mt19937_64 Rng(Seed ^ 0x5eed);
  std::shuffle(Pool.begin(), Pool.end(), Rng);
  return Pool;
}

const std::vector<Key> HotKeys = {{"matmul", "c", 24, 96},
                                  {"matmul", "c", 40, 200},
                                  {"cholesky-right", "product-rw", 24, 120},
                                  {"adi", "fused", 1, 40}};
const std::vector<Key> RunKeys = {
    {"matmul", "c", 8, 24}, {"matmul", "c", 8, 32}, {"matmul", "c", 8, 40}};

enum class Kind { Cold, Hot, Newest, Run };

struct Sample {
  Kind K = Kind::Hot;
  double Ms = 0;
  bool Hit = false, Coalesced = false;
  double RunMs = 0, Flops = 0;
};

/// A running service: core, server, and the thread inside serve().
struct Service {
  std::unique_ptr<ServiceCore> Core;
  std::unique_ptr<ServiceServer> Server;
  std::thread Serving;

  Service(const std::string &Path, unsigned Workers) {
    Core = std::make_unique<ServiceCore>();
    ServerOptions SO;
    SO.Admission.MaxInflight = Workers;
    Server = std::make_unique<ServiceServer>(*Core, Path, SO);
    Status St = Server->start();
    if (!St.ok())
      refuse("service did not start: " + St.diagnostic().Message);
    Serving = std::thread([this] { Server->serve(); });
  }
  ~Service() {
    Server->stop();
    Serving.join();
  }
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;
};

/// Why a reply is wrong, or empty.
std::string checkReply(const std::string &Line, Kind K, uint64_t WantSum,
                       Sample &S) {
  JsonValue V;
  if (Line.empty() || !parseJson(Line, V, nullptr))
    return "no-reply";
  if (!V.getBool("ok", false))
    return "error-reply";
  S.Hit = V.getBool("hit", false);
  S.Coalesced = V.getBool("coalesced", false);
  if (V.getString("legality") != "legal" ||
      !V.getBool("parallel_ready", false))
    return "wrong-verdict";
  if ((K == Kind::Hot || K == Kind::Run) && !S.Hit)
    return "primed-key-missed";
  if (K == Kind::Run) {
    S.RunMs = V.get("run_ms").asNumber();
    if (V.getString("checksum") != hex64(WantSum))
      return "wrong-output";
  }
  return "";
}

} // namespace

Result runServiceMix(const RunConfig &Cfg) {
  Result R;
  R.Workload = "service_mix";
  const unsigned Clients = Cfg.Machine.Nproc;
  const std::string Path =
      Cfg.WorkDir + "/svc-" + std::to_string(::getpid()) + ".sock";

  std::vector<uint64_t> RunSums;
  for (const Key &K : RunKeys)
    RunSums.push_back(referenceRunChecksum(K.N));

  // Several set-ups (core construction, server start, priming the hot and
  // run keys); setup_s is their median, the last service is measured.
  std::vector<double> SetupS;
  std::unique_ptr<Service> Svc;
  for (int I = 0; I < 7; ++I) {
    Svc.reset();
    Span S("setup");
    auto T0 = Clock::now();
    {
      Span St("service.start");
      Svc = std::make_unique<Service>(Path, Clients);
    }
    Span P("service.prime");
    Client C(Path);
    for (const std::vector<Key> *Set : {&HotKeys, &RunKeys})
      for (const Key &K : *Set) {
        JsonValue V;
        if (!parseJson(C.request(K.line("compile")), V, nullptr) ||
            !V.getBool("ok", false))
          refuse("priming " + K.Bench + " failed");
      }
    SetupS.push_back(msSince(T0, "setup") * 1e-3);
  }

  const std::vector<Key> Pool = coldPool(Cfg.Seed);
  // Three cold slots a second: the seeded pool lasts 40 s, the run length
  // BENCHMARK.json sets; a longer run sees no cold compiles after that.
  const double SlotS = 1.0 / 3.0;
  std::atomic<std::size_t> NextCold{0};
  std::atomic<int64_t> NewestCold{-1};
  std::atomic<bool> Injected{false};
  const auto Start = Clock::now();
  const auto Deadline = Start + std::chrono::duration<double>(Cfg.Seconds);
  std::vector<std::vector<Sample>> PerClient(Clients);
  std::vector<std::map<std::string, uint64_t>> Failures(Clients);

  auto ClientLoop = [&](unsigned Id) {
    Span M("measure");
    Client C(Path);
    std::mt19937_64 Rng(Cfg.Seed * 1000003u + Id);
    std::uniform_real_distribution<double> U(0.0, 1.0);
    while (Clock::now() < Deadline) {
      Sample S;
      const Key *K = nullptr;
      uint64_t WantSum = 0;
      // A due cold slot wins; otherwise the seeded draw picks the kind.
      std::size_t Slot = NextCold.load();
      double Due = SlotS * static_cast<double>(Slot);
      if (Slot < Pool.size() &&
          std::chrono::duration<double>(Clock::now() - Start).count() >=
              Due &&
          NextCold.compare_exchange_strong(Slot, Slot + 1)) {
        S.K = Kind::Cold;
        K = &Pool[Slot];
        NewestCold.store(static_cast<int64_t>(Slot));
      } else {
        double Draw = U(Rng);
        int64_t Newest = NewestCold.load();
        if (Draw < 0.2) {
          S.K = Kind::Run;
          std::size_t Pick = Rng() % RunKeys.size();
          K = &RunKeys[Pick];
          WantSum = RunSums[Pick];
          S.Flops = 2.0 * static_cast<double>(K->N * K->N * K->N);
        } else if (Draw < 0.23 && Newest >= 0) {
          S.K = Kind::Newest;
          K = &Pool[static_cast<std::size_t>(Newest)];
        } else {
          S.K = Kind::Hot;
          K = &HotKeys[Rng() % HotKeys.size()];
        }
      }
      std::string Reply;
      auto T0 = Clock::now();
      {
        Span Req("service.request");
        Reply = C.request(K->line(S.K == Kind::Run ? "run" : "compile"));
      }
      S.Ms = msSince(T0, "request");
      if (Cfg.InjectWrongOutput && S.K == Kind::Run && !Injected.exchange(true))
        WantSum ^= 1;
      std::string Why = checkReply(Reply, S.K, WantSum, S);
      if (!Why.empty())
        ++Failures[Id][Why];
      PerClient[Id].push_back(S);
    }
  };
  const double Cpu0 = processCpuSeconds();
  std::vector<std::thread> Threads;
  for (unsigned Id = 0; Id < Clients; ++Id)
    Threads.emplace_back(ClientLoop, Id);
  for (std::thread &T : Threads)
    T.join();
  const double WindowS = msSince(Start, "window") * 1e-3;
  const double CpuS = checkedDuration(processCpuSeconds() - Cpu0, "cpu time");

  std::vector<double> All, Runs, Hits, Misses, InterpMflops;
  double RunFlops = 0, RunLatS = 0;
  for (unsigned Id = 0; Id < Clients; ++Id) {
    for (const Sample &S : PerClient[Id]) {
      All.push_back(S.Ms);
      if (S.K == Kind::Run) {
        Runs.push_back(S.Ms);
        RunFlops += S.Flops;
        RunLatS += S.Ms * 1e-3;
        if (S.RunMs > 0)
          InterpMflops.push_back(S.Flops / (S.RunMs * 1e-3) * 1e-6);
      }
      if (S.Hit && !S.Coalesced && S.K != Kind::Run)
        Hits.push_back(S.Ms * 1e3);
      if (!S.Hit)
        Misses.push_back(S.Ms);
    }
    for (const auto &[Why, Count] : Failures[Id])
      R.fail(Why, Count);
  }
  R.Attempted = All.size();

  Summary Setup = summarize(SetupS, "setup_s");
  Summary Req = summarize(All, "req_ms");
  Summary Run = summarize(Runs, "run_req_ms");
  R.timing("setup_s", Setup);
  R.timing("req_ms", Req);
  R.timing("run_req_ms", Run);
  R.timing("hit_us", summarize(Hits, "hit_us"));
  R.timing("miss_ms", summarize(Misses, "miss_ms"));
  if (R.Attempted == 0 || Runs.empty())
    refuse("the closed loop completed no requests");

  if (!Cfg.Trace) {
    R.metric("setup_s", Setup.Median, "s");
    R.metric("gflops", RunFlops / WindowS * 1e-9, "GFlop/s");
    R.metric("gflops_1t", RunFlops / RunLatS * 1e-9, "GFlop/s");
    R.metric("run_ms_p90", Run.P90, "ms");
    R.metric("req_ms_p50", Req.Median, "ms");
    R.metric("req_ms_p90", Req.P90, "ms");
    R.metric("req_per_s", static_cast<double>(R.Attempted) / WindowS, "1/s");
    R.metric("success_frac",
             1.0 - static_cast<double>(R.Failed) /
                       static_cast<double>(R.Attempted),
             "frac");
    R.metric("peak_rss_mb", peakRssMb(), "MiB");
    return R;
  }

  ServiceStats SS = Svc->Core->stats();
  double Lookups = static_cast<double>(SS.Cache.Hits + SS.Cache.Misses);
  R.metric("service.hit_ratio",
           Lookups > 0 ? static_cast<double>(SS.Cache.Hits) / Lookups : 0,
           "frac");
  R.metric("service.hit_us_p50", summarize(Hits, "hit_us").Median, "us");
  R.metric("service.miss_ms_p50", summarize(Misses, "miss_ms").Median, "ms");
  R.metric("service.coalesced", static_cast<double>(SS.Cache.Coalesced),
           "count");
  R.metric("service.solver_saved", static_cast<double>(SS.SolverCallsSaved),
           "count");
  R.metric("interp.mflops", summarize(InterpMflops, "interp").Median,
           "MFlop/s");
  R.metric("parallel.efficiency", CpuS / (Clients * WindowS), "frac");
  R.metric("parallel.cpu_ms", CpuS * 1e3 / static_cast<double>(R.Attempted),
           "ms");
  // The service runs 1-thread interpreted plans: no steals, and the native
  // tier that counts interpreter segments and oracle reruns is off.
  R.metric("parallel.steals", 0.0, "count");
  R.metric("parallel.interp_segments", 0.0, "count");
  R.metric("parallel.oracle_reruns", 0.0, "count");
  {
    // The native tier on the largest run key's plan, as the service builds
    // it: what a native `run` would compile and call.
    const Key &K = RunKeys.back();
    RegistryConfig C(K.Bench, K.Config, K.Block, K.N);
    ParallelPlan Plan = ParallelPlan::build(*C.Prog, C.Chain, {C.N});
    std::shared_ptr<NativeModule> Mod = compileNative(Plan, Cfg.Machine.Simd);
    ProgramInstance Init(*C.Prog, {C.N});
    Init.fillRandom(1, 0.5, 1.5);
    probeNative(R, Plan, *Mod, Init);
  }
  probeKernels(R, Cfg.Machine.Simd, 1024);
  // The plan layers a cold compile runs, probed on one representative key
  // of each cold program (flat task level, as the service builds them) and
  // summed: one cold cycle.
  PlanLayers Sum;
  for (const Key &K : std::vector<Key>{{"adi", "fused", 1, 64},
                                       {"cholesky-right", "product-rw", 16,
                                        128},
                                       {"matmul", "c", 16, 128}}) {
    RegistryConfig C(K.Bench, K.Config, K.Block, K.N);
    PlanLayers L =
        probePlanLayers(C, static_cast<unsigned>(C.Chain.Factors.size()));
    Sum.LegalityMs += L.LegalityMs;
    Sum.LegalityQueries += L.LegalityQueries;
    Sum.ScanMs += L.ScanMs;
    Sum.PartitionMs += L.PartitionMs;
    Sum.DagMs += L.DagMs;
    Sum.DagEdges += L.DagEdges;
    Sum.CriticalPath = std::max(Sum.CriticalPath, L.CriticalPath);
  }
  addPlanLayers(R, Sum);
  finishTrace(R);
  return R;
}

} // namespace perfbench
