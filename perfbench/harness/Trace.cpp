//===- Trace.cpp - In-memory spans around the benchmark's calls -----------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Stats.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextTid{0};
std::atomic<int64_t> EnabledAtNs{0};

std::mutex RecordsM;
std::vector<SpanRecord> Records; // Guarded by RecordsM.

thread_local uint64_t CurrentSpan = 0;
thread_local uint32_t ThreadIndex = NextTid.fetch_add(1);

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping for span names (ASCII identifiers here).
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

void setTracing(bool On) {
  if (On && !tracing())
    EnabledAtNs.store(nowNs());
  Enabled.store(On, std::memory_order_relaxed);
}
bool tracing() { return Enabled.load(std::memory_order_relaxed); }

double tracedWallMs() {
  return static_cast<double>(nowNs() - EnabledAtNs.load()) * 1e-6;
}

Span::Span(const char *N) : Name(N) {
  if (!tracing())
    return;
  Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Parent = CurrentSpan;
  CurrentSpan = Id;
  StartNs = nowNs();
}

Span::~Span() {
  if (Id == 0)
    return;
  int64_t EndNs = nowNs();
  CurrentSpan = Parent;
  std::lock_guard<std::mutex> Lock(RecordsM);
  Records.push_back({Name, Id, Parent, ThreadIndex, StartNs, EndNs});
}

void clearSpans() {
  std::lock_guard<std::mutex> Lock(RecordsM);
  Records.clear();
}

std::vector<SpanRecord> spans() {
  std::lock_guard<std::mutex> Lock(RecordsM);
  return Records;
}

std::vector<double> spanMs(const std::string &Name) {
  std::vector<double> Out;
  for (const SpanRecord &R : spans())
    if (R.Name == Name)
      Out.push_back(R.ms());
  return Out;
}

double uncoveredShare(const std::string &Name) {
  std::vector<SpanRecord> All = spans();
  std::map<uint64_t, double> ChildMs;
  for (const SpanRecord &R : All)
    if (R.Parent != 0)
      ChildMs[R.Parent] += R.ms();
  double Total = 0, Uncovered = 0;
  for (const SpanRecord &R : All) {
    if (R.Name != Name)
      continue;
    Total += R.ms();
    Uncovered += R.ms() - ChildMs[R.Id];
  }
  return Total > 0 ? Uncovered / Total : 0.0;
}

double spanCostNs() {
  // Calibrate into a scratch record list so the probe spans do not count.
  std::vector<SpanRecord> Saved;
  {
    std::lock_guard<std::mutex> Lock(RecordsM);
    Saved.swap(Records);
  }
  bool Was = tracing();
  setTracing(true);
  constexpr int Batch = 2000;
  std::vector<double> PerSpan;
  for (int Rep = 0; Rep < 9; ++Rep) {
    int64_t T0 = nowNs();
    for (int I = 0; I < Batch; ++I)
      Span S("trace.calibrate");
    int64_t T1 = nowNs();
    PerSpan.push_back(static_cast<double>(T1 - T0) / Batch);
    std::lock_guard<std::mutex> Lock(RecordsM);
    Records.clear();
  }
  setTracing(Was);
  {
    std::lock_guard<std::mutex> Lock(RecordsM);
    Records.swap(Saved);
  }
  return summarize(PerSpan, "trace.calibrate").Median;
}

bool writeTrace(const std::string &Path, std::string &Err) {
  std::vector<SpanRecord> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Err = "cannot open " + Path;
    return false;
  }
  int64_t Origin = All.empty() ? 0 : All.front().StartNs;
  for (const SpanRecord &R : All)
    Origin = std::min(Origin, R.StartNs);
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t I = 0; I < All.size(); ++I) {
    const SpanRecord &R = All[I];
    std::fprintf(F,
                 "%s\n{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 I ? "," : "", quoted(R.Name).c_str(), R.Tid,
                 static_cast<double>(R.StartNs - Origin) * 1e-3,
                 static_cast<double>(R.EndNs - R.StartNs) * 1e-3,
                 static_cast<unsigned long long>(R.Id),
                 static_cast<unsigned long long>(R.Parent));
  }
  std::fprintf(F, "\n]}\n");
  if (std::fclose(F) != 0) {
    Err = "write failed for " + Path;
    return false;
  }
  return true;
}

} // namespace perfbench
