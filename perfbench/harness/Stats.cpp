//===- Stats.cpp - Sample summaries and the benchmark result record -------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>

namespace perfbench {

namespace {

double quantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

[[noreturn]] void negativeDuration(const std::string &What, double V) {
  std::fprintf(stderr, "error: negative duration %g for '%s'\n", V,
               What.c_str());
  std::exit(3);
}

} // namespace

Summary summarize(std::vector<double> Samples, const std::string &What) {
  Summary S;
  for (double V : Samples)
    if (V < 0.0)
      negativeDuration(What, V);
  std::sort(Samples.begin(), Samples.end());
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  S.Median = quantile(Samples, 0.5);
  S.Q1 = quantile(Samples, 0.25);
  S.Q3 = quantile(Samples, 0.75);
  S.P90 = quantile(Samples, 0.9);
  S.Min = Samples.front();
  S.Max = Samples.back();
  S.BeyondP90 = static_cast<std::size_t>(
      Samples.end() - std::upper_bound(Samples.begin(), Samples.end(), S.P90));
  return S;
}

double checkedDuration(double Seconds, const char *What) {
  if (Seconds < 0.0)
    negativeDuration(What, Seconds);
  return Seconds;
}

double msSince(std::chrono::steady_clock::time_point T0, const char *What) {
  return checkedDuration(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - T0)
                             .count(),
                         What) *
         1e3;
}

double median(std::vector<double> Samples, const char *What) {
  return summarize(std::move(Samples), What).Median;
}

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::timing(const std::string &Name, const Summary &S) {
  Timings.push_back({Name, S});
}

void Result::fail(const std::string &Reason, uint64_t Count) {
  FailureReasons[Reason] += Count;
  Failed += Count;
}

} // namespace perfbench
