//===- Stats.h - Sample summaries and the benchmark result record ---------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median, quartiles, p90 and range of one timing's samples. Quantiles use
/// linear interpolation between order statistics.
struct Summary {
  std::size_t N = 0;
  double Median = 0, Q1 = 0, Q3 = 0, P90 = 0, Min = 0, Max = 0;
  /// Samples strictly above P90; a run of the BENCHMARK.json length leaves
  /// at least 10 beyond every reported p90.
  std::size_t BeyondP90 = 0;
};

/// Summarizes \p Samples. A negative sample is a broken clock or a broken
/// harness, never a measurement: it aborts the benchmark (exit 3).
Summary summarize(std::vector<double> Samples, const std::string &What);

/// Aborts (exit 3) on a negative duration; returns \p Seconds otherwise.
double checkedDuration(double Seconds, const char *What);

/// Milliseconds since \p T0 on the steady clock, checked non-negative.
double msSince(std::chrono::steady_clock::time_point T0, const char *What);

/// Median of \p Samples (negative samples abort, as in summarize).
double median(std::vector<double> Samples, const char *What);

/// Process CPU time (user + system) in seconds, from getrusage.
double processCpuSeconds();
/// Peak resident set size of the process in MiB, from getrusage.
double peakRssMb();

/// Everything one workload reports: the contract's result line plus the
/// timing summaries and counters written beside it.
struct Result {
  std::string Workload;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Metric name -> (value, unit), in insertion order of names.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Timing name -> summary (unit in the name's suffix: _ms, _s, _us).
  std::vector<std::pair<std::string, Summary>> Timings;
  /// Failure reason -> count (wrong output, Failed, poisoned block, ...).
  std::map<std::string, uint64_t> FailureReasons;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  void timing(const std::string &Name, const Summary &S);
  /// Counts \p Count failed operations for \p Reason.
  void fail(const std::string &Reason, uint64_t Count = 1);
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
