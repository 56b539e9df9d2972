//===- Trace.h - In-memory spans around the benchmark's calls -------------===//
//
// Part of the Shackle project's benchmark (perfbench/README.md).
//
// The traced run (--trace 1) wraps each call the benchmark makes into a
// layer's public functions in a Span. Spans are kept in memory, nested per
// thread (the enclosing span on the same thread is the parent), and written
// once at exit as Chrome trace-event JSON (format in README.md). With
// tracing off a Span reads no clock and records nothing.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint32_t Tid = 0;    ///< Small per-thread index, 0 = main thread.
  int64_t StartNs = 0, EndNs = 0;
  double ms() const { return static_cast<double>(EndNs - StartNs) * 1e-6; }
};

void setTracing(bool On);
bool tracing();
/// Wall time in ms since tracing was last switched on.
double tracedWallMs();

/// One timed interval; records itself on destruction when tracing is on.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Id = 0, Parent = 0;
  int64_t StartNs = 0;
};

/// Drops every recorded span (between workloads of one process).
void clearSpans();

/// Every span recorded so far (a copy, safe to inspect while recording).
std::vector<SpanRecord> spans();

/// Durations in ms of every span named \p Name.
std::vector<double> spanMs(const std::string &Name);

/// Share of the summed duration of spans named \p Name that none of their
/// direct children covers (children on one thread never overlap). 0 when no
/// such span exists.
double uncoveredShare(const std::string &Name);

/// Cost of recording one span, in ns: the median of timed batches of empty
/// spans. Multiplied by the span count it gives the tracing overhead.
double spanCostNs();

/// Writes every span as Chrome trace-event JSON to \p Path.
bool writeTrace(const std::string &Path, std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
