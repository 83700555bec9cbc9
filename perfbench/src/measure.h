#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds used by the whole process / by the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Current resident set size in bytes (VmRSS).
int64_t CurrentRssBytes();

/// `q` in [0, 1] by the nearest-rank rule over a copy of `values`
/// (0 for an empty input).
double Quantile(std::vector<double> values, double q);

/// The middle value, or the mean of the two middle values (0 when empty).
double Median(std::vector<double> values);

/// A tail estimate that scheduler stalls cannot move: the window is cut
/// into consecutive blocks of at least `block` samples, and the result is
/// the `across`-quantile of the blocks' `q`-quantiles (the plain
/// `q`-quantile when there are fewer than four blocks).
double BlockedQuantile(const std::vector<double>& values, double q,
                       size_t block, double across, size_t* blocks_used);

/// One named metric with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The span recorder of the traced run: one span per public call the
/// benchmark makes into the engine or a layer, kept in memory and
/// written as JSON lines when the run ends. Spans nest through an
/// explicit stack, so a span's parent is the span open when it began.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int64_t parent = -1;  // index of the enclosing span, -1 at the root
    int64_t tick = -1;    // engine tick the call belongs to, -1 for none
  };

  /// Spans beyond this many are counted, not stored.
  static constexpr size_t kMaxSpans = 4'000'000;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span; returns its index (or -1 when over capacity).
  int64_t Begin(const std::string& name, int64_t tick);
  void End(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

  /// Writes one JSON object per span: name, start_us, end_us, parent,
  /// tick. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

  /// Durations (us) of the spans with this name whose tick is at least
  /// `first_tick`, in recording order.
  std::vector<double> Durations(const std::string& name,
                                int64_t first_tick = -1) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  int64_t dropped_ = 0;
};

/// RAII span: no-op when `recorder` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             int64_t tick = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, tick) : -1) {}
  ~ScopedSpan() { End(); }

  /// Closes the span early; later calls (and the destructor) do nothing.
  void End() {
    if (recorder_ != nullptr && index_ >= 0) recorder_->End(index_);
    index_ = -1;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
