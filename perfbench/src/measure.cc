#include "measure.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

int64_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double BlockedQuantile(const std::vector<double>& values, double q,
                       size_t block, double across, size_t* blocks_used) {
  const size_t blocks = values.size() / std::max<size_t>(1, block);
  *blocks_used = blocks < 4 ? 1 : blocks;
  if (blocks < 4) return Quantile(values, q);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(
                                            b * values.size() / blocks);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>(
                                          (b + 1) * values.size() / blocks);
    per_block.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Quantile(per_block, across);
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t tick) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.tick = tick;
  spans_.push_back(std::move(span));
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %lld, \"tick\": %lld}\n",
                 span.name.c_str(), span.start_us, span.end_us,
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.tick));
  }
  return std::fclose(out) == 0;
}

std::vector<double> SpanRecorder::Durations(const std::string& name,
                                            int64_t first_tick) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (span.name == name && span.tick >= first_tick) {
      durations.push_back(span.end_us - span.start_us);
    }
  }
  return durations;
}

}  // namespace perfbench
