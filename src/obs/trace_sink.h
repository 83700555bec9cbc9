#ifndef DKF_OBS_TRACE_SINK_H_
#define DKF_OBS_TRACE_SINK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace dkf {

/// Largest ring_capacity ShardedStreamEngine::EnableTracing accepts.
/// A sink allocates its whole ring up front (~40 bytes per event), so
/// this bounds one sink at ~40 MB: 4x the largest ring any caller in
/// this repository sizes (1 << 18), and small enough that a hostile
/// snapshot cannot make a restore allocate gigabytes.
inline constexpr size_t kMaxTraceRingCapacity = size_t{1} << 20;

/// Sink configuration.
struct ObsOptions {
  /// Capacity of the event ring buffer. When a run emits more events
  /// than this, the oldest are overwritten (counted in dropped_events);
  /// the per-kind counters stay exact regardless. Shard-invariance tests
  /// must size this above the run's total event count — a wrapped ring
  /// keeps a different window per shard layout.
  size_t ring_capacity = 1 << 16;

  /// Record wall-clock timings (per-tick latency histograms, resync
  /// episode durations in wall time). Off by default because timings are
  /// nondeterministic and would break snapshot bit-equality across runs;
  /// benches turn it on via --trace.
  bool record_timing = false;
};

/// The hot-path event recorder: one per engine shard, written
/// only by the thread driving that component's tick (the same contract as
/// every other per-shard object — see runtime/shard.h), read between
/// ticks.
///
/// Emit is an array increment plus a ring-slot write — no strings, no
/// locks, no allocation after construction. Components hold a nullable
/// TraceSink* and emit through the DKF_TRACE macro below, so an unwired
/// component pays one branch and a DKF_OBS=OFF build pays nothing.
class TraceSink {
 public:
  explicit TraceSink(const ObsOptions& options = ObsOptions());

  const ObsOptions& options() const { return options_; }

  void Emit(int64_t step, int32_t source_id, TraceEventKind kind,
            TraceActor actor, double value = 0.0, double aux = 0.0,
            int64_t detail = 0) {
#if DKF_OBS_ENABLED
    ++kind_counts_[static_cast<size_t>(kind)];
    TraceEvent& slot = ring_[next_];
    slot.step = step;
    slot.source_id = source_id;
    slot.kind = kind;
    slot.actor = actor;
    slot.value = value;
    slot.aux = aux;
    slot.detail = detail;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
#else
    (void)step, (void)source_id, (void)kind, (void)actor;
    (void)value, (void)aux, (void)detail;
#endif
  }

  /// Total emissions of one kind (exact even when the ring wrapped).
  int64_t count(TraceEventKind kind) const {
    return kind_counts_[static_cast<size_t>(kind)];
  }

  /// Events currently retained, oldest first.
  std::vector<TraceEvent> Events() const;

  /// Events overwritten because the ring wrapped.
  int64_t dropped_events() const { return dropped_; }

  /// Number of retained events.
  size_t size() const { return size_; }

  /// Sets a named gauge (sampled component state like queue depth). Off
  /// the per-event hot path — called at most once per tick.
  void SetGauge(const std::string& name, double value);

  /// Records one tick's wall-clock latency. No-op unless
  /// options().record_timing (timings are nondeterministic).
  void RecordTickLatencyNs(double nanoseconds);

  /// Folds this sink's state into `registry`: every kind count as counter
  /// "trace.<kind>", ring overflow as "trace.dropped_events", gauges
  /// added (additive across shards), histograms merged, plus the derived
  /// gauge "suppression_ratio" = suppress / (suppress + transmit)
  /// recomputed on the merged counters.
  void SnapshotInto(MetricsRegistry* registry) const;

  /// Convenience: a fresh registry holding only this sink's snapshot.
  MetricsRegistry Snapshot() const;

  /// Clears events, counts, gauges, and histograms (options stay).
  void Reset();

  /// Current gauge values (for checkpointing; the hot path never reads
  /// them).
  const std::map<std::string, double>& gauges() const { return gauges_; }

  /// Overwrites this sink with checkpointed observability state: `events`
  /// fill the ring oldest-first (only the newest ring_capacity are kept,
  /// the spill counted as dropped on top of `dropped`), `kind_counts`
  /// restore the exact per-kind totals, and `gauges` replace the gauge
  /// map. Timing histograms are not restored — they are nondeterministic
  /// by design and excluded from snapshots.
  void RestoreForCheckpoint(const std::vector<TraceEvent>& events,
                            const std::array<int64_t, kNumTraceEventKinds>&
                                kind_counts,
                            int64_t dropped,
                            const std::map<std::string, double>& gauges);

 private:
  ObsOptions options_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;
  size_t size_ = 0;
  int64_t dropped_ = 0;
  std::array<int64_t, kNumTraceEventKinds> kind_counts_{};
  std::map<std::string, double> gauges_;
  HistogramSnapshot tick_latency_;
};

/// Recomputes the derived gauges ("suppression_ratio",
/// "degraded_tick_rate") from the registry's own counters. Idempotent;
/// callers merging several snapshots re-derive on the merged counters.
void DeriveRates(MetricsRegistry* registry);

// Emission macro for instrumented components: one pointer test when the
// observability layer is compiled in, nothing at all when it is not
// (arguments are not evaluated).
#if DKF_OBS_ENABLED
#define DKF_TRACE(sink, ...)                           \
  do {                                                 \
    if ((sink) != nullptr) (sink)->Emit(__VA_ARGS__);  \
  } while (0)
#else
#define DKF_TRACE(sink, ...) \
  do {                       \
    (void)(sink);            \
  } while (0)
#endif

}  // namespace dkf

#endif  // DKF_OBS_TRACE_SINK_H_
