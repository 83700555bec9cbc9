#include "checkpoint/snapshot_io.h"

#include <cmath>
#include <concepts>
#include <cstring>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/string_util.h"
#include "core/synopsis_io.h"

namespace dkf {

namespace {

constexpr size_t kMagicBytes = 8;

// Each wire struct's field sequence is written exactly once, as a
// Walk(io, s) template run over one of two adapters exposing the same
// primitives: SnapshotWriter appends the fields of a const struct,
// SnapshotReader fills a default-constructed one. Checks that belong
// to one direction only test IO::kDecoding.

/// Encode-side adapter over BinaryWriter. Never fails on its own; its
/// primitives return Status so a walk reads identically either way.
class SnapshotWriter {
 public:
  static constexpr bool kDecoding = false;

  explicit SnapshotWriter(BinaryWriter& out) : out_(out) {}

  Status U8(uint8_t value) {
    out_.WriteU8(value);
    return Status::OK();
  }
  Status U32(uint32_t value) {
    out_.WriteU32(value);
    return Status::OK();
  }
  template <class T>
  Status U64(T value) {
    out_.WriteU64(static_cast<uint64_t>(value));
    return Status::OK();
  }
  template <class T>
  Status I64(T value) {
    out_.WriteI64(static_cast<int64_t>(value));
    return Status::OK();
  }
  /// An i64 on the wire that the decoder range-checks into 32 bits.
  template <class T>
  Status I32(T value, const char* /*what*/) {
    return I64(value);
  }
  Status F64(double value) {
    out_.WriteF64(value);
    return Status::OK();
  }
  Status Bool(bool value) {
    out_.WriteBool(value);
    return Status::OK();
  }
  Status String(const std::string& value) {
    out_.WriteString(value);
    return Status::OK();
  }
  Status Vec(const Vector& v) {
    out_.WriteU64(v.size());
    for (size_t i = 0; i < v.size(); ++i) out_.WriteF64(v[i]);
    return Status::OK();
  }
  Status Mat(const Matrix& m) {
    out_.WriteU64(m.rows());
    out_.WriteU64(m.cols());
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) out_.WriteF64(m(r, c));
    }
    return Status::OK();
  }
  /// A u8 enumerator; `count` bounds it on decode.
  template <class E>
  Status Enum(E value, uint8_t /*count*/, const char* /*what*/) {
    return U8(static_cast<uint8_t>(value));
  }
  /// A u64 count, then `each` on every element.
  template <class T, class F>
  Status Seq(const std::vector<T>& items, size_t /*elem_bytes*/,
             const char* /*what*/, F each) {
    out_.WriteU64(items.size());
    for (const T& item : items) DKF_RETURN_IF_ERROR(each(item));
    return Status::OK();
  }
  template <class K, class V, class F>
  Status Seq(const std::map<K, V>& items, size_t /*elem_bytes*/,
             const char* /*what*/, F each) {
    out_.WriteU64(items.size());
    for (const auto& [key, value] : items) {
      DKF_RETURN_IF_ERROR(each(key, value));
    }
    return Status::OK();
  }
  /// One count for two parallel vectors of equal length; `each` walks
  /// element i of both. The caller checks the lengths agree.
  template <class A, class B, class F>
  Status ParallelSeq(const std::vector<A>& a, const std::vector<B>& b,
                     size_t /*elem_bytes*/, const char* /*what*/, F each) {
    out_.WriteU64(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
      DKF_RETURN_IF_ERROR(each(a[i], b[i]));
    }
    return Status::OK();
  }
  /// A presence flag, then `each` on the value when present.
  template <class T, class F>
  Status Optional(const std::optional<T>& value, F each) {
    out_.WriteBool(value.has_value());
    return value.has_value() ? each(*value) : Status::OK();
  }
  /// Decode-side ordering check; the encoder writes whatever it is given.
  template <class T>
  Status Ascending(T /*id*/, T& /*previous*/, const char* /*message*/) {
    return Status::OK();
  }

 private:
  BinaryWriter& out_;
};

/// Decode-side adapter over BinaryReader: every primitive is bounds-
/// checked, every count is guarded against the bytes left before it
/// allocates, every narrowed integer and enumerator is range-checked.
class SnapshotReader {
 public:
  static constexpr bool kDecoding = true;

  explicit SnapshotReader(BinaryReader& in) : in_(in) {}

  Status U8(uint8_t& value) { return Assign(value, in_.ReadU8()); }
  Status U32(uint32_t& value) { return Assign(value, in_.ReadU32()); }
  template <class T>
  Status U64(T& value) {
    return Assign(value, in_.ReadU64());
  }
  template <class T>
  Status I64(T& value) {
    return Assign(value, in_.ReadI64());
  }
  template <class T>
  Status I32(T& value, const char* what) {
    DKF_ASSIGN_OR_RETURN(int64_t wide, in_.ReadI64());
    if (wide < INT32_MIN || wide > INT32_MAX) {
      return Status::InvalidArgument(
          StrFormat("snapshot field %s out of 32-bit range", what));
    }
    value = static_cast<T>(wide);
    return Status::OK();
  }
  Status F64(double& value) { return Assign(value, in_.ReadF64()); }
  Status Bool(bool& value) { return Assign(value, in_.ReadBool()); }
  Status String(std::string& value) { return Assign(value, in_.ReadString()); }
  Status Vec(Vector& v) {
    DKF_ASSIGN_OR_RETURN(uint64_t size, ReadCount(8, "vector"));
    v = Vector(static_cast<size_t>(size));
    for (size_t i = 0; i < v.size(); ++i) {
      DKF_ASSIGN_OR_RETURN(v[i], in_.ReadF64());
    }
    return Status::OK();
  }
  Status Mat(Matrix& m) {
    DKF_ASSIGN_OR_RETURN(uint64_t rows, in_.ReadU64());
    DKF_ASSIGN_OR_RETURN(uint64_t cols, in_.ReadU64());
    DKF_RETURN_IF_ERROR(CheckCount(rows, 8, "matrix rows"));
    // rows * 8 <= remaining here, so the per-column stride cannot
    // overflow (and rows * cols below cannot either).
    if (rows > 0) {
      DKF_RETURN_IF_ERROR(CheckCount(cols, 8 * rows, "matrix cells"));
    }
    m = Matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        DKF_ASSIGN_OR_RETURN(m(r, c), in_.ReadF64());
      }
    }
    return Status::OK();
  }
  template <class E>
  Status Enum(E& value, uint8_t count, const char* what) {
    DKF_ASSIGN_OR_RETURN(uint8_t raw, in_.ReadU8());
    if (raw >= count) {
      return Status::InvalidArgument(
          StrFormat("invalid %s %u in snapshot", what, raw));
    }
    value = static_cast<E>(raw);
    return Status::OK();
  }
  template <class T, class F>
  Status Seq(std::vector<T>& items, size_t elem_bytes, const char* what,
             F each) {
    DKF_ASSIGN_OR_RETURN(uint64_t count, ReadCount(elem_bytes, what));
    items.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      T item;
      DKF_RETURN_IF_ERROR(each(item));
      items.push_back(std::move(item));
    }
    return Status::OK();
  }
  template <class K, class V, class F>
  Status Seq(std::map<K, V>& items, size_t elem_bytes, const char* what,
             F each) {
    DKF_ASSIGN_OR_RETURN(uint64_t count, ReadCount(elem_bytes, what));
    for (uint64_t i = 0; i < count; ++i) {
      K key;
      V value;
      DKF_RETURN_IF_ERROR(each(key, value));
      items[std::move(key)] = std::move(value);
    }
    return Status::OK();
  }
  template <class A, class B, class F>
  Status ParallelSeq(std::vector<A>& a, std::vector<B>& b, size_t elem_bytes,
                     const char* what, F each) {
    DKF_ASSIGN_OR_RETURN(uint64_t count, ReadCount(elem_bytes, what));
    a.reserve(static_cast<size_t>(count));
    b.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      A item_a;
      B item_b;
      DKF_RETURN_IF_ERROR(each(item_a, item_b));
      a.push_back(std::move(item_a));
      b.push_back(std::move(item_b));
    }
    return Status::OK();
  }
  template <class T, class F>
  Status Optional(std::optional<T>& value, F each) {
    DKF_ASSIGN_OR_RETURN(bool present, in_.ReadBool());
    if (!present) return Status::OK();
    T inner;
    DKF_RETURN_IF_ERROR(each(inner));
    value = std::move(inner);
    return Status::OK();
  }
  template <class T>
  Status Ascending(T id, T& previous, const char* message) {
    if (id <= previous) return Status::InvalidArgument(message);
    previous = id;
    return Status::OK();
  }

 private:
  template <class T, class R>
  static Status Assign(T& out, Result<R> result) {
    if (!result.ok()) return result.status();
    out = static_cast<T>(std::move(result).value());
    return Status::OK();
  }

  /// Guards a decoded element count against the bytes actually left, so
  /// a corrupted count fails cleanly instead of attempting a huge
  /// allocation.
  Status CheckCount(uint64_t count, size_t elem_bytes, const char* what) {
    const size_t divisor = elem_bytes == 0 ? 1 : elem_bytes;
    if (count > in_.remaining() / divisor) {
      return Status::OutOfRange(StrFormat(
          "truncated snapshot: %s count %llu exceeds the remaining payload",
          what, static_cast<unsigned long long>(count)));
    }
    return Status::OK();
  }

  Result<uint64_t> ReadCount(size_t elem_bytes, const char* what) {
    DKF_ASSIGN_OR_RETURN(uint64_t count, in_.ReadU64());
    DKF_RETURN_IF_ERROR(CheckCount(count, elem_bytes, what));
    return count;
  }

  BinaryReader& in_;
};

/// `S` is T or const T: a walk takes the const struct when encoding.
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

/// The finiteness contract for a serialized model recipe, applied on
/// both paths (same rule as the synopsis codec).
Status RequireFiniteModel(const StateModel& model) {
  DKF_RETURN_IF_ERROR(RequireFinite(model.options.transition, "transition"));
  DKF_RETURN_IF_ERROR(RequireFinite(model.options.measurement, "measurement"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.process_noise, "process_noise"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.measurement_noise, "measurement_noise"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.initial_state, "initial_state"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.initial_covariance, "initial_covariance"));
  return Status::OK();
}

template <class IO, Of<Rng::State> S>
Status Walk(IO& io, S& state) {
  for (auto& word : state.words) DKF_RETURN_IF_ERROR(io.U64(word));
  DKF_RETURN_IF_ERROR(io.Bool(state.has_cached_gaussian));
  return io.F64(state.cached_gaussian);
}

template <class IO, Of<ProtocolFaultStats> S>
Status Walk(IO& io, S& s) {
  for (auto* field :
       {&s.divergence_events, &s.resyncs_sent, &s.heartbeats_sent,
        &s.ambiguous_acks, &s.ticks_diverged, &s.max_recovery_ticks,
        &s.resyncs_applied, &s.heartbeats_received, &s.rejected_stale,
        &s.rejected_corrupt, &s.sequence_gaps, &s.degraded_ticks}) {
    DKF_RETURN_IF_ERROR(io.I64(*field));
  }
  return Status::OK();
}

template <class IO, Of<ChannelStats> S>
Status Walk(IO& io, S& s) {
  for (auto* field : {&s.messages, &s.bytes, &s.dropped, &s.corrupted,
                      &s.delayed, &s.ack_lost, &s.outage_dropped}) {
    DKF_RETURN_IF_ERROR(io.I64(*field));
  }
  return Status::OK();
}

template <class IO, Of<KalmanFilter::FullState> S>
Status Walk(IO& io, S& f) {
  DKF_RETURN_IF_ERROR(io.Vec(f.x));
  DKF_RETURN_IF_ERROR(io.Mat(f.p));
  DKF_RETURN_IF_ERROR(io.I64(f.step));
  DKF_RETURN_IF_ERROR(io.Vec(f.last_innovation));
  DKF_RETURN_IF_ERROR(io.Mat(f.process_noise));
  DKF_RETURN_IF_ERROR(io.Mat(f.measurement_noise));
  DKF_RETURN_IF_ERROR(io.U8(f.phase));
  DKF_RETURN_IF_ERROR(io.U8(f.ss_mode));
  DKF_RETURN_IF_ERROR(io.I32(f.ss_streak1, "ss_streak1"));
  DKF_RETURN_IF_ERROR(io.I32(f.ss_streak2, "ss_streak2"));
  DKF_RETURN_IF_ERROR(io.I64(f.predicts_since_correct));
  DKF_RETURN_IF_ERROR(io.I32(f.ss_have_prev, "ss_have_prev"));
  DKF_RETURN_IF_ERROR(io.Mat(f.ss_prev_post[0]));
  DKF_RETURN_IF_ERROR(io.Mat(f.ss_prev_post[1]));
  DKF_RETURN_IF_ERROR(io.Mat(f.ss_prev_gain));
  DKF_RETURN_IF_ERROR(io.I32(f.ss_period, "ss_period"));
  DKF_RETURN_IF_ERROR(io.I32(f.ss_pending_priors, "ss_pending_priors"));
  DKF_RETURN_IF_ERROR(io.I32(f.ss_capture_idx, "ss_capture_idx"));
  DKF_RETURN_IF_ERROR(io.I32(f.ss_idx, "ss_idx"));
  for (auto* m : {&f.ss_gain[0], &f.ss_gain[1], &f.ss_prior_p[0],
                  &f.ss_prior_p[1], &f.ss_post_p[0], &f.ss_post_p[1]}) {
    DKF_RETURN_IF_ERROR(io.Mat(*m));
  }
  return Status::OK();
}

template <class IO, Of<Message> S>
Status Walk(IO& io, S& message) {
  DKF_RETURN_IF_ERROR(
      io.Enum(message.type, static_cast<uint8_t>(MessageType::kHeartbeat) + 1,
              "message type"));
  DKF_RETURN_IF_ERROR(io.I32(message.source_id, "source_id"));
  DKF_RETURN_IF_ERROR(io.I64(message.tick));
  DKF_RETURN_IF_ERROR(io.Vec(message.payload));
  DKF_RETURN_IF_ERROR(io.U64(message.model_index));
  DKF_RETURN_IF_ERROR(io.U32(message.sequence));
  DKF_RETURN_IF_ERROR(io.U32(message.checksum));
  DKF_RETURN_IF_ERROR(io.Vec(message.resync_state));
  DKF_RETURN_IF_ERROR(io.Mat(message.resync_covariance));
  DKF_RETURN_IF_ERROR(io.I64(message.resync_step));
  return io.Vec(message.resync_adapt);
}

template <class IO, Of<StateModel> S>
Status Walk(IO& io, S& model) {
  if (!IO::kDecoding && model.options.transition_fn) {
    return Status::Unimplemented(
        "time-varying transitions are not serializable");
  }
  DKF_RETURN_IF_ERROR(io.String(model.name));
  DKF_RETURN_IF_ERROR(io.U64(model.measurement_dim));
  DKF_RETURN_IF_ERROR(io.Mat(model.options.transition));
  DKF_RETURN_IF_ERROR(io.Mat(model.options.measurement));
  DKF_RETURN_IF_ERROR(io.Mat(model.options.process_noise));
  DKF_RETURN_IF_ERROR(io.Mat(model.options.measurement_noise));
  DKF_RETURN_IF_ERROR(io.Vec(model.options.initial_state));
  DKF_RETURN_IF_ERROR(io.Mat(model.options.initial_covariance));
  DKF_RETURN_IF_ERROR(io.Bool(model.options.steady_state_fast_path));
  DKF_RETURN_IF_ERROR(io.F64(model.options.steady_state_tolerance));
  if (IO::kDecoding && !std::isfinite(model.options.steady_state_tolerance)) {
    return Status::InvalidArgument(
        "steady_state_tolerance contains a non-finite value");
  }
  return RequireFiniteModel(model);
}

template <class IO, Of<SourceNode::CheckpointState> S>
Status Walk(IO& io, S& node) {
  DKF_RETURN_IF_ERROR(io.F64(node.delta));
  DKF_RETURN_IF_ERROR(io.Optional(
      node.smoothing_factor, [&](auto& factor) { return io.F64(factor); }));
  DKF_RETURN_IF_ERROR(io.F64(node.smoothing_measurement_variance));
  DKF_RETURN_IF_ERROR(Walk(io, node.mirror));
  if (node.smoothing_factor.has_value()) {
    DKF_RETURN_IF_ERROR(Walk(io, node.smoother_filter));
    DKF_RETURN_IF_ERROR(io.I64(node.smoother_count));
  }
  DKF_RETURN_IF_ERROR(io.F64(node.energy_transmission));
  DKF_RETURN_IF_ERROR(io.F64(node.energy_compute));
  DKF_RETURN_IF_ERROR(io.F64(node.energy_sensing));
  DKF_RETURN_IF_ERROR(io.I64(node.readings));
  DKF_RETURN_IF_ERROR(io.I64(node.updates_sent));
  DKF_RETURN_IF_ERROR(io.U32(node.next_sequence));
  DKF_RETURN_IF_ERROR(io.Bool(node.pending));
  DKF_RETURN_IF_ERROR(io.I64(node.pending_since));
  DKF_RETURN_IF_ERROR(io.U32(node.first_resync_sequence));
  DKF_RETURN_IF_ERROR(io.I32(node.resync_attempts, "resync_attempts"));
  DKF_RETURN_IF_ERROR(io.I64(node.last_resync_tick));
  DKF_RETURN_IF_ERROR(io.I64(node.last_send_tick));
  DKF_RETURN_IF_ERROR(Walk(io, node.faults));
  return io.Vec(node.adapt);
}

template <class IO, Of<ServerNode::LinkSnapshot> S>
Status Walk(IO& io, S& link) {
  DKF_RETURN_IF_ERROR(io.U32(link.last_sequence));
  DKF_RETURN_IF_ERROR(io.I64(link.last_valid_tick));
  DKF_RETURN_IF_ERROR(io.I64(link.last_resync_tick));
  DKF_RETURN_IF_ERROR(io.I64(link.last_update_tick));
  DKF_RETURN_IF_ERROR(Walk(io, link.predictor));
  return io.Vec(link.adapt);
}

template <class IO, Of<Channel::SourceCheckpoint> S>
Status Walk(IO& io, S& lane) {
  DKF_RETURN_IF_ERROR(Walk(io, lane.stats));
  DKF_RETURN_IF_ERROR(io.Bool(lane.has_rng));
  if (lane.has_rng) DKF_RETURN_IF_ERROR(Walk(io, lane.rng));
  DKF_RETURN_IF_ERROR(io.Bool(lane.has_ge_state));
  if (lane.has_ge_state) DKF_RETURN_IF_ERROR(io.Bool(lane.ge_bad));
  DKF_RETURN_IF_ERROR(
      io.Seq(lane.in_flight, 8, "in-flight", [&](auto& entry) -> Status {
        DKF_RETURN_IF_ERROR(io.I64(entry.due));
        DKF_RETURN_IF_ERROR(io.Bool(entry.ack_lost));
        DKF_RETURN_IF_ERROR(io.Bool(entry.corrupted));
        return Walk(io, entry.message);
      }));
  return io.Seq(lane.deferred_acks, 4, "deferred-ack",
                [&](auto& ack) { return io.U32(ack); });
}

template <class IO, Of<FaultModel> S>
Status Walk(IO& io, S& fault) {
  DKF_RETURN_IF_ERROR(
      io.Optional(fault.gilbert_elliott, [&](auto& ge) -> Status {
        DKF_RETURN_IF_ERROR(io.F64(ge.p_good_to_bad));
        DKF_RETURN_IF_ERROR(io.F64(ge.p_bad_to_good));
        DKF_RETURN_IF_ERROR(io.F64(ge.good_loss));
        return io.F64(ge.bad_loss);
      }));
  DKF_RETURN_IF_ERROR(io.Optional(fault.delay, [&](auto& delay) -> Status {
    DKF_RETURN_IF_ERROR(io.I64(delay.min_ticks));
    return io.I64(delay.max_ticks);
  }));
  DKF_RETURN_IF_ERROR(
      io.Seq(fault.outages, 16, "outage", [&](auto& window) -> Status {
        DKF_RETURN_IF_ERROR(io.I64(window.start));
        return io.I64(window.end);
      }));
  DKF_RETURN_IF_ERROR(io.F64(fault.ack_loss_probability));
  DKF_RETURN_IF_ERROR(io.F64(fault.corruption_probability));
  return io.I64(fault.active_until);
}

template <class IO, Of<AdaptiveNoiseConfig> S>
Status Walk(IO& io, S& a) {
  DKF_RETURN_IF_ERROR(io.Bool(a.enabled));
  DKF_RETURN_IF_ERROR(io.F64(a.ratio_alpha));
  DKF_RETURN_IF_ERROR(io.F64(a.corr_alpha));
  DKF_RETURN_IF_ERROR(io.I64(a.warmup_corrections));
  for (auto* field :
       {&a.widen_threshold, &a.shrink_threshold, &a.widen_rate,
        &a.shrink_rate, &a.r_scale_floor, &a.r_scale_ceiling,
        &a.corr_q_threshold, &a.q_rate, &a.q_scale_floor, &a.q_scale_ceiling,
        &a.variance_floor}) {
    DKF_RETURN_IF_ERROR(io.F64(*field));
  }
  DKF_RETURN_IF_ERROR(io.Bool(a.quantization_floor));
  DKF_RETURN_IF_ERROR(io.I64(a.holdover_gap));
  return io.I64(a.lock_streak);
}

template <class IO, Of<TraceEvent> S>
Status Walk(IO& io, S& event) {
  DKF_RETURN_IF_ERROR(io.I64(event.step));
  DKF_RETURN_IF_ERROR(io.I32(event.source_id, "event source"));
  DKF_RETURN_IF_ERROR(
      io.Enum(event.kind, static_cast<uint8_t>(TraceEventKind::kCount),
              "trace event kind"));
  DKF_RETURN_IF_ERROR(io.Enum(
      event.actor, static_cast<uint8_t>(TraceActor::kCount), "trace actor"));
  DKF_RETURN_IF_ERROR(io.F64(event.value));
  DKF_RETURN_IF_ERROR(io.F64(event.aux));
  return io.I64(event.detail);
}

template <class IO, Of<ObsSnapshot> S>
Status Walk(IO& io, S& obs) {
  DKF_RETURN_IF_ERROR(io.Bool(obs.enabled));
  if (!obs.enabled) return Status::OK();
  DKF_RETURN_IF_ERROR(io.U64(obs.options.ring_capacity));
  DKF_RETURN_IF_ERROR(io.Bool(obs.options.record_timing));
  DKF_RETURN_IF_ERROR(io.Seq(obs.events, 34, "trace event",
                             [&](auto& event) { return Walk(io, event); }));
  uint64_t num_kinds = kNumTraceEventKinds;
  DKF_RETURN_IF_ERROR(io.U64(num_kinds));
  if (num_kinds != static_cast<uint64_t>(kNumTraceEventKinds)) {
    return Status::InvalidArgument(StrFormat(
        "snapshot has %llu trace event kinds, this build knows %d",
        static_cast<unsigned long long>(num_kinds), kNumTraceEventKinds));
  }
  for (auto& count : obs.kind_counts) DKF_RETURN_IF_ERROR(io.I64(count));
  DKF_RETURN_IF_ERROR(io.I64(obs.dropped));
  return io.Seq(obs.gauges, 16, "gauge",
                [&](auto& name, auto& value) -> Status {
                  DKF_RETURN_IF_ERROR(io.String(name));
                  return io.F64(value);
                });
}

template <class IO, Of<Subscription> S>
Status Walk(IO& io, S& spec) {
  DKF_RETURN_IF_ERROR(io.I64(spec.id));
  DKF_RETURN_IF_ERROR(
      io.Enum(spec.kind, static_cast<uint8_t>(SubscriptionKind::kCount),
              "subscription kind"));
  DKF_RETURN_IF_ERROR(io.I32(spec.source_id, "subscription source"));
  DKF_RETURN_IF_ERROR(io.I32(spec.aggregate_id, "subscription aggregate"));
  DKF_RETURN_IF_ERROR(io.F64(spec.lo));
  DKF_RETURN_IF_ERROR(io.F64(spec.hi));
  DKF_RETURN_IF_ERROR(io.F64(spec.uncertainty_ceiling));
  DKF_RETURN_IF_ERROR(io.String(spec.description));
  return io.I32(spec.group_id, "subscription group");
}

template <class IO, Of<Notification> S>
Status Walk(IO& io, S& notification) {
  DKF_RETURN_IF_ERROR(io.I64(notification.step));
  DKF_RETURN_IF_ERROR(io.I32(notification.source_id, "notification source"));
  DKF_RETURN_IF_ERROR(io.I64(notification.subscription_id));
  DKF_RETURN_IF_ERROR(
      io.Enum(notification.kind,
              static_cast<uint8_t>(NotificationKind::kCount),
              "notification kind"));
  DKF_RETURN_IF_ERROR(io.F64(notification.value));
  return io.F64(notification.aux);
}

template <class IO, Of<ServeSnapshot> S>
Status Walk(IO& io, S& serve) {
  DKF_RETURN_IF_ERROR(io.U64(serve.options.max_buffered_notifications));
  int64_t previous_sub = -1;
  DKF_RETURN_IF_ERROR(io.Seq(
      serve.subscriptions, 59, "subscription", [&](auto& sub) -> Status {
        DKF_RETURN_IF_ERROR(Walk(io, sub.spec));
        DKF_RETURN_IF_ERROR(io.Ascending(
            sub.spec.id, previous_sub,
            "snapshot subscriptions must have strictly ascending ids"));
        DKF_RETURN_IF_ERROR(io.Bool(sub.inside));
        return io.Bool(sub.fired);
      }));
  int64_t previous_step = INT64_MIN;
  DKF_RETURN_IF_ERROR(io.Seq(
      serve.pending, 16, "notification batch", [&](auto& batch) -> Status {
        DKF_RETURN_IF_ERROR(io.I64(batch.step));
        DKF_RETURN_IF_ERROR(io.Ascending(
            batch.step, previous_step,
            "snapshot notification batches must have strictly ascending "
            "steps"));
        return io.Seq(batch.notifications, 41, "notification",
                      [&](auto& n) { return Walk(io, n); });
      }));
  for (auto* counter : {&serve.drained_through_step, &serve.notifications,
                        &serve.dropped, &serve.touched, &serve.affected}) {
    DKF_RETURN_IF_ERROR(io.I64(*counter));
  }
  return Status::OK();
}

template <class IO, Of<GovernorSnapshot> S>
Status Walk(IO& io, S& governor) {
  DKF_RETURN_IF_ERROR(io.Bool(governor.enabled));
  if (!governor.enabled) return Status::OK();
  auto& g = governor.options;
  if constexpr (IO::kDecoding) g.enabled = true;
  DKF_RETURN_IF_ERROR(io.I64(g.epoch_ticks));
  for (auto* field : {&g.budget_bytes_per_tick, &g.delta_floor,
                      &g.delta_ceiling, &g.max_step_ratio, &g.dead_band,
                      &g.ewma_alpha, &g.process_noise, &g.measurement_noise}) {
    DKF_RETURN_IF_ERROR(io.F64(*field));
  }
  if constexpr (IO::kDecoding) {
    DKF_RETURN_IF_ERROR(DeltaGovernor::Validate(g));
  }
  DKF_RETURN_IF_ERROR(io.I64(governor.epochs));
  int previous_id = INT32_MIN;
  return io.Seq(
      governor.states, 66, "governor state", [&](auto& entry) -> Status {
        DKF_RETURN_IF_ERROR(io.I32(entry.source_id, "governor source id"));
        DKF_RETURN_IF_ERROR(io.Ascending(
            entry.source_id, previous_id,
            "governor states must have strictly ascending source ids"));
        auto& s = entry.state;
        DKF_RETURN_IF_ERROR(io.F64(s.ewma_bytes));
        DKF_RETURN_IF_ERROR(io.F64(s.ewma_updates));
        DKF_RETURN_IF_ERROR(io.I64(s.last_bytes));
        DKF_RETURN_IF_ERROR(io.I64(s.last_updates));
        DKF_RETURN_IF_ERROR(io.F64(s.intensity));
        DKF_RETURN_IF_ERROR(io.F64(s.variance));
        DKF_RETURN_IF_ERROR(io.Bool(s.measured));
        DKF_RETURN_IF_ERROR(io.Bool(s.frozen));
        DKF_RETURN_IF_ERROR(io.F64(s.held_delta));
        if (IO::kDecoding &&
            (!std::isfinite(s.ewma_bytes) || !std::isfinite(s.ewma_updates) ||
             !std::isfinite(s.intensity) || !std::isfinite(s.variance) ||
             !std::isfinite(s.held_delta))) {
          return Status::InvalidArgument(
              "governor state contains a non-finite value");
        }
        return Status::OK();
      });
}

template <class IO, Of<FusionGroupSnapshot> S>
Status Walk(IO& io, S& entry) {
  auto& group = entry.group;
  if (!IO::kDecoding && entry.member_channels.size() != group.members.size()) {
    return Status::InvalidArgument(StrFormat(
        "fusion group %d has %zu channel lanes for %zu members",
        group.group_id, entry.member_channels.size(), group.members.size()));
  }
  // The group id (and its ordering check) is walked by the caller.
  DKF_RETURN_IF_ERROR(Walk(io, group.model));
  DKF_RETURN_IF_ERROR(io.F64(group.delta));
  DKF_RETURN_IF_ERROR(io.F64(group.base_delta));
  // Files once carried the group's deviation norm here; every trigger is
  // max-abs now. The byte stays so the layout does not move: written as
  // max-abs (0), and a file with any other value is refused.
  uint8_t norm = 0;
  DKF_RETURN_IF_ERROR(io.U8(norm));
  if (norm != 0) {
    return Status::InvalidArgument(
        "snapshot carries a fusion deviation norm other than max-abs, "
        "which this build does not read");
  }
  DKF_RETURN_IF_ERROR(Walk(io, group.posterior));
  DKF_RETURN_IF_ERROR(io.I64(group.version));
  DKF_RETURN_IF_ERROR(io.I64(group.last_valid_tick));
  DKF_RETURN_IF_ERROR(Walk(io, group.faults));
  for (auto* counter : {&group.updates_applied, &group.suppressed,
                        &group.transmissions, &group.broadcasts,
                        &group.broadcast_bytes}) {
    DKF_RETURN_IF_ERROR(io.I64(*counter));
  }
  int previous_id = INT32_MIN;
  return io.ParallelSeq(
      group.members, entry.member_channels, 8, "fusion member",
      [&](auto& member, auto& lane) -> Status {
        DKF_RETURN_IF_ERROR(io.I32(member.source_id, "fusion member id"));
        DKF_RETURN_IF_ERROR(
            io.Ascending(member.source_id, previous_id,
                         "fusion members must have strictly ascending ids"));
        DKF_RETURN_IF_ERROR(Walk(io, member.mirror));
        DKF_RETURN_IF_ERROR(io.I64(member.mirror_version));
        DKF_RETURN_IF_ERROR(io.Bool(member.pending));
        DKF_RETURN_IF_ERROR(io.I64(member.pending_since));
        DKF_RETURN_IF_ERROR(
            io.I32(member.resync_attempts, "fusion resync_attempts"));
        DKF_RETURN_IF_ERROR(io.I64(member.last_resync_tick));
        DKF_RETURN_IF_ERROR(io.I64(member.last_send_tick));
        DKF_RETURN_IF_ERROR(io.U32(member.next_sequence));
        DKF_RETURN_IF_ERROR(io.U32(member.last_sequence));
        DKF_RETURN_IF_ERROR(io.I64(member.synced_version));
        return Walk(io, lane);
      });
}

/// The whole payload, in wire order (docs/checkpoint.md).
template <class IO, Of<EngineSnapshot> S>
Status Walk(IO& io, S& snapshot) {
  // Configuration.
  DKF_RETURN_IF_ERROR(io.F64(snapshot.energy.instructions_per_bit));
  DKF_RETURN_IF_ERROR(io.F64(snapshot.energy.instructions_per_filter_step));
  DKF_RETURN_IF_ERROR(io.F64(snapshot.energy.instructions_per_reading));
  DKF_RETURN_IF_ERROR(io.F64(snapshot.channel.drop_probability));
  DKF_RETURN_IF_ERROR(io.U64(snapshot.channel.seed));
  DKF_RETURN_IF_ERROR(io.Bool(snapshot.channel.per_source_rng));
  DKF_RETURN_IF_ERROR(Walk(io, snapshot.channel.fault));
  DKF_RETURN_IF_ERROR(io.F64(snapshot.default_delta));
  auto& protocol = snapshot.protocol;
  DKF_RETURN_IF_ERROR(io.I64(protocol.heartbeat_interval));
  DKF_RETURN_IF_ERROR(
      io.I32(protocol.resync_burst_retries, "resync_burst_retries"));
  DKF_RETURN_IF_ERROR(io.I64(protocol.resync_retry_backoff));
  DKF_RETURN_IF_ERROR(io.I64(protocol.staleness_budget));
  DKF_RETURN_IF_ERROR(io.F64(protocol.degraded_inflation));
  DKF_RETURN_IF_ERROR(Walk(io, protocol.adaptive));
  DKF_RETURN_IF_ERROR(io.I32(snapshot.num_shards, "num_shards"));
  if (IO::kDecoding && snapshot.num_shards < 1) {
    return Status::InvalidArgument("snapshot shard count must be >= 1");
  }

  // Progress.
  DKF_RETURN_IF_ERROR(io.I64(snapshot.ticks));
  DKF_RETURN_IF_ERROR(io.I64(snapshot.control_messages));

  // Per-source state.
  int previous_source = INT32_MIN;
  DKF_RETURN_IF_ERROR(
      io.Seq(snapshot.sources, 8, "source", [&](auto& source) -> Status {
        DKF_RETURN_IF_ERROR(io.I32(source.source_id, "source id"));
        DKF_RETURN_IF_ERROR(
            io.Ascending(source.source_id, previous_source,
                         "snapshot sources must have strictly ascending ids"));
        DKF_RETURN_IF_ERROR(Walk(io, source.model));
        DKF_RETURN_IF_ERROR(Walk(io, source.node));
        DKF_RETURN_IF_ERROR(Walk(io, source.link));
        return Walk(io, source.channel);
      }));
  DKF_RETURN_IF_ERROR(Walk(io, snapshot.server_faults));
  // Files once carried a shared channel RNG stream here; the byte stays
  // so the layout does not move. Always written false, and a file that
  // sets it is refused.
  bool shared_rng = false;
  DKF_RETURN_IF_ERROR(io.Bool(shared_rng));
  if (shared_rng) {
    return Status::InvalidArgument(
        "snapshot carries a shared channel RNG stream, which this build "
        "does not read");
  }

  // Queries and aggregates.
  DKF_RETURN_IF_ERROR(
      io.Seq(snapshot.queries, 8, "query", [&](auto& query) -> Status {
        DKF_RETURN_IF_ERROR(io.I32(query.id, "query id"));
        DKF_RETURN_IF_ERROR(io.I32(query.source_id, "query source"));
        DKF_RETURN_IF_ERROR(io.F64(query.precision));
        DKF_RETURN_IF_ERROR(io.Optional(
            query.smoothing_factor, [&](auto& f) { return io.F64(f); }));
        return io.String(query.description);
      }));
  DKF_RETURN_IF_ERROR(io.Seq(
      snapshot.aggregates, 8, "aggregate", [&](auto& aggregate) -> Status {
        DKF_RETURN_IF_ERROR(io.I32(aggregate.id, "aggregate id"));
        DKF_RETURN_IF_ERROR(
            io.Seq(aggregate.source_ids, 8, "aggregate member",
                   [&](auto& id) { return io.I32(id, "member id"); }));
        return io.Seq(aggregate.synthetic_query_ids, 8, "synthetic query",
                      [&](auto& id) { return io.I32(id, "synthetic id"); });
      }));

  DKF_RETURN_IF_ERROR(Walk(io, snapshot.obs));
  DKF_RETURN_IF_ERROR(Walk(io, snapshot.serve));
  DKF_RETURN_IF_ERROR(Walk(io, snapshot.governor));

  // Multi-sensor fusion.
  int previous_fused = INT32_MIN;
  DKF_RETURN_IF_ERROR(io.Seq(
      snapshot.fused_queries, 8, "fused query", [&](auto& query) -> Status {
        DKF_RETURN_IF_ERROR(io.I32(query.id, "fused query id"));
        DKF_RETURN_IF_ERROR(
            io.Ascending(query.id, previous_fused,
                         "fused queries must have strictly ascending ids"));
        DKF_RETURN_IF_ERROR(io.I32(query.group_id, "fused query group"));
        DKF_RETURN_IF_ERROR(io.F64(query.precision));
        return io.String(query.description);
      }));
  int previous_group = INT32_MIN;
  return io.Seq(
      snapshot.fusion_groups, 8, "fusion group", [&](auto& entry) -> Status {
        DKF_RETURN_IF_ERROR(io.I32(entry.group.group_id, "fusion group id"));
        DKF_RETURN_IF_ERROR(
            io.Ascending(entry.group.group_id, previous_group,
                         "fusion groups must have strictly ascending ids"));
        return Walk(io, entry);
      });
}

}  // namespace

Result<std::string> EncodeSnapshot(const EngineSnapshot& snapshot) {
  BinaryWriter payload;
  SnapshotWriter io(payload);
  DKF_RETURN_IF_ERROR(Walk(io, snapshot));
  const std::string& body = payload.bytes();

  BinaryWriter file;
  for (size_t i = 0; i < kMagicBytes; ++i) {
    file.WriteU8(static_cast<uint8_t>(kSnapshotMagic[i]));
  }
  file.WriteU32(kSnapshotVersion);
  file.WriteU64(
      Fnv1a64(reinterpret_cast<const uint8_t*>(body.data()), body.size()));
  file.WriteU64(body.size());
  std::string bytes = file.TakeBytes();
  bytes.append(body);
  return bytes;
}

Result<EngineSnapshot> DecodeSnapshot(const std::string& bytes) {
  BinaryReader header(bytes);
  for (size_t i = 0; i < kMagicBytes; ++i) {
    auto byte_or = header.ReadU8();
    if (!byte_or.ok() ||
        byte_or.value() != static_cast<uint8_t>(kSnapshotMagic[i])) {
      return Status::InvalidArgument("not a dkf snapshot file");
    }
  }
  DKF_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported snapshot version %u (this build reads only "
                  "version %u)",
                  version, kSnapshotVersion));
  }
  DKF_ASSIGN_OR_RETURN(uint64_t checksum, header.ReadU64());
  DKF_ASSIGN_OR_RETURN(uint64_t payload_len, header.ReadU64());
  if (payload_len != header.remaining()) {
    return Status::OutOfRange(StrFormat(
        "snapshot payload length %llu does not match the %llu bytes present",
        static_cast<unsigned long long>(payload_len),
        static_cast<unsigned long long>(header.remaining())));
  }
  const std::string payload = bytes.substr(header.offset());
  const uint64_t actual = Fnv1a64(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  if (actual != checksum) {
    return Status::InvalidArgument(
        "snapshot payload checksum mismatch (file corrupted)");
  }
  BinaryReader reader(payload);
  SnapshotReader io(reader);
  EngineSnapshot snapshot;
  DKF_RETURN_IF_ERROR(Walk(io, snapshot));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot has %llu bytes of trailing garbage",
        static_cast<unsigned long long>(reader.remaining())));
  }
  return snapshot;
}

Status SaveSnapshotFile(const EngineSnapshot& snapshot,
                        const std::string& path) {
  DKF_ASSIGN_OR_RETURN(std::string bytes, EncodeSnapshot(snapshot));
  return WriteFileBytes(path, bytes);
}

Result<EngineSnapshot> LoadSnapshotFile(const std::string& path) {
  DKF_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DecodeSnapshot(bytes);
}

}  // namespace dkf
