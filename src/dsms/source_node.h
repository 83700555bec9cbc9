#ifndef DKF_DSMS_SOURCE_NODE_H_
#define DKF_DSMS_SOURCE_NODE_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/result.h"
#include "core/predictor.h"
#include "core/smoothing.h"
#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "dsms/protocol.h"
#include "metrics/fault_stats.h"
#include "models/state_model.h"
#include "obs/trace_sink.h"

namespace dkf {

/// Configuration of one remote sensor node.
struct SourceNodeOptions {
  int source_id = 0;

  /// The stream model shared with the server (defines KF_m / KF_s).
  StateModel model;

  /// Precision width delta_i installed by the query layer. The node
  /// transmits when any attribute deviates from the mirror's prediction
  /// by more than delta (the max-abs norm, §5.1).
  double delta = 1.0;

  /// When set, readings pass through a KF_c smoothing filter with this
  /// factor F before reaching the mirror (§4.3). Only valid for width-1
  /// models.
  std::optional<double> smoothing_factor;
  /// Measurement variance assumed by KF_c.
  double smoothing_measurement_variance = 1.0;

  EnergyModelOptions energy;

  /// Hardened-protocol knobs (heartbeats, resync retry policy). The
  /// defaults keep legacy behavior on reliable-ACK channels.
  ProtocolOptions protocol;
};

/// Result of processing one reading at the source.
struct SourceStepResult {
  /// A measurement transmission was attempted.
  bool sent = false;
  /// The transmission reached the server AND its ACK came back (always
  /// equals `sent` on a loss-free channel). On a definite drop the mirror
  /// is NOT corrected — keeping it consistent with the server — and the
  /// suppression rule naturally retries on the next tick while the
  /// deviation persists.
  bool delivered = false;
  /// The measurement's ACK was ambiguous (lost ACK, delay, outage, or
  /// corruption): the node entered the pending-resync state this tick.
  bool ack_ambiguous = false;
  /// A full-state resync was transmitted this tick.
  bool resync_sent = false;
  /// A heartbeat was transmitted this tick.
  bool heartbeat_sent = false;
  /// The node ended the tick still pending resync (suppression frozen,
  /// the mirror coasting).
  bool pending_resync = false;
  /// The value that entered the protocol (smoothed if KF_c is active).
  Vector protocol_value;
};

/// A remote sensor node: owns the mirror predictor KF_m (and optionally
/// the smoothing filter KF_c), evaluates the suppression rule locally, and
/// transmits a measurement message only when the server-side prediction
/// would violate the precision constraint.
///
/// Under the hardened protocol the node also runs the source half of the
/// divergence state machine (docs/protocol.md §6): every send carries a
/// sequence number; an ambiguous ACK on a measurement freezes suppression
/// and switches the node to retransmitting a full-state resync (burst,
/// then backoff) until one is ACKed; while healthy but silent it emits
/// heartbeats so the server can bound undetected divergence time.
class SourceNode {
 public:
  static Result<SourceNode> Create(const SourceNodeOptions& options);

  SourceNode(SourceNode&&) = default;
  SourceNode& operator=(SourceNode&&) = default;

  /// A deep copy of this node serving `source_id` instead: same options,
  /// filters, counters and protocol state. The batched fleet engine
  /// rebuilds a spilled source from a per-model prototype this way,
  /// which skips re-deriving the filter from the model (Create).
  std::unique_ptr<SourceNode> CloneAs(int source_id) const;

  /// Processes the reading for tick `tick`, possibly transmitting through
  /// `channel`. Must be called once per tick, after the server has ticked
  /// and the channel's in-flight queue was drained (Channel::BeginTick).
  Result<SourceStepResult> ProcessReading(int64_t tick, const Vector& raw,
                                          Channel* channel);

  /// Reconfigures the precision width mid-stream (a new/removed query
  /// changed the source's effective delta). Safe at any tick: delta only
  /// gates the suppression test; neither filter's state depends on it, so
  /// mirror consistency is untouched.
  Status set_delta(double delta);

  /// set_delta's rule: InvalidArgument unless `delta` > 0 (NaN fails).
  /// The batched fleet engine applies it to resident lanes too.
  static Status ValidateDelta(double delta);

  /// Reconfigures the KF_c smoothing stage mid-stream. Passing nullopt
  /// disables smoothing. The smoother restarts from scratch (its state is
  /// pre-protocol, so this too cannot break the mirror), which costs a
  /// short re-convergence transient on the smoothed values.
  Status set_smoothing(std::optional<double> smoothing_factor);

  double delta() const { return options_.delta; }

  const EnergyAccount& energy() const { return energy_; }
  int64_t readings() const { return readings_; }
  int64_t updates_sent() const { return updates_sent_; }
  int source_id() const { return options_.source_id; }

  /// The model recipe the node's filters were built from.
  const StateModel& model() const { return options_.model; }

  /// True while the node is in the pending-resync state (the mirror may
  /// have diverged from KF_s; suppression is frozen).
  bool resync_pending() const { return link_.pending; }

  /// Resync-episode bookkeeping (reset when the episode heals) and the
  /// installed smoothing factor. The batched fleet engine reads these in
  /// place to keep such sources off its lanes (docs/fleet.md).
  int resync_attempts() const { return link_.resync_attempts; }
  uint32_t first_resync_sequence() const { return first_resync_sequence_; }
  const std::optional<double>& smoothing_factor() const {
    return options_.smoothing_factor;
  }
  double smoothing_measurement_variance() const {
    return options_.smoothing_measurement_variance;
  }

  /// Source-side protocol fault counters.
  const ProtocolFaultStats& fault_stats() const { return faults_; }

  /// The mirror predictor (for the mirror-consistency tests).
  const Predictor& mirror() const { return *mirror_; }

  /// The mirror-side noise adaptation servo (disabled unless
  /// ProtocolOptions::adaptive.enabled and the predictor exposes an
  /// adaptable filter). Gauges, fleet re-absorption gating, and the
  /// mirror-consistency tests read it; only ProcessReading mutates it.
  const NoiseAdapter& noise_adapter() const { return adapter_; }

  /// Everything that distinguishes this node from a freshly created one
  /// with the same model: filters (KF_m and, when active, KF_c), installed
  /// reconfig state, energy totals, the sender half of the link (wire
  /// sequence counter, heartbeat clock, divergence episode), and the
  /// fault counters. Export/Import round-trips the node bit-exactly
  /// across a checkpoint (docs/checkpoint.md).
  struct CheckpointState : LinkSender {
    double delta = 1.0;
    std::optional<double> smoothing_factor;
    double smoothing_measurement_variance = 1.0;
    KalmanFilter::FullState mirror;
    KalmanFilter::FullState smoother_filter;  // valid iff smoothing_factor
    int64_t smoother_count = 0;
    double energy_transmission = 0.0;
    double energy_compute = 0.0;
    double energy_sensing = 0.0;
    int64_t readings = 0;
    int64_t updates_sent = 0;
    uint32_t first_resync_sequence = 0;
    ProtocolFaultStats faults;
    /// NoiseAdapter::ExportState() payload; empty when adaptation is off
    /// (docs/checkpoint.md).
    Vector adapt;
  };

  Result<CheckpointState> ExportCheckpoint() const;

  /// Restores a checkpoint into a node freshly created from the same
  /// model/protocol options. Errors when dimensions disagree.
  Status ImportCheckpoint(const CheckpointState& state);

  /// Wires an observability sink: every protocol decision this node makes
  /// (suppress/transmit with the measured deviation, resync, heal,
  /// heartbeat) becomes a trace event, and the mirror filter's fast-path
  /// transitions are forwarded as source_filter events. Pass nullptr to
  /// unwire.
  void set_trace_sink(TraceSink* sink) {
    obs_sink_ = sink;
    mirror_->SetTrace(sink, options_.source_id, TraceActor::kSourceFilter);
  }

 private:
  SourceNode(const SourceNodeOptions& options,
             std::unique_ptr<Predictor> mirror,
             std::unique_ptr<KalmanSmoother> smoother)
      : options_(options), mirror_(std::move(mirror)),
        smoother_(std::move(smoother)), energy_(options.energy) {}

  /// Member-wise deep copy (the predictors are cloned); see CloneAs.
  SourceNode(const SourceNode& other);

  /// Processes a deferred ACK (delayed delivery) for sequence `sequence`.
  void HandleAck(uint32_t sequence, int64_t tick);

  /// LinkSender::Heal, closing the episode's resync sequence range too.
  void Heal(int64_t tick);

  /// Transmits a full-state resync if the retry policy says one is due.
  Status MaybeSendResync(int64_t tick, Channel* channel,
                         SourceStepResult* result);

  SourceNodeOptions options_;
  std::unique_ptr<Predictor> mirror_;
  /// KF_c, allocated only while smoothing is on.
  std::unique_ptr<KalmanSmoother> smoother_;
  EnergyAccount energy_;
  int64_t readings_ = 0;
  int64_t updates_sent_ = 0;

  /// Sequence counter, heartbeat clock and divergence state machine
  /// (see docs/protocol.md §6).
  LinkSender link_;
  /// First sequence number used for a resync in the current episode; any
  /// ACKed sequence >= this proves a resync got through. Source-only: a
  /// fusion member heals by broadcast, never by ACK (docs/fusion.md §3).
  uint32_t first_resync_sequence_ = 0;
  ProtocolFaultStats faults_;
  /// Mirror-side Q/R servo; adapts only on ACKed corrections so it stays
  /// bit-identical to the server-side instance (docs/adaptive.md).
  NoiseAdapter adapter_;
  TraceSink* obs_sink_ = nullptr;
};

}  // namespace dkf

#endif  // DKF_DSMS_SOURCE_NODE_H_
