#include "dsms/source_node.h"

#include "common/string_util.h"
#include "core/suppression.h"

namespace dkf {

Result<SourceNode> SourceNode::Create(const SourceNodeOptions& options) {
  DKF_RETURN_IF_ERROR(ValidateDelta(options.delta));
  DKF_RETURN_IF_ERROR(ValidateProtocolOptions(options.protocol));
  auto predictor_or = KalmanPredictor::Create(options.model);
  if (!predictor_or.ok()) return predictor_or.status();

  std::unique_ptr<KalmanSmoother> smoother;
  if (options.smoothing_factor.has_value()) {
    if (options.model.measurement_dim != 1) {
      return Status::InvalidArgument(
          "KF_c smoothing is only supported for width-1 models");
    }
    auto smoother_or =
        KalmanSmoother::Create(*options.smoothing_factor,
                               options.smoothing_measurement_variance);
    if (!smoother_or.ok()) return smoother_or.status();
    smoother = std::make_unique<KalmanSmoother>(std::move(smoother_or).value());
  }
  SourceNode node(options, predictor_or.value().Clone(),
                  std::move(smoother));
  if (options.protocol.adaptive.enabled &&
      node.mirror_->AdaptableFilter() != nullptr) {
    auto adapter_or =
        NoiseAdapter::Create(options.protocol.adaptive, options.model);
    if (!adapter_or.ok()) return adapter_or.status();
    node.adapter_ = std::move(adapter_or).value();
  }
  return node;
}

SourceNode::SourceNode(const SourceNode& other)
    : options_(other.options_),
      mirror_(other.mirror_->Clone()),
      smoother_(other.smoother_ != nullptr
                    ? std::make_unique<KalmanSmoother>(*other.smoother_)
                    : nullptr),
      energy_(other.energy_),
      readings_(other.readings_),
      updates_sent_(other.updates_sent_),
      link_(other.link_),
      first_resync_sequence_(other.first_resync_sequence_),
      faults_(other.faults_),
      adapter_(other.adapter_),
      obs_sink_(other.obs_sink_) {}

std::unique_ptr<SourceNode> SourceNode::CloneAs(int source_id) const {
  std::unique_ptr<SourceNode> copy(new SourceNode(*this));
  copy->options_.source_id = source_id;
  // Re-tag the mirror's trace events with the new id.
  copy->set_trace_sink(obs_sink_);
  return copy;
}

Status SourceNode::ValidateDelta(double delta) {
  if (!(delta > 0.0)) {
    return Status::InvalidArgument("delta must be positive");
  }
  return Status::OK();
}

Status SourceNode::set_delta(double delta) {
  DKF_RETURN_IF_ERROR(ValidateDelta(delta));
  options_.delta = delta;
  return Status::OK();
}

Status SourceNode::set_smoothing(std::optional<double> smoothing_factor) {
  if (!smoothing_factor.has_value()) {
    smoother_.reset();
    options_.smoothing_factor.reset();
    return Status::OK();
  }
  if (mirror_->dim() != 1) {
    return Status::InvalidArgument(
        "KF_c smoothing is only supported for width-1 models");
  }
  auto smoother_or = KalmanSmoother::Create(
      *smoothing_factor, options_.smoothing_measurement_variance);
  if (!smoother_or.ok()) return smoother_or.status();
  smoother_ = std::make_unique<KalmanSmoother>(std::move(smoother_or).value());
  options_.smoothing_factor = smoothing_factor;
  return Status::OK();
}

Result<SourceNode::CheckpointState> SourceNode::ExportCheckpoint() const {
  CheckpointState state;
  state.delta = options_.delta;
  state.smoothing_factor = options_.smoothing_factor;
  state.smoothing_measurement_variance =
      options_.smoothing_measurement_variance;
  auto mirror_or = mirror_->ExportFullState();
  if (!mirror_or.ok()) return mirror_or.status();
  state.mirror = std::move(mirror_or).value();
  if (smoother_ != nullptr) {
    state.smoother_filter = smoother_->filter().ExportFullState();
    state.smoother_count = smoother_->count();
  }
  state.energy_transmission = energy_.transmission();
  state.energy_compute = energy_.compute();
  state.energy_sensing = energy_.sensing();
  state.readings = readings_;
  state.updates_sent = updates_sent_;
  static_cast<LinkSender&>(state) = link_;
  state.first_resync_sequence = first_resync_sequence_;
  state.faults = faults_;
  state.adapt = adapter_.ExportState();
  return state;
}

Status SourceNode::ImportCheckpoint(const CheckpointState& state) {
  DKF_RETURN_IF_ERROR(set_delta(state.delta));
  options_.smoothing_measurement_variance =
      state.smoothing_measurement_variance;
  DKF_RETURN_IF_ERROR(set_smoothing(state.smoothing_factor));
  DKF_RETURN_IF_ERROR(mirror_->ImportFullState(state.mirror));
  if (smoother_ != nullptr) {
    DKF_RETURN_IF_ERROR(
        smoother_->mutable_filter().ImportFullState(state.smoother_filter));
    smoother_->set_count(state.smoother_count);
  }
  energy_.RestoreTotals(state.energy_transmission, state.energy_compute,
                        state.energy_sensing);
  readings_ = state.readings;
  updates_sent_ = state.updates_sent;
  link_ = state;
  first_resync_sequence_ = state.first_resync_sequence;
  faults_ = state.faults;
  // The mirror FullState above already carries the adapted effective Q/R;
  // only the servo's own statistics need restoring.
  DKF_RETURN_IF_ERROR(adapter_.ImportState(state.adapt));
  return Status::OK();
}

void SourceNode::HandleAck(uint32_t sequence, int64_t tick) {
  // Only a resync from the current episode proves the pair re-locked: a
  // late-ACKed *measurement* was delivered after its tick and therefore
  // stale-rejected by the server (the mirror was never corrected for it
  // either — rejecting it is what keeps the pair consistent).
  if (link_.pending && first_resync_sequence_ != 0 &&
      sequence >= first_resync_sequence_) {
    Heal(tick);
  }
}

void SourceNode::Heal(int64_t tick) {
  link_.Heal(options_.source_id, tick, &faults_, obs_sink_);
  first_resync_sequence_ = 0;
}

Status SourceNode::MaybeSendResync(int64_t tick, Channel* channel,
                                   SourceStepResult* result) {
  if (!link_.ResyncDue(options_.protocol, tick)) return Status::OK();

  auto snapshot_or = mirror_->ExportState();
  if (!snapshot_or.ok()) return snapshot_or.status();
  Predictor::Snapshot snapshot = std::move(snapshot_or).value();

  Message message;
  message.type = MessageType::kResync;
  message.source_id = options_.source_id;
  message.tick = tick;
  message.sequence =
      link_.CountResyncSent(options_.source_id, tick, &faults_, obs_sink_);
  message.resync_state = std::move(snapshot.state);
  message.resync_covariance = std::move(snapshot.covariance);
  message.resync_step = snapshot.step;
  // Adaptive links re-lock the noise servo along with the filter: the
  // resync carries the mirror's adapter state (empty when adaptation is
  // off, leaving the wire format byte-identical).
  if (adapter_.enabled()) message.resync_adapt = adapter_.ExportState();
  if (first_resync_sequence_ == 0) first_resync_sequence_ = message.sequence;

  energy_.ChargeTransmission(message.SizeBytes());
  result->resync_sent = true;

  if (channel == nullptr) {
    // No channel means no server to diverge from; treat as healed.
    Heal(tick);
    return Status::OK();
  }
  auto ack_or = channel->Send(message);
  if (!ack_or.ok()) return ack_or.status();
  if (ack_or.value() == SendAck::kAcked) Heal(tick);
  // kDropped: definitely lost, retry per policy. kNoAck: may yet be
  // delivered (delay) — a deferred ACK heals the episode when it lands.
  return Status::OK();
}

Result<SourceStepResult> SourceNode::ProcessReading(int64_t tick,
                                                    const Vector& raw,
                                                    Channel* channel) {
  if (raw.size() != mirror_->dim()) {
    return Status::InvalidArgument(
        StrFormat("reading width %zu, model expects %zu", raw.size(),
                  mirror_->dim()));
  }
  // Deferred ACKs from delayed deliveries surface at the start of the
  // tick (the tick loop drained the in-flight queue before the sources
  // run).
  if (channel != nullptr && channel->has_deferred_acks()) {
    for (uint32_t sequence : channel->TakeAcks(options_.source_id)) {
      HandleAck(sequence, tick);
    }
  }

  energy_.ChargeReading();
  ++readings_;

  SourceStepResult result;
  result.protocol_value = raw;
  if (smoother_ != nullptr) {
    auto smoothed_or = smoother_->Push(raw[0]);
    if (!smoothed_or.ok()) return smoothed_or.status();
    result.protocol_value = Vector{smoothed_or.value()};
    energy_.ChargeFilterStep();  // KF_c costs a filter step too
  }

  // Mirror prediction for this tick; the suppression decision is made
  // entirely at the source.
  DKF_RETURN_IF_ERROR(mirror_->Tick());
  energy_.ChargeFilterStep();

  // Pending resync: suppression is frozen (correcting the mirror while
  // the server's state is unknown would make the divergence permanent);
  // the mirror coasts and the node retransmits its snapshot until one is
  // ACKed. An immediate ACK re-enters the healthy path this same tick.
  if (link_.pending) {
    DKF_RETURN_IF_ERROR(MaybeSendResync(tick, channel, &result));
  }

  if (!link_.pending) {
    // The deviation is computed once and reused for both the decision and
    // the trace event, so instrumentation can never change the decision.
    const double deviation = Deviation(
        mirror_->Predicted(), result.protocol_value, DeviationNorm::kMaxAbs);
    result.sent = deviation > options_.delta;

    if (result.sent) {
      Message message;
      message.type = MessageType::kMeasurement;
      message.source_id = options_.source_id;
      message.tick = tick;
      message.payload = result.protocol_value;
      message.sequence = link_.next_sequence++;
      energy_.ChargeTransmission(message.SizeBytes());
      ++updates_sent_;
      link_.last_send_tick = tick;
      DKF_TRACE(obs_sink_, tick, options_.source_id,
                TraceEventKind::kTransmit, TraceActor::kSource, deviation,
                options_.delta, message.sequence);

      SendAck ack = SendAck::kAcked;
      if (channel != nullptr) {
        auto ack_or = channel->Send(message);
        if (!ack_or.ok()) return ack_or.status();
        ack = ack_or.value();
      }
      switch (ack) {
        case SendAck::kAcked: {
          // Correct the mirror only on confirmed delivery: the mirror
          // must track the *server's* state. An ACKed correction is also
          // the only thing the noise servo may learn from — the server
          // sees exactly the same value, so both adapters move in
          // lockstep (docs/adaptive.md).
          result.delivered = true;
          KalmanFilter* adaptable =
              adapter_.enabled() ? mirror_->AdaptableFilter() : nullptr;
          NoiseAdapter::Decision adapt_decision;
          if (adaptable != nullptr) {
            auto decision_or =
                adapter_.OnCorrection(*adaptable, result.protocol_value, tick);
            if (!decision_or.ok()) return decision_or.status();
            adapt_decision = decision_or.value();
          }
          DKF_RETURN_IF_ERROR(mirror_->Update(result.protocol_value));
          if (adaptable != nullptr) {
            DKF_RETURN_IF_ERROR(adapter_.InstallInto(adaptable));
            if (adapt_decision.frozen) {
              DKF_TRACE(obs_sink_, tick, options_.source_id,
                        TraceEventKind::kAdaptFreeze, TraceActor::kSource,
                        adapter_.r_scale(), adapter_.q_scale(),
                        message.sequence);
            } else if (adapt_decision.adapted) {
              DKF_TRACE(obs_sink_, tick, options_.source_id,
                        TraceEventKind::kNoiseAdapt, TraceActor::kSource,
                        adapter_.r_scale(), adapter_.q_scale(),
                        message.sequence);
            }
          }
          break;
        }
        case SendAck::kDropped:
          // Reliable-ACK loss (legacy): the server never saw it, the
          // mirror stays uncorrected, the next tick's deviation test
          // retries automatically.
          DKF_TRACE(obs_sink_, tick, options_.source_id,
                    TraceEventKind::kSendDropped, TraceActor::kSource, 0.0,
                    0.0, message.sequence);
          break;
        case SendAck::kNoAck:
          // The divergence-inducing case: the server may or may not have
          // applied the measurement. Freeze suppression and start the
          // resync episode — the first snapshot goes out right now.
          result.ack_ambiguous = true;
          link_.EnterDivergence(options_.source_id, tick, message.sequence,
                                &faults_, obs_sink_);
          first_resync_sequence_ = 0;
          DKF_RETURN_IF_ERROR(MaybeSendResync(tick, channel, &result));
          break;
      }
    } else {
      // Suppressed: the mirror's prediction still satisfies the precision
      // constraint. Heartbeat ticks are suppressed ticks too — the beacon
      // carries no measurement.
      DKF_TRACE(obs_sink_, tick, options_.source_id,
                TraceEventKind::kSuppress, TraceActor::kSource, deviation,
                options_.delta);
      if (HeartbeatDue(options_.protocol, tick, link_.last_send_tick)) {
        // Healthy but silent: tell the server the prediction still holds.
        // Heartbeats correct nothing, so their ACK (or its loss) carries
        // no divergence risk and is ignored.
        const Message beacon = MakeHeartbeat(
            options_.source_id, tick,
            CountHeartbeatSent(options_.source_id, tick,
                               &link_.next_sequence, &link_.last_send_tick,
                               &faults_, obs_sink_));
        energy_.ChargeTransmission(beacon.SizeBytes());
        result.heartbeat_sent = true;
        if (channel != nullptr) {
          auto ack_or = channel->Send(beacon);
          if (!ack_or.ok()) return ack_or.status();
        }
      }
    }
  }

  link_.CountDivergedTick(&faults_);
  result.pending_resync = link_.pending;
  return result;
}

}  // namespace dkf
