#include "dsms/server_node.h"

#include <algorithm>

#include "common/string_util.h"

namespace dkf {

namespace {

Status NotRegistered(int source_id) {
  return Status::NotFound(StrFormat("source %d not registered", source_id));
}

}  // namespace

const ServerNode::Link* ServerNode::FindLink(int source_id) const {
  auto it = links_.find(source_id);
  return it == links_.end() ? nullptr : &it->second;
}

ServerNode::Link* ServerNode::FindLink(int source_id) {
  auto it = links_.find(source_id);
  return it == links_.end() ? nullptr : &it->second;
}

Status ServerNode::RegisterSource(int source_id, const StateModel& model) {
  if (links_.contains(source_id)) {
    return Status::AlreadyExists(
        StrFormat("source %d already registered", source_id));
  }
  auto predictor_or = KalmanPredictor::Create(model);
  if (!predictor_or.ok()) return predictor_or.status();
  NoiseAdapter adapter;
  if (protocol_.adaptive.enabled &&
      predictor_or.value().AdaptableFilter() != nullptr) {
    auto adapter_or = NoiseAdapter::Create(protocol_.adaptive, model);
    if (!adapter_or.ok()) return adapter_or.status();
    adapter = std::move(adapter_or).value();
  }
  return RegisterSourceLike(source_id, predictor_or.value(), adapter);
}

Status ServerNode::RegisterSourceLike(int source_id,
                                      const Predictor& predictor,
                                      const NoiseAdapter& adapter) {
  auto [it, inserted] = links_.try_emplace(source_id);
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("source %d already registered", source_id));
  }
  Link& link = it->second;
  link.predictor = predictor.Clone();
  link.predictor->SetTrace(obs_sink_, source_id, TraceActor::kServerFilter);
  // The staleness clock starts at registration, not at tick 0.
  link.last_valid_tick = ticks_done_ - 1;
  link.adapter = adapter;
  return Status::OK();
}

Status ServerNode::UnregisterSource(int source_id) {
  if (links_.erase(source_id) == 0) return NotRegistered(source_id);
  return Status::OK();
}

void ServerNode::set_trace_sink(TraceSink* sink) {
  obs_sink_ = sink;
  for (auto& [id, link] : links_) {
    link.predictor->SetTrace(sink, id, TraceActor::kServerFilter);
  }
}

Status ServerNode::TickAll() {
  // Account degraded service for the tick that just completed (its
  // final message state is now known). Skipped entirely in legacy
  // configurations so the fault-free hot path pays nothing.
  if (ticks_done_ > 0 &&
      (protocol_.staleness_budget > 0 || faults_.resyncs_applied > 0)) {
    for (const auto& [id, link] : links_) {
      AccountDegradedTick(OverdueTicks(link), ticks_done_ - 1, id,
                          &faults_.degraded_ticks, obs_sink_);
    }
  }
  // A second pass, so every degraded event of the tick is emitted before
  // any predictor's fast-path transition.
  for (auto& [id, link] : links_) {
    DKF_RETURN_IF_ERROR(link.predictor->Tick());
  }
  ++ticks_done_;
  return Status::OK();
}

Status ServerNode::TickSource(int source_id) {
  Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  return link->predictor->Tick();
}

bool ServerNode::Admit(const Message& message, uint32_t* last_sequence,
                       int64_t* last_valid_tick) {
  return AdmitMessage(message, ticks_done_ - 1, last_sequence,
                      last_valid_tick, &faults_, obs_sink_);
}

Status ServerNode::OnMessage(const Message& message) {
  Link* found = FindLink(message.source_id);
  if (found == nullptr) {
    return Status::NotFound(
        StrFormat("message for unregistered source %d", message.source_id));
  }
  Link& link = *found;
  Predictor& predictor = *link.predictor;
  const int64_t now = ticks_done_ - 1;
  if (!Admit(message, &link.last_sequence, &link.last_valid_tick)) {
    return Status::OK();
  }

  switch (message.type) {
    case MessageType::kMeasurement:
      link.last_update_tick = now;
      DKF_TRACE(obs_sink_, now, message.source_id,
                TraceEventKind::kUpdateApplied, TraceActor::kServer, 0.0,
                0.0, message.sequence);
      {
        // Adapt on exactly the corrections the server applies — the same
        // values, in the same order, that corrected the mirror, which is
        // what keeps both NoiseAdapter instances bit-identical.
        KalmanFilter* adaptable =
            link.adapter.enabled() ? predictor.AdaptableFilter() : nullptr;
        NoiseAdapter::Decision adapt_decision;
        if (adaptable != nullptr) {
          auto decision_or =
              link.adapter.OnCorrection(*adaptable, message.payload, now);
          if (!decision_or.ok()) return decision_or.status();
          adapt_decision = decision_or.value();
        }
        DKF_RETURN_IF_ERROR(predictor.Update(message.payload));
        if (adaptable != nullptr) {
          DKF_RETURN_IF_ERROR(link.adapter.InstallInto(adaptable));
          if (adapt_decision.frozen) {
            DKF_TRACE(obs_sink_, now, message.source_id,
                      TraceEventKind::kAdaptFreeze, TraceActor::kServer,
                      link.adapter.r_scale(), link.adapter.q_scale(),
                      message.sequence);
          } else if (adapt_decision.adapted) {
            DKF_TRACE(obs_sink_, now, message.source_id,
                      TraceEventKind::kNoiseAdapt, TraceActor::kServer,
                      link.adapter.r_scale(), link.adapter.q_scale(),
                      message.sequence);
          }
        }
      }
      return Status::OK();

    case MessageType::kResync: {
      // Overwrite with the mirror's snapshot, then replay the ticks the
      // snapshot spent in flight: the pair is bit-exact afterwards no
      // matter how stale the snapshot is. Sequence ordering (above)
      // guarantees a late resync can never clobber a newer correction.
      const int64_t in_flight_ticks = now - message.tick;
      if (in_flight_ticks < 0) {
        return Status::Internal(
            StrFormat("resync from future tick %lld at server tick %lld",
                      static_cast<long long>(message.tick),
                      static_cast<long long>(now)));
      }
      Predictor::Snapshot snapshot;
      snapshot.state = message.resync_state;
      snapshot.covariance = message.resync_covariance;
      snapshot.step = message.resync_step;
      DKF_RETURN_IF_ERROR(predictor.ImportState(snapshot));
      if (link.adapter.enabled()) {
        // Re-lock the noise servo with the mirror's shipped state and
        // install its effective Q/R *before* replaying the in-flight
        // ticks, so the replayed Predicts inflate with the same Q the
        // mirror used while the snapshot was in flight.
        DKF_RETURN_IF_ERROR(link.adapter.ImportState(message.resync_adapt));
        if (KalmanFilter* adaptable = predictor.AdaptableFilter()) {
          DKF_RETURN_IF_ERROR(link.adapter.InstallInto(adaptable));
        }
      }
      for (int64_t i = 0; i < in_flight_ticks; ++i) {
        DKF_RETURN_IF_ERROR(predictor.Tick());
      }
      ++faults_.resyncs_applied;
      link.last_resync_tick = now;
      link.last_update_tick = now;
      DKF_TRACE(obs_sink_, now, message.source_id,
                TraceEventKind::kResyncApplied, TraceActor::kServer,
                static_cast<double>(in_flight_ticks), 0.0, message.sequence);
      return Status::OK();
    }

    case MessageType::kHeartbeat:
      // Admit counted and traced it; liveness is all it carries.
      return Status::OK();

    case MessageType::kModelSwitch:
      return Status::Unimplemented(
          "model switching runs through ModelSwitchingLink; the plain "
          "server node does not carry a model bank");
  }
  return Status::Internal("unknown message type");
}

Result<ServerNode::LinkSnapshot> ServerNode::ExportLink(int source_id) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  LinkSnapshot snapshot;
  snapshot.last_sequence = link->last_sequence;
  snapshot.last_valid_tick = link->last_valid_tick;
  snapshot.last_resync_tick = link->last_resync_tick;
  snapshot.last_update_tick = link->last_update_tick;
  auto full_or = link->predictor->ExportFullState();
  if (!full_or.ok()) return full_or.status();
  snapshot.predictor = std::move(full_or).value();
  snapshot.adapt = link->adapter.ExportState();
  return snapshot;
}

Status ServerNode::RestoreLink(int source_id, const LinkSnapshot& snapshot) {
  Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  DKF_RETURN_IF_ERROR(link->predictor->ImportFullState(snapshot.predictor));
  link->last_sequence = snapshot.last_sequence;
  link->last_valid_tick = snapshot.last_valid_tick;
  link->last_resync_tick = snapshot.last_resync_tick;
  link->last_update_tick = snapshot.last_update_tick;
  // The FullState above already carries the adapted effective Q/R; only
  // the servo statistics need restoring.
  return link->adapter.ImportState(snapshot.adapt);
}

int64_t ServerNode::OverdueTicks(const Link& link) const {
  return DegradedOverdueTicks(protocol_, ticks_done_ - 1,
                              link.last_valid_tick, link.last_resync_tick);
}

Result<Vector> ServerNode::Answer(int source_id) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  return link->predictor->Predicted();
}

Result<ServerNode::ConfidentAnswer> ServerNode::AnswerWithConfidence(
    int source_id) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  ConfidentAnswer answer;
  answer.value = link->predictor->Predicted();
  answer.covariance = link->predictor->PredictedCovariance();
  const int64_t overdue = OverdueTicks(*link);
  if (overdue > 0) {
    answer.degraded = true;
    if (answer.covariance.has_value()) {
      InflateDegraded(protocol_, overdue, &*answer.covariance);
    }
  }
  return answer;
}

Result<double> ServerNode::AnswerScalar(int source_id,
                                        double* variance) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  if (variance == nullptr) return link->predictor->PredictedScalar(nullptr);
  std::optional<double> covariance;
  const double value = link->predictor->PredictedScalar(&covariance);
  *variance = 0.0;
  if (covariance.has_value()) {
    *variance = *covariance;
    const int64_t overdue = OverdueTicks(*link);
    if (overdue > 0) *variance *= DegradedScale(protocol_, overdue);
  }
  return value;
}

Result<bool> ServerNode::degraded(int source_id) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  return OverdueTicks(*link) > 0;
}

Result<int64_t> ServerNode::last_update_tick(int source_id) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  return link->last_update_tick;
}

Result<const Predictor*> ServerNode::predictor(int source_id) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  return static_cast<const Predictor*>(link->predictor.get());
}

Result<const NoiseAdapter*> ServerNode::noise_adapter(int source_id) const {
  const Link* link = FindLink(source_id);
  if (link == nullptr) return NotRegistered(source_id);
  return static_cast<const NoiseAdapter*>(&link->adapter);
}

}  // namespace dkf
