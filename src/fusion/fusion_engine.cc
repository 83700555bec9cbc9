#include "fusion/fusion_engine.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "serve/subscription.h"

namespace dkf {

namespace {

/// Wire cost of re-locking one member's fused mirror: the resync-shaped
/// header (21 bytes + 12 for the group fields) plus the full posterior
/// dump (state, covariance, step counter), matching Message::SizeBytes
/// for a fused kResync.
size_t BroadcastBytesPerMember(size_t n) {
  return (1 + 4 + 8 + 4 + 4) + (4 + 8) + n * sizeof(double) +
         n * n * sizeof(double) + 8;
}

}  // namespace

Status FusionEngine::RegisterGroup(const FusionGroupConfig& config) {
  if (config.group_id < 0 || config.group_id > kMaxFusionGroupId) {
    return Status::InvalidArgument(
        StrFormat("group id %d outside [0, %d]", config.group_id,
                  kMaxFusionGroupId));
  }
  if (groups_.contains(config.group_id)) {
    return Status::AlreadyExists(
        StrFormat("fusion group %d already registered", config.group_id));
  }
  if (config.member_ids.empty()) {
    return Status::InvalidArgument("a fusion group needs >= 1 members");
  }
  if (!(config.delta > 0.0)) {
    return Status::InvalidArgument("delta must be positive");
  }
  if (protocol_.resync_burst_retries < 1) {
    return Status::InvalidArgument("resync_burst_retries must be >= 1");
  }
  if (protocol_.resync_retry_backoff < 1) {
    return Status::InvalidArgument("resync_retry_backoff must be >= 1");
  }
  std::vector<int> members = config.member_ids;
  std::sort(members.begin(), members.end());
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    return Status::InvalidArgument("duplicate member id in fusion group");
  }
  for (int member_id : members) {
    if (member_to_group_.contains(member_id)) {
      return Status::AlreadyExists(
          StrFormat("member %d already belongs to fusion group %d", member_id,
                    member_to_group_.at(member_id)));
    }
  }

  auto posterior_or = config.model.MakeFilter();
  if (!posterior_or.ok()) return posterior_or.status();

  FusionGroupConfig stored = config;
  stored.member_ids = members;
  auto [it, inserted] = groups_.try_emplace(
      config.group_id, std::move(stored), std::move(posterior_or).value());
  Group& group = it->second;
  group.base_delta = config.delta;
  // The staleness clock starts at registration, exactly like a plain
  // source's link (ServerNode::RegisterSource).
  group.last_valid_tick = now_;
  group.posterior.set_trace(obs_sink_, FusedSourceKey(group.config.group_id),
                            TraceActor::kServerFilter);
  for (int member_id : members) {
    // Every mirror is born a bit-exact copy of the posterior: same
    // recipe, zero operations applied to either yet.
    auto member_it =
        group.members.emplace(member_id, Member(group.posterior)).first;
    member_it->second.mirror.set_trace(obs_sink_, member_id,
                                       TraceActor::kSourceFilter);
    member_to_group_[member_id] = config.group_id;
  }
  return Status::OK();
}

Status FusionEngine::AddMember(int group_id, int member_id) {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  if (member_to_group_.contains(member_id)) {
    return Status::AlreadyExists(
        StrFormat("member %d already belongs to fusion group %d", member_id,
                  member_to_group_.at(member_id)));
  }
  Group& group = it->second;
  // The newcomer's mirror is handed the group state at admission: a
  // bit-exact copy of the current posterior, already synced to the
  // current version.
  auto member_it =
      group.members.emplace(member_id, Member(group.posterior)).first;
  Member& member = member_it->second;
  member.mirror.set_trace(obs_sink_, member_id, TraceActor::kSourceFilter);
  member.mirror_version = group.version;
  member.synced_version = group.version;
  member_to_group_[member_id] = group_id;
  group.config.member_ids.insert(
      std::lower_bound(group.config.member_ids.begin(),
                       group.config.member_ids.end(), member_id),
      member_id);
  return Status::OK();
}

Status FusionEngine::RemoveMember(int group_id, int member_id) {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  Group& group = it->second;
  if (!group.members.contains(member_id)) {
    return Status::NotFound(StrFormat("member %d not in fusion group %d",
                                      member_id, group_id));
  }
  if (group.members.size() == 1) {
    return Status::FailedPrecondition(
        "the last member of a fusion group cannot be removed");
  }
  group.members.erase(member_id);
  member_to_group_.erase(member_id);
  auto pos = std::lower_bound(group.config.member_ids.begin(),
                              group.config.member_ids.end(), member_id);
  group.config.member_ids.erase(pos);
  return Status::OK();
}

std::vector<int> FusionEngine::group_ids() const {
  std::vector<int> ids;
  ids.reserve(groups_.size());
  for (const auto& [id, group] : groups_) ids.push_back(id);
  return ids;
}

std::vector<int> FusionEngine::member_tick_order() const {
  std::vector<int> ids;
  ids.reserve(member_to_group_.size());
  for (const auto& [group_id, group] : groups_) {
    for (const auto& [member_id, member] : group.members) {
      ids.push_back(member_id);
    }
  }
  return ids;
}

Result<std::vector<int>> FusionEngine::group_members(int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return it->second.config.member_ids;
}

Status FusionEngine::BeginTick(int64_t tick) {
  // Account degraded service for the tick that just completed (its final
  // message state is now known) — the same accounting point
  // ServerNode::TickAll uses.
  if (now_ >= 0 && protocol_.staleness_budget > 0) {
    for (auto& [group_id, group] : groups_) {
      if (IsDegraded(group)) {
        ++group.faults.degraded_ticks;
        DKF_TRACE(obs_sink_, now_, FusedSourceKey(group_id),
                  TraceEventKind::kDegradedTick, TraceActor::kServer,
                  static_cast<double>(OverdueTicks(group)));
      }
    }
  }
  now_ = tick;
  // Posterior and mirrors advance in lockstep: identical Predicts on
  // identical states keep a synced mirror bit-identical until the next
  // posterior correction (which a broadcast then re-locks).
  for (auto& [group_id, group] : groups_) {
    DKF_RETURN_IF_ERROR(group.posterior.Predict());
    for (auto& [member_id, member] : group.members) {
      DKF_RETURN_IF_ERROR(member.mirror.Predict());
    }
  }
  return Status::OK();
}

Status FusionEngine::ProcessReadings(
    int64_t tick, const std::vector<const Vector*>& readings,
    Channel* channel) {
  if (tick != now_) {
    return Status::FailedPrecondition(
        StrFormat("ProcessReadings for tick %lld but BeginTick ran for %lld",
                  static_cast<long long>(tick),
                  static_cast<long long>(now_)));
  }
  if (readings.size() != member_to_group_.size()) {
    return Status::InvalidArgument(
        StrFormat("got %zu fusion readings for %zu members", readings.size(),
                  member_to_group_.size()));
  }
  auto reading = readings.begin();
  for (auto& [group_id, group] : groups_) {
    for (auto& [member_id, member] : group.members) {
      DKF_RETURN_IF_ERROR(StepMember(group, member_id, member, **reading++,
                                     tick, channel));
    }
  }
  return Status::OK();
}

Status FusionEngine::StepMember(Group& group, int member_id, Member& member,
                                const Vector& reading, int64_t tick,
                                Channel* channel) {
  if (reading.size() != member.mirror.measurement_dim()) {
    return Status::InvalidArgument(
        StrFormat("reading width %zu, fusion model expects %zu",
                  reading.size(), member.mirror.measurement_dim()));
  }
  // Deferred ACKs from delayed deliveries are drained and discarded: a
  // fused member heals only by receiving a re-lock broadcast (the
  // posterior is authoritative; an uplink ACK alone proves nothing about
  // the mirror matching it).
  if (channel != nullptr && channel->has_deferred_acks()) {
    channel->TakeAcks(member_id);
  }

  // Pending re-lock: suppression is frozen (testing readings against a
  // mirror of unknown freshness would make the divergence permanent);
  // the member announces itself until a broadcast re-locks it.
  if (member.pending) {
    DKF_RETURN_IF_ERROR(MaybeSendResync(group, member_id, member, tick,
                                        channel));
  }

  if (!member.pending) {
    const Vector predicted = member.mirror.PredictedMeasurement();
    const double deviation =
        Deviation(predicted, reading, group.config.norm);
    const bool send = deviation > group.config.delta;
    if (send) {
      Message message;
      message.type = MessageType::kMeasurement;
      message.source_id = member_id;
      message.tick = tick;
      message.payload = reading;
      message.sequence = member.next_sequence++;
      message.group_id = group.config.group_id;
      message.group_version = member.mirror_version;
      ++group.transmissions;
      member.last_send_tick = tick;

      SendAck ack = SendAck::kAcked;
      if (channel != nullptr) {
        auto ack_or = channel->Send(message);
        if (!ack_or.ok()) return ack_or.status();
        ack = ack_or.value();
      } else {
        // No channel: local loopback. The correction (and the broadcast
        // that re-locks this very mirror) happens synchronously.
        DKF_RETURN_IF_ERROR(OnMessage(message));
      }
      switch (ack) {
        case SendAck::kAcked:
          // Delivered synchronously: OnMessage already corrected the
          // posterior and the broadcast re-locked this mirror (outages
          // permitting). Nothing else to do — the mirror must never be
          // corrected locally, the posterior is the only truth.
          break;
        case SendAck::kDropped:
          // Definitely lost: the posterior never saw it, the mirror was
          // never touched, next tick's deviation test retries.
          DKF_TRACE(obs_sink_, tick, member_id,
                    TraceEventKind::kSendDropped, TraceActor::kSource, 0.0,
                    0.0, message.sequence);
          break;
        case SendAck::kNoAck:
          // Ambiguous: the posterior may or may not absorb this reading
          // (and the re-lock broadcast may have fired without reaching
          // us). Freeze suppression until a broadcast re-locks the
          // mirror.
          ++group.faults.ambiguous_acks;
          ++group.faults.divergence_events;
          DKF_TRACE(obs_sink_, tick, member_id, TraceEventKind::kDivergence,
                    TraceActor::kSource, 0.0, 0.0, message.sequence);
          member.pending = true;
          member.pending_since = tick;
          member.resync_attempts = 0;
          DKF_RETURN_IF_ERROR(MaybeSendResync(group, member_id, member,
                                              tick, channel));
          break;
      }
    } else {
      // Suppressed: the *fused* prediction — which may already carry
      // another member's evidence from this very tick — still satisfies
      // the group's precision constraint. This is the cross-source
      // suppression the subsystem exists for.
      ++group.suppressed;
      DKF_TRACE(obs_sink_, tick, member_id, TraceEventKind::kFusedSuppress,
                TraceActor::kSource, deviation, group.config.delta);
      if (protocol_.heartbeat_interval > 0 &&
          tick - member.last_send_tick >= protocol_.heartbeat_interval) {
        Message beacon;
        beacon.type = MessageType::kHeartbeat;
        beacon.source_id = member_id;
        beacon.tick = tick;
        beacon.sequence = member.next_sequence++;
        beacon.group_id = group.config.group_id;
        beacon.group_version = member.mirror_version;
        ++group.faults.heartbeats_sent;
        member.last_send_tick = tick;
        DKF_TRACE(obs_sink_, tick, member_id,
                  TraceEventKind::kHeartbeatSent, TraceActor::kSource, 0.0,
                  0.0, beacon.sequence);
        // Heartbeats correct nothing; their ACK carries no divergence
        // risk and is ignored.
        if (channel != nullptr) {
          auto ack_or = channel->Send(beacon);
          if (!ack_or.ok()) return ack_or.status();
        } else {
          DKF_RETURN_IF_ERROR(OnMessage(beacon));
        }
      }
    }
  }

  if (member.pending) ++group.faults.ticks_diverged;
  return Status::OK();
}

Status FusionEngine::MaybeSendResync(Group& group, int member_id,
                                     Member& member, int64_t tick,
                                     Channel* channel) {
  const bool due =
      member.resync_attempts < protocol_.resync_burst_retries ||
      tick - member.last_resync_tick >= protocol_.resync_retry_backoff;
  if (!due) return Status::OK();

  // A fused "resync" is an announcement, not an import: it tells the
  // server "my mirror may be stale — re-lock me". The server never
  // imports member state (the posterior carries every member's evidence;
  // overwriting it with one member's mirror would discard the others').
  Message message;
  message.type = MessageType::kResync;
  message.source_id = member_id;
  message.tick = tick;
  message.sequence = member.next_sequence++;
  message.resync_state = member.mirror.state();
  message.resync_covariance = member.mirror.covariance();
  message.resync_step = member.mirror.step();
  message.group_id = group.config.group_id;
  message.group_version = member.mirror_version;

  ++group.faults.resyncs_sent;
  ++member.resync_attempts;
  member.last_resync_tick = tick;
  member.last_send_tick = tick;
  DKF_TRACE(obs_sink_, tick, member_id, TraceEventKind::kResyncSent,
            TraceActor::kSource, static_cast<double>(member.resync_attempts),
            0.0, message.sequence);

  if (channel == nullptr) {
    // Local loopback: the broadcast the server answers with heals the
    // member synchronously.
    return OnMessage(message);
  }
  auto ack_or = channel->Send(message);
  if (!ack_or.ok()) return ack_or.status();
  // kAcked: the server's re-lock broadcast already ran inside Send (and
  // healed us unless an outage silenced the downlink). kDropped/kNoAck:
  // stay pending, retry per policy.
  return Status::OK();
}

Status FusionEngine::OnMessage(const Message& message) {
  if (message.group_id < 0) {
    return Status::InvalidArgument(
        "plain (non-fused) message routed to the fusion engine");
  }
  auto it = groups_.find(message.group_id);
  if (it == groups_.end()) {
    // A message for an unregistered (removed) group: nowhere to account
    // it, drop silently — the same terminal fate as any stale frame.
    return Status::OK();
  }
  Group& group = it->second;
  const int64_t now = now_;

  // Ingress validation. Rejections are protocol events, not errors.
  if (message.checksum != 0 &&
      message.ComputeChecksum() != message.checksum) {
    ++group.faults.rejected_corrupt;
    DKF_TRACE(obs_sink_, now, message.source_id,
              TraceEventKind::kCorruptReject, TraceActor::kServer, 0.0, 0.0,
              message.sequence);
    return Status::OK();
  }
  auto member_it = group.members.find(message.source_id);
  if (member_it == group.members.end()) {
    // In-flight traffic from a removed member.
    ++group.faults.rejected_stale;
    DKF_TRACE(obs_sink_, now, message.source_id,
              TraceEventKind::kStaleReject, TraceActor::kServer, 0.0, 0.0,
              message.sequence);
    return Status::OK();
  }
  Member& member = member_it->second;
  const bool sequenced = message.sequence != 0;
  if (sequenced && message.sequence <= member.last_sequence) {
    ++group.faults.rejected_stale;  // duplicate or out-of-order
    DKF_TRACE(obs_sink_, now, message.source_id,
              TraceEventKind::kStaleReject, TraceActor::kServer, 0.0, 0.0,
              message.sequence);
    return Status::OK();
  }
  auto accept_sequenced = [&]() {
    if (!sequenced) return;
    group.faults.sequence_gaps +=
        static_cast<int64_t>(message.sequence) -
        static_cast<int64_t>(member.last_sequence) - 1;
    member.last_sequence = message.sequence;
    group.last_valid_tick = now;
  };

  switch (message.type) {
    case MessageType::kMeasurement: {
      // A late measurement was tested against a mirror state the
      // posterior has long left behind; applying it would inject stale
      // evidence. Same rule as the per-source link.
      if (sequenced && message.tick != now) {
        ++group.faults.rejected_stale;
        DKF_TRACE(obs_sink_, now, message.source_id,
                  TraceEventKind::kStaleReject, TraceActor::kServer, 0.0,
                  0.0, message.sequence);
        return Status::OK();
      }
      accept_sequenced();
      DKF_RETURN_IF_ERROR(group.posterior.Correct(message.payload));
      ++group.updates_applied;
      ++group.version;
      DKF_TRACE(obs_sink_, now, message.source_id,
                TraceEventKind::kFusedUpdate, TraceActor::kServer,
                static_cast<double>(group.version), 0.0, message.sequence);
      // Diffuse the new evidence: every reachable member — including
      // ones still to run this tick — now tests against the corrected
      // posterior.
      Broadcast(group);
      return Status::OK();
    }

    case MessageType::kResync: {
      if (now < message.tick) {
        return Status::Internal(
            StrFormat("resync from future tick %lld at server tick %lld",
                      static_cast<long long>(message.tick),
                      static_cast<long long>(now)));
      }
      // The member's shipped mirror state is deliberately ignored (see
      // MaybeSendResync); the server answers with a re-lock broadcast,
      // which is what heals the requester.
      accept_sequenced();
      ++group.faults.resyncs_applied;
      DKF_TRACE(obs_sink_, now, message.source_id,
                TraceEventKind::kResyncApplied, TraceActor::kServer,
                static_cast<double>(now - message.tick), 0.0,
                message.sequence);
      Broadcast(group);
      return Status::OK();
    }

    case MessageType::kHeartbeat:
      // A delayed heartbeat proves nothing about the present.
      if (sequenced && message.tick != now) {
        ++group.faults.rejected_stale;
        DKF_TRACE(obs_sink_, now, message.source_id,
                  TraceEventKind::kStaleReject, TraceActor::kServer, 0.0,
                  0.0, message.sequence);
        return Status::OK();
      }
      accept_sequenced();
      ++group.faults.heartbeats_received;
      DKF_TRACE(obs_sink_, now, message.source_id,
                TraceEventKind::kHeartbeatReceived, TraceActor::kServer, 0.0,
                0.0, message.sequence);
      return Status::OK();

    case MessageType::kModelSwitch:
      return Status::Unimplemented(
          "fusion groups do not carry a model bank");
  }
  return Status::Internal("unknown message type");
}

void FusionEngine::Broadcast(Group& group) {
  // The attempt and its bytes are charged unconditionally (the bits went
  // on air); delivery is gated by scheduled outage windows — a radio
  // blackout silences the downlink too, and the members it strands coast
  // on their stale mirrors until the next broadcast reaches them.
  ++group.broadcasts;
  group.broadcast_bytes += static_cast<int64_t>(
      BroadcastBytesPerMember(group.posterior.state_dim()) *
      group.members.size());
  const bool blacked_out = fault_.ActiveAt(now_) && fault_.InOutage(now_);
  int64_t delivered = 0;
  if (!blacked_out) {
    const KalmanFilter::FullState posterior_state =
        group.posterior.ExportFullState();
    for (auto& [member_id, member] : group.members) {
      // Dimensions agree by construction (same model recipe), so the
      // import cannot fail; a failure here would be memory corruption.
      Status status = member.mirror.ImportFullState(posterior_state);
      (void)status;
      member.mirror_version = group.version;
      member.synced_version = group.version;
      if (member.pending) Heal(group, member_id, member, now_);
      ++delivered;
    }
  }
  DKF_TRACE(obs_sink_, now_, FusedSourceKey(group.config.group_id),
            TraceEventKind::kFusedBroadcast, TraceActor::kServer,
            static_cast<double>(group.version),
            static_cast<double>(delivered));
}

void FusionEngine::Heal(Group& group, int member_id, Member& member,
                        int64_t tick) {
  group.faults.max_recovery_ticks =
      std::max(group.faults.max_recovery_ticks, tick - member.pending_since);
  DKF_TRACE(obs_sink_, tick, member_id, TraceEventKind::kHeal,
            TraceActor::kSource,
            static_cast<double>(tick - member.pending_since));
  member.pending = false;
  member.resync_attempts = 0;
}

bool FusionEngine::IsDegraded(const Group& group) const {
  // Group degradation is staleness-only: there is no single resync-tick
  // coast (a fused answer after a re-lock broadcast is the posterior
  // itself, not an imported guess).
  if (now_ < 0) return false;
  return protocol_.staleness_budget > 0 &&
         now_ - group.last_valid_tick >= protocol_.staleness_budget;
}

int64_t FusionEngine::OverdueTicks(const Group& group) const {
  if (now_ < 0 || protocol_.staleness_budget <= 0) return 0;
  return std::max<int64_t>(
      now_ - group.last_valid_tick - protocol_.staleness_budget + 1, 0);
}

Result<Vector> FusionEngine::Answer(int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return it->second.posterior.PredictedMeasurement();
}

Result<FusionEngine::ConfidentAnswer> FusionEngine::AnswerWithConfidence(
    int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  const Group& group = it->second;
  ConfidentAnswer answer;
  answer.value = group.posterior.PredictedMeasurement();
  // H P H^T computed as S - R, the same projection KalmanPredictor
  // serves for per-source confidence answers.
  answer.covariance = group.posterior.InnovationCovariance();
  answer.covariance -= group.posterior.measurement_noise();
  answer.covariance.Symmetrize();
  if (IsDegraded(group)) {
    answer.degraded = true;
    const double scale = 1.0 + protocol_.degraded_inflation *
                                   static_cast<double>(OverdueTicks(group));
    for (size_t r = 0; r < answer.covariance.rows(); ++r) {
      for (size_t c = 0; c < answer.covariance.cols(); ++c) {
        answer.covariance(r, c) *= scale;
      }
    }
  }
  return answer;
}

Result<bool> FusionEngine::answer_degraded(int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return IsDegraded(it->second);
}

Result<InformationState> FusionEngine::PosteriorInformation(
    int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return ToInformation(it->second.posterior.state(),
                       it->second.posterior.covariance());
}

Result<bool> FusionEngine::set_group_delta(int group_id, double delta) {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  if (!(delta > 0.0)) {
    return Status::InvalidArgument("delta must be positive");
  }
  const bool changed = it->second.config.delta != delta;
  it->second.config.delta = delta;
  return changed;
}

Result<double> FusionEngine::group_delta(int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return it->second.config.delta;
}

Result<double> FusionEngine::group_base_delta(int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return it->second.base_delta;
}

Result<bool> FusionEngine::member_pending(int member_id) const {
  auto group_it = member_to_group_.find(member_id);
  if (group_it == member_to_group_.end()) {
    return Status::NotFound(
        StrFormat("fusion member %d not registered", member_id));
  }
  return groups_.at(group_it->second).members.at(member_id).pending;
}

Result<int64_t> FusionEngine::group_updates_applied(int group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return it->second.updates_applied;
}

Status FusionEngine::VerifyGroupConsistency() const {
  for (const auto& [group_id, group] : groups_) {
    for (const auto& [member_id, member] : group.members) {
      if (member.pending || member.synced_version != group.version) {
        continue;  // excused: mid-heal, or the last broadcast missed it
      }
      if (!member.mirror.StateEquals(group.posterior)) {
        return Status::Internal(StrFormat(
            "fused mirror of member %d diverged from group %d's posterior "
            "at version %lld",
            member_id, group_id, static_cast<long long>(group.version)));
      }
    }
  }
  return Status::OK();
}

FusionStats FusionEngine::stats() const {
  FusionStats stats;
  stats.groups = static_cast<int64_t>(groups_.size());
  stats.members = static_cast<int64_t>(member_to_group_.size());
  for (const auto& [group_id, group] : groups_) {
    stats.updates_applied += group.updates_applied;
    stats.suppressed += group.suppressed;
    stats.transmissions += group.transmissions;
    stats.broadcasts += group.broadcasts;
    stats.broadcast_bytes += group.broadcast_bytes;
    stats.faults.MergeFrom(group.faults);
  }
  return stats;
}

void FusionEngine::set_trace_sink(TraceSink* sink) {
  obs_sink_ = sink;
  for (auto& [group_id, group] : groups_) {
    group.posterior.set_trace(sink, FusedSourceKey(group_id),
                              TraceActor::kServerFilter);
    for (auto& [member_id, member] : group.members) {
      member.mirror.set_trace(sink, member_id, TraceActor::kSourceFilter);
    }
  }
}

std::vector<FusionEngine::GroupState> FusionEngine::ExportGroups() const {
  std::vector<GroupState> out;
  out.reserve(groups_.size());
  for (const auto& [group_id, group] : groups_) {
    GroupState state;
    state.group_id = group_id;
    state.model = group.config.model;
    state.delta = group.config.delta;
    state.base_delta = group.base_delta;
    state.norm = group.config.norm;
    state.posterior = group.posterior.ExportFullState();
    state.version = group.version;
    state.last_valid_tick = group.last_valid_tick;
    state.faults = group.faults;
    state.updates_applied = group.updates_applied;
    state.suppressed = group.suppressed;
    state.transmissions = group.transmissions;
    state.broadcasts = group.broadcasts;
    state.broadcast_bytes = group.broadcast_bytes;
    for (const auto& [member_id, member] : group.members) {
      MemberState member_state;
      member_state.source_id = member_id;
      member_state.mirror = member.mirror.ExportFullState();
      member_state.mirror_version = member.mirror_version;
      member_state.pending = member.pending;
      member_state.pending_since = member.pending_since;
      member_state.resync_attempts = member.resync_attempts;
      member_state.last_resync_tick = member.last_resync_tick;
      member_state.last_send_tick = member.last_send_tick;
      member_state.next_sequence = member.next_sequence;
      member_state.last_sequence = member.last_sequence;
      member_state.synced_version = member.synced_version;
      state.members.push_back(std::move(member_state));
    }
    out.push_back(std::move(state));
  }
  return out;
}

Status FusionEngine::ImportGroup(const GroupState& state) {
  FusionGroupConfig config;
  config.group_id = state.group_id;
  config.model = state.model;
  config.delta = state.delta;
  config.norm = state.norm;
  for (const MemberState& member_state : state.members) {
    config.member_ids.push_back(member_state.source_id);
  }
  DKF_RETURN_IF_ERROR(RegisterGroup(config));
  Group& group = groups_.at(state.group_id);
  group.base_delta = state.base_delta;
  DKF_RETURN_IF_ERROR(group.posterior.ImportFullState(state.posterior));
  group.version = state.version;
  group.last_valid_tick = state.last_valid_tick;
  group.faults = state.faults;
  group.updates_applied = state.updates_applied;
  group.suppressed = state.suppressed;
  group.transmissions = state.transmissions;
  group.broadcasts = state.broadcasts;
  group.broadcast_bytes = state.broadcast_bytes;
  for (const MemberState& member_state : state.members) {
    Member& member = group.members.at(member_state.source_id);
    DKF_RETURN_IF_ERROR(member.mirror.ImportFullState(member_state.mirror));
    member.mirror_version = member_state.mirror_version;
    member.pending = member_state.pending;
    member.pending_since = member_state.pending_since;
    member.resync_attempts = member_state.resync_attempts;
    member.last_resync_tick = member_state.last_resync_tick;
    member.last_send_tick = member_state.last_send_tick;
    member.next_sequence = member_state.next_sequence;
    member.last_sequence = member_state.last_sequence;
    member.synced_version = member_state.synced_version;
  }
  return Status::OK();
}

}  // namespace dkf
