#ifndef DKF_FUSION_FUSION_ENGINE_H_
#define DKF_FUSION_FUSION_ENGINE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "dsms/channel.h"
#include "dsms/protocol.h"
#include "filter/fusion_kernels.h"
#include "filter/kalman_filter.h"
#include "metrics/fault_stats.h"
#include "models/state_model.h"
#include "obs/trace_sink.h"

namespace dkf {

/// Largest group id RegisterGroup accepts, chosen so the fused serve keys
/// (FusedSourceKey, serve/subscription.h) can never collide with the
/// aggregate key range.
inline constexpr int kMaxFusionGroupId = 1 << 28;

/// Registration recipe for one fusion group: N member sensors observing
/// one shared physical state through the same measurement model.
struct FusionGroupConfig {
  int group_id = 0;
  /// The shared state recipe. One fused posterior is built from it on the
  /// server; every member's fused mirror is a bit-exact copy.
  StateModel model;
  /// Member ids. They share the channel's per-source fault-stream
  /// namespace with plain sources, so they must be disjoint from every
  /// registered source id (hosts validate this).
  std::vector<int> member_ids;
  /// The group's event-trigger threshold delta (docs/fusion.md §2): a
  /// member transmits only when its reading deviates from the *fused*
  /// prediction by more than this in some component (max-abs, §5.1).
  double delta = 1.0;
};

/// Lifetime counters for the fusion subsystem, on top of the shared
/// protocol fault taxonomy.
struct FusionStats {
  int64_t groups = 0;
  int64_t members = 0;
  /// Member corrections applied to a fused posterior.
  int64_t updates_applied = 0;
  /// Member readings suppressed against the fused mirror.
  int64_t suppressed = 0;
  /// Member measurement transmissions attempted.
  int64_t transmissions = 0;
  /// Posterior re-lock broadcasts attempted (each fans out to the whole
  /// group over the out-of-band downlink).
  int64_t broadcasts = 0;
  /// Downlink bytes those broadcasts cost — reported so the uplink
  /// savings the fused trigger buys are never quoted without the
  /// downlink price (docs/fusion.md §4).
  int64_t broadcast_bytes = 0;
  ProtocolFaultStats faults;

  /// Folds another engine's counters in (the sharded runtime merges one
  /// FusionEngine per shard).
  void MergeFrom(const FusionStats& other) {
    groups += other.groups;
    members += other.members;
    updates_applied += other.updates_applied;
    suppressed += other.suppressed;
    transmissions += other.transmissions;
    broadcasts += other.broadcasts;
    broadcast_bytes += other.broadcast_bytes;
    faults.MergeFrom(other.faults);
  }
};

/// The multi-sensor fusion subsystem (docs/fusion.md): event-triggered
/// diffusion of N correlated sensors into one fused posterior.
///
/// Server side, per group: one KalmanFilter posterior built from the
/// group's shared StateModel, corrected by whichever member's reading
/// breaks the event trigger, in arrival order — the sequential
/// covariance-form execution of the additive information-form fusion
/// (filter/fusion_kernels.h). Source side, per member: a fused mirror
/// that tracks the posterior bit-exactly. After every applied correction
/// the server re-locks all reachable members' mirrors over the instant
/// out-of-band downlink (the same control path reconfiguration uses), so
/// members later in the tick test their readings against a posterior
/// that already absorbed the first mover's evidence — that intra-tick
/// diffusion is where the cross-source suppression win comes from.
///
/// Uplink traffic (measurements, resyncs, heartbeats) flows through the
/// host's chaotic Channel under the member's own per-source fault
/// stream; scheduled outage windows silence the downlink too, so a
/// member can miss re-lock broadcasts and coast on a stale mirror until
/// the next broadcast reaches it. Mirror consistency is therefore
/// guaranteed for members that are not pending resync AND saw the latest
/// broadcast (VerifyGroupConsistency checks exactly that set).
///
/// Thread contract: same as the owning shard — BeginTick/ProcessReadings
/// from the shard's worker inside ProcessTick, everything else from the
/// driver thread between ticks.
class FusionEngine {
 public:
  FusionEngine(const ProtocolOptions& protocol, const FaultModel& fault)
      : protocol_(protocol), fault_(fault) {}

  /// Registers a group with >= 1 members and builds the posterior and
  /// every member mirror from the shared model. Member ids must be
  /// unique within the group; hosts additionally guarantee they are
  /// disjoint from plain source ids engine-wide.
  Status RegisterGroup(const FusionGroupConfig& config);

  /// Adds a member to a live group between ticks. Its fused mirror is
  /// born as a bit-exact copy of the current posterior (the server hands
  /// the newcomer the group state at admission).
  Status AddMember(int group_id, int member_id);

  /// Removes a member between ticks. Messages it still has in flight are
  /// stale-rejected on arrival. The last member cannot be removed — a
  /// group always has an observer.
  Status RemoveMember(int group_id, int member_id);

  bool has_group(int group_id) const { return groups_.contains(group_id); }
  bool owns_member(int member_id) const {
    return member_to_group_.contains(member_id);
  }
  /// The owning group of a member id, or -1.
  int member_group(int member_id) const {
    auto it = member_to_group_.find(member_id);
    return it == member_to_group_.end() ? -1 : it->second;
  }
  bool active() const { return !groups_.empty(); }
  size_t num_groups() const { return groups_.size(); }
  size_t num_members() const { return member_to_group_.size(); }
  std::vector<int> group_ids() const;
  Result<std::vector<int>> group_members(int group_id) const;

  /// Every member id in tick order: ascending group id, then ascending
  /// member id.
  std::vector<int> member_tick_order() const;

  /// Starts tick `tick`: advances the posterior and every member mirror
  /// one Predict in lockstep. Must run before the host's
  /// Channel::BeginTick so delayed fused deliveries land on the
  /// post-predict posterior, mirroring ServerNode's TickAll ordering.
  Status BeginTick(int64_t tick);

  /// Runs every member's event-trigger protocol step for this tick, in
  /// tick order (member_tick_order), after the host's plain sources.
  /// `readings[k]` is the reading of the k-th member in that order, as
  /// the host resolved it from its tick batch.
  Status ProcessReadings(int64_t tick,
                         const std::vector<const Vector*>& readings,
                         Channel* channel);

  /// Ingress for fused traffic (message.group_id >= 0) — the host's
  /// channel sink routes here instead of ServerNode::OnMessage.
  Status OnMessage(const Message& message);

  /// The fused answer: the posterior's predicted measurement H x.
  Result<Vector> Answer(int group_id) const;

  /// The fused answer with its projected covariance H P H^T, inflated by
  /// (1 + degraded_inflation * overdue) while the group is degraded.
  struct ConfidentAnswer {
    Vector value;
    Matrix covariance;
    bool degraded = false;
  };
  Result<ConfidentAnswer> AnswerWithConfidence(int group_id) const;

  /// Whether the whole group has gone silent past the staleness budget
  /// (no member correction, resync, or heartbeat validated recently).
  Result<bool> answer_degraded(int group_id) const;

  /// The posterior in information form (filter/fusion_kernels.h) — the
  /// additive fusion coordinates, for introspection and cross-checks.
  Result<InformationState> PosteriorInformation(int group_id) const;

  /// Installs a new event-trigger threshold. Returns whether it changed
  /// (the host charges one control message per member on change — every
  /// member must learn the new trigger).
  Result<bool> set_group_delta(int group_id, double delta);
  Result<double> group_delta(int group_id) const;

  /// The delta the group was registered with — what a host reverts to
  /// when the last fused query over the group is removed.
  Result<double> group_base_delta(int group_id) const;

  /// Whether a member is in the pending-resync state.
  Result<bool> member_pending(int member_id) const;

  /// Lifetime count of corrections one group applied.
  Result<int64_t> group_updates_applied(int group_id) const;

  /// The extended mirror-consistency contract (docs/fusion.md §3): every
  /// member that is not pending resync and saw the latest re-lock
  /// broadcast must hold a mirror bit-identical to the fused posterior.
  Status VerifyGroupConsistency() const;

  /// Merged lifetime counters over every group.
  FusionStats stats() const;

  void set_trace_sink(TraceSink* sink);

  // ---- checkpoint hooks (src/checkpoint/engine_checkpoint.cc) -------

  /// Everything one member carries across a snapshot: its sender half
  /// (the member's LinkSender, copied whole) plus the fused mirror and
  /// the cursors. The member's channel lane travels separately (the host
  /// owns the channel).
  struct MemberState : LinkSender {
    int source_id = 0;
    KalmanFilter::FullState mirror;
    int64_t mirror_version = 0;
    uint32_t last_sequence = 0;  // server-side duplicate/stale cursor
    int64_t synced_version = 0;  // server-side broadcast reach cursor
  };

  /// Everything one group carries across a snapshot.
  struct GroupState {
    int group_id = 0;
    StateModel model;
    double delta = 1.0;       // current effective event trigger
    double base_delta = 1.0;  // registration-time trigger (revert target)
    KalmanFilter::FullState posterior;
    int64_t version = 0;
    int64_t last_valid_tick = -1;
    ProtocolFaultStats faults;
    int64_t updates_applied = 0;
    int64_t suppressed = 0;
    int64_t transmissions = 0;
    int64_t broadcasts = 0;
    int64_t broadcast_bytes = 0;
    std::vector<MemberState> members;  // ascending member id
  };

  std::vector<GroupState> ExportGroups() const;

  /// Registers a group from a snapshot with its full running state.
  Status ImportGroup(const GroupState& state);

  /// Restores the tick clock after imports: the last completed tick
  /// (the host's tick count minus one; -1 when no tick has run).
  void RestoreClock(int64_t now) { now_ = now; }

 private:
  struct Member {
    explicit Member(KalmanFilter mirror_filter)
        : mirror(std::move(mirror_filter)) {
      // A member's resync clock starts at 0 (SourceNode's at -1); the
      // snapshot encodes it, so it stays.
      link.last_resync_tick = 0;
    }

    KalmanFilter mirror;
    int64_t mirror_version = 0;
    /// The sender half, SourceNode's rules: sequence counter, heartbeat
    /// clock (the same -1 start, so a single-member group heartbeats on
    /// a plain source's schedule) and divergence episode.
    LinkSender link;
    uint32_t last_sequence = 0;
    int64_t synced_version = 0;
  };

  struct Group {
    Group(FusionGroupConfig group_config, KalmanFilter posterior_filter)
        : config(std::move(group_config)),
          posterior(std::move(posterior_filter)) {}

    FusionGroupConfig config;  // member_ids kept ascending; delta = effective
    double base_delta = 1.0;   // registration-time delta
    KalmanFilter posterior;
    int64_t version = 0;
    int64_t last_valid_tick = -1;
    ProtocolFaultStats faults;
    int64_t updates_applied = 0;
    int64_t suppressed = 0;
    int64_t transmissions = 0;
    int64_t broadcasts = 0;
    int64_t broadcast_bytes = 0;
    std::map<int, Member> members;
  };

  /// Re-locks every reachable member's mirror to the posterior after a
  /// version bump. Gated as a whole by scheduled outage windows (radio
  /// blackout silences the downlink too); the attempt and its bytes are
  /// charged either way — the bits went on air.
  void Broadcast(Group& group);

  Status StepMember(Group& group, int member_id, Member& member,
                    const Vector& reading, int64_t tick, Channel* channel);
  Status MaybeSendResync(Group& group, int member_id, Member& member,
                         int64_t tick, Channel* channel);
  /// DegradedOverdueTicks for the group at `now_`: >= 1 exactly when the
  /// group is degraded.
  int64_t OverdueTicks(const Group& group) const;

  ProtocolOptions protocol_;
  FaultModel fault_;
  std::map<int, Group> groups_;
  std::map<int, int> member_to_group_;
  /// The last begun tick; -1 before the first BeginTick, so a group
  /// registered before the run starts gets the same staleness-clock
  /// origin ServerNode gives a source registered at construction.
  int64_t now_ = -1;
  TraceSink* obs_sink_ = nullptr;
};

}  // namespace dkf

#endif  // DKF_FUSION_FUSION_ENGINE_H_
