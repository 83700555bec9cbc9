#ifndef DKF_FLEET_FLEET_ENGINE_H_
#define DKF_FLEET_FLEET_ENGINE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/predictor.h"
#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "dsms/protocol.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "models/state_model.h"
#include "obs/trace_sink.h"

namespace dkf {

/// The engine-level tick input: readings in a flat parallel-array layout
/// instead of a std::map, so a million-source tick costs no tree
/// lookups. `ids[i]` owns `values[i]`. The order is the caller's; the
/// engine resolves each shard's positions once per id layout, so a
/// stable order is fastest but not required.
struct ReadingBatch {
  std::vector<int> ids;
  std::vector<Vector> values;
};

/// Why a resident lane left its batch. Every spill has exactly one.
enum class FleetSpillReason : uint8_t {
  kDeviation,    // the flat predict missed the reading by more than delta
  kReconfigure,  // SpillForReconfigure (a smoothing change), between ticks
  kNonFinite,    // the flat predict left the finite range
  kArmPending,   // the arm-pending replay missed the reading by > delta
};

/// Why the end-of-tick absorb scan left a spilled source spilled — the
/// first check it failed, in the order the scan runs them.
enum class FleetAbsorbReject : uint8_t {
  kResyncPending,      // the node is in a pending-resync episode
  kChannelResidue,     // a message or deferred ACK is still in flight
  kNodePending,        // resync bookkeeping left over, or smoothing on
  kServoUnsettled,     // the noise servo has not locked at both ends
  kFullStateMismatch,  // the ends differ in what a predict reads, or Q/R moved
};

/// Names used in the `fleet.spill.<reason>` and
/// `fleet.absorb_reject.<reason>` gauges, indexed by the enums above.
inline constexpr std::array<const char*, 4> kFleetSpillReasonNames = {
    "deviation", "reconfigure", "non_finite", "arm_pending"};
inline constexpr std::array<const char*, 5> kFleetAbsorbRejectNames = {
    "resync_pending", "channel_residue", "node_pending", "servo_unsettled",
    "full_state_mismatch"};
static_assert(kFleetSpillReasonNames.size() ==
              static_cast<size_t>(FleetSpillReason::kArmPending) + 1);
static_assert(kFleetAbsorbRejectNames.size() ==
              static_cast<size_t>(FleetAbsorbReject::kFullStateMismatch) + 1);

/// Lifetime residency counters of one fleet engine, or their sum over a
/// sharded engine's shards. Every count is a function of per-source link
/// state only, so the sums are identical at any shard count.
struct FleetCounters {
  std::array<int64_t, kFleetSpillReasonNames.size()> spills{};
  std::array<int64_t, kFleetAbsorbRejectNames.size()> absorb_rejects{};

  int64_t spill_total() const;
  FleetCounters& operator+=(const FleetCounters& other);
  bool operator==(const FleetCounters& other) const = default;
};

/// What a fleet engine holds for its tracked sources, or the sum over a
/// sharded engine's shards (docs/fleet.md, "Memory per source").
struct FleetFootprint {
  int64_t nodes_live = 0;    // SourceNodes held: the spilled sources
  int64_t lane_groups = 0;   // groups holding at least one resident lane
  int64_t cold_records = 0;  // distinct frozen-cycle records
  int64_t cold_refs = 0;     // their reference counts (2 per resident lane)
  int64_t cold_bytes = 0;    // the cold tables' storage, from capacities

  FleetFootprint& operator+=(const FleetFootprint& other);
};

/// Structure-of-arrays batched tick engine for steady-state sources
/// (docs/fleet.md).
///
/// Every source a shard owns is *tracked* here when the batched fleet
/// path is enabled. A tracked source is in exactly one of two states:
///
///  * **spilled** — it lives on the classic per-source path: its
///    SourceNode processes readings, its predictor is registered with
///    the ServerNode, and this engine only watches it for re-entry.
///  * **resident** — its entire dual link is folded into one SoA *lane*:
///    a single copy of the (bit-identical) mirror/predictor filter state
///    packed into contiguous arrays, ticked by a loop over the same
///    linalg/kernels.h kernels KalmanFilter::Predict runs. While
///    resident the source is NOT registered with the ServerNode and has
///    no SourceNode: the lane plus a small record of the node-only fields
///    is the only copy of the link.
///
/// The invariant that makes this bit-exact (the equivalence contract of
/// docs/fleet.md): a lane only ever executes *suppressed healthy ticks*
/// inline — a plain predict inside delta, plus the heartbeat such a tick
/// sends when one is due. The lane sends that heartbeat through the
/// channel exactly as SourceNode::ProcessReading would (same sequence
/// number, charge, counters, trace and per-source fault draws), owns its
/// ingress (the shard's channel sink routes a resident source's messages
/// to OnMessage, which validates them with ServerNode::Admit) and
/// collects the deferred ACK of a delayed one. Any tick on which the
/// source would send a measurement or its filter would do anything but a
/// plain predict first *spills* the source back to per-source objects
/// (rebuilt bit-for-bit from the lane, its group and its record) and
/// then runs the verbatim per-source code. A spilled source re-enters
/// (is *absorbed*) only with no channel residue and when its mirror and
/// server predictor agree bit for bit on everything a predict reads; the
/// bookkeeping a resync resets on the server end only is kept per end,
/// so folding the pair into one lane loses nothing.
///
/// Threading contract: same as the shard that owns it — ProcessTick on
/// the shard's worker thread, everything else on the driver between
/// ticks.
class FleetEngine {
 public:
  /// `server`, `channel` are the owning shard's; they must outlive this
  /// engine. `protocol`/`energy` must be the options the shard builds
  /// its SourceNodes with (the lane replicates their accounting).
  FleetEngine(ServerNode* server, Channel* channel,
              const ProtocolOptions& protocol,
              const EnergyModelOptions& energy);

  /// Starts managing a source. Call right after the shard has created
  /// the source's node in `*slot` and registered the source with the
  /// server (the shard refuses a repeated id): the source starts out
  /// spilled and is absorbed at the end of the first tick that leaves
  /// its link healthy and bit-converged.
  /// `slot` is the shard's owning pointer and must stay at one address
  /// for this engine's lifetime: absorbing the source frees the node
  /// (`*slot` becomes null) and spilling it rebuilds one in place.
  /// Sources with a time-varying transition are tracked but never
  /// absorbed (no constant coefficients to cache).
  Status Track(int source_id, const StateModel& model,
               std::unique_ptr<SourceNode>* slot);

  /// True when the source is currently folded into a lane.
  bool resident(int source_id) const;

  size_t resident_count() const;

  /// Degraded ticks accounted on resident lanes (the server counts the
  /// spilled ones); the shard adds this to its merged fault counters.
  int64_t degraded_ticks() const { return degraded_ticks_; }

  /// Lifetime count of lane spills (mid-tick protocol spills plus
  /// reconfigure spills): the sum of counters().spills. A governor sweep
  /// that keeps a cohort's deltas stable must not move this — churn
  /// tests pin it.
  int64_t spill_count() const { return counters_.spill_total(); }

  /// Spills by reason and absorb rejects by reason.
  const FleetCounters& counters() const { return counters_; }

  /// Live nodes and cold-table occupancy, counted from the real slots
  /// and tables.
  FleetFootprint footprint() const;

  /// The per-source facts the shard reports for a resident source,
  /// answered from its lane and node record, and the lane's address, which
  /// the answer and checkpoint entries below take in place of an id.
  struct ResidentSource {
    double delta = 0.0;
    int64_t updates_sent = 0;
    int64_t readings = 0;
    /// The lane's energy columns summed as EnergyAccount::total() does.
    double energy = 0.0;
    size_t measurement_dim = 0;
    /// The recipe the source was registered with: its nominal group's
    /// model, never the adapted group a servo-moved lane ticks in.
    const StateModel* model = nullptr;
    /// The mirror-side noise servo (a disabled one without adaptation).
    const NoiseAdapter* noise_adapter = nullptr;
    int32_t group = -1;
    int32_t lane = 0;
  };

  /// nullopt when the source is not resident.
  std::optional<ResidentSource> FindResident(int source_id) const;

  /// Answer surface for a resident source, bit-identical to what the
  /// ServerNode answers for the same link: KalmanFilter's answer kernels
  /// run on the lane's server end in place (x and P from the lane, P
  /// from the cold record while the lane defers its frozen-cycle copy, H
  /// from the group, R from the cold record), with the same degraded
  /// inflation. Reads only; no filter is built.
  Vector Answer(const ResidentSource& source) const;
  ServerNode::ConfidentAnswer AnswerWithConfidence(
      const ResidentSource& source) const;
  /// ServerNode::AnswerScalar's reading of the lane.
  double AnswerScalar(const ResidentSource& source, double* variance) const;
  bool answer_degraded(const ResidentSource& source) const;

  /// Checkpoint surface for a resident source: the exact per-source
  /// snapshots a spilled run would capture, from the lane, its group and
  /// its node record. The mirror and predictor of a resident source are
  /// bitwise equal by construction, so both carry the same filter bits.
  SourceNode::CheckpointState SynthesizeSourceState(
      const ResidentSource& source) const {
    return SynthesizeForLane(*groups_[source.group], source.lane);
  }
  ServerNode::LinkSnapshot SynthesizeLinkState(
      const ResidentSource& source) const {
    return SynthesizeLinkForLane(*groups_[source.group], source.lane);
  }

  /// Adds every resident source's source-side fault counters (kept in
  /// its node record) to `merged`.
  void MergeResidentFaults(ProtocolFaultStats* merged) const;

  void set_trace_sink(TraceSink* sink) { obs_sink_ = sink; }

  /// Spills a resident source between ticks so a smoothing change
  /// (set_smoothing) runs through the real SourceNode. No-op when the
  /// source is already spilled. The source re-enters at the end of the
  /// next tick if still eligible.
  Status SpillForReconfigure(int source_id);

  /// Installs a new delta on a resident source's lane in place, between
  /// ticks — SourceNode::set_delta's rule for a source without a node.
  /// NotFound when the source is not resident.
  Status SetDelta(int source_id, double delta);

  /// Ingress for a resident source (the shard's channel sink routes here
  /// when `resident(message.source_id)`): validates the message against
  /// the lane's link bookkeeping through ServerNode::Admit. A lane only
  /// ever sends heartbeats, and absorption waits out every message of
  /// the spilled node, so any other type is an Internal error.
  Status OnMessage(const Message& message);

  /// One protocol tick over every tracked source, bit-identical to
  /// RunSourceTick over the same ids: spilled sources run the verbatim
  /// per-source path, resident lanes run the flat suppressed-predict
  /// kernel (spilling first if the tick is anything but a suppressed
  /// healthy predict), and newly re-converged sources are absorbed at
  /// the end. `positions[i]` is the index in `values` of the reading of
  /// the i-th tracked source in ascending id — the shard's resolved
  /// ShardReadingSlice, one entry per tracked source.
  Status ProcessTick(int64_t tick, const std::vector<Vector>& values,
                     const std::vector<uint32_t>& positions);

 private:
  /// Phase / SsMode enum values mirrored from KalmanFilter::FullState's
  /// uint8_t encoding.
  static constexpr uint8_t kPhaseInitial = 0;
  static constexpr uint8_t kPhasePredicted = 1;
  static constexpr uint8_t kPhaseCorrected = 2;
  static constexpr uint8_t kSsTracking = 0;
  static constexpr uint8_t kSsArmPending = 1;
  static constexpr uint8_t kSsArmed = 2;

  /// Refcounted set of the distinct cold records of one group: lanes
  /// whose cold records are bit-identical share one entry. A record is
  /// the six int32 scalars of the filter's convergence bookkeeping, then
  /// the filter's cold segment (KalmanStateLayout's [q, innovation): Q,
  /// R, the convergence history and the frozen cycle), flat; its own
  /// bytes are its hash key.
  class ColdTable {
   public:
    /// Records of `stride` doubles.
    explicit ColdTable(size_t stride) : stride_(stride) {}
    ColdTable(const ColdTable&) = delete;
    ColdTable& operator=(const ColdTable&) = delete;

    size_t stride() const { return stride_; }
    /// The index of the record bit-equal to `record` (which must not
    /// point into this table), adding it when new; takes one reference.
    int32_t Acquire(const double* record);
    /// Drops one reference; the record is freed with its last one.
    void Release(int32_t index);
    const double* operator[](int32_t index) const {
      return records_.data() + static_cast<size_t>(index) * stride_;
    }
    size_t size() const { return by_hash_.size(); }
    int64_t references() const;
    /// Heap bytes held, from the containers' capacities.
    int64_t bytes() const;

   private:
    size_t Hash(const double* record) const;

    size_t stride_;
    std::vector<double> records_;  // stride_ doubles per index
    std::vector<int32_t> refs_;
    std::vector<int32_t> free_;
    std::unordered_multimap<size_t, int32_t> by_hash_;
  };

  /// What a resident source's freed SourceNode held beyond the lane.
  /// Everything else a node carries is fixed while resident: absorption
  /// requires no resync episode, smoothing off and the default KF_c
  /// variance, and a lane sends only heartbeats, whose ACKs change
  /// nothing outside a resync episode.
  struct NodeRecord {
    int64_t updates_sent = 0;
    int64_t pending_since = 0;
    int64_t last_resync_tick = -1;
    uint32_t next_sequence = 1;
    ProtocolFaultStats faults;
    /// Mirror-side servo; adaptive links only (bit-equal to the
    /// server's, which absorption required).
    std::unique_ptr<NoiseAdapter> adapter;
  };

  /// The two ends of a folded link, indexing Group::ends.
  enum End : uint8_t { kMirrorEnd = 0, kServerEnd = 1 };

  /// Bits of Group::delivered.
  static constexpr uint8_t kAckDue = 1;          // a delayed message landed
  static constexpr uint8_t kServerDisarmed = 2;  // its coasting-break event
                                                 // is already emitted

  /// The fields a resync's ImportState resets on the server end only and
  /// a suppressed predict never reads, kept once per end: the cold-record
  /// index and last_innovation (m doubles per lane, valid iff
  /// has_innovation — a filter that never corrected has none). The two
  /// ends agree whenever a lane is not in tracking mode (AbsorbTarget
  /// demands it), and a lane never corrects, so nothing here changes
  /// while it is resident. The third such field, predicts_since_correct,
  /// is Group::psc plus Group::server_psc_skew.
  struct EndColumns {
    std::vector<int32_t> cold_idx;
    std::vector<double> innovation;
    std::vector<uint8_t> has_innovation;
  };

  /// All lanes sharing one model recipe. The per-model coefficients are
  /// copied flat exactly once here, and every per-lane quantity lives in
  /// a parallel array indexed by lane.
  struct Group {
    explicit Group(const StateModel& recipe);

    StateModel model;  // canonical recipe (server re-registration at spill)
    size_t n = 0;      // state dimension
    size_t m = 0;      // measurement dimension
    KalmanStateLayout layout;  // where each filter value lives

    // The lane loop's coefficients, row-major: the model recipe's phi,
    // H and Q, the bits every filter of the group copies into its block.
    // Kept here, allocated with the scratch below on the thread that
    // builds the group: read in place from the replay filter's block,
    // they made the 4-shard steady fleet tick about 30% slower (1 shard
    // was unaffected; the cause was not isolated).
    std::vector<double> phi;  // n x n
    std::vector<double> h;    // m x n
    std::vector<double> q;    // n x n

    // Hot SoA lane state (everything a suppressed predict touches).
    std::vector<int> ids;
    std::vector<double> x;        // n per lane
    std::vector<double> p;        // n*n per lane; invalid while p_stale
    std::vector<int64_t> step;
    std::vector<int64_t> psc;  // the mirror end's predicts_since_correct
    std::vector<uint8_t> phase;
    std::vector<uint8_t> ss_mode;
    std::vector<int32_t> ss_idx;
    std::vector<uint8_t> p_stale;  // armed lanes defer the frozen-P copy
    std::vector<double> delta;
    std::vector<int64_t> last_send_tick;
    std::vector<int64_t> readings;
    std::vector<double> energy_transmission;
    std::vector<double> energy_compute;
    std::vector<double> energy_sensing;
    // Server-side link bookkeeping (staleness / degraded accounting).
    std::vector<uint32_t> link_last_sequence;
    std::vector<int64_t> link_last_valid_tick;
    std::vector<int64_t> link_last_resync_tick;
    std::vector<int64_t> link_last_update_tick;
    // kAckDue / kServerDisarmed, set by OnMessage when a delayed message
    // lands; the lane's next tick reads and clears them, so lanes with
    // nothing in flight never touch the channel's ACK map.
    std::vector<uint8_t> delivered;
    // The server end's predicts_since_correct minus the mirror end's: a
    // predict advances both, so it is constant while resident.
    std::vector<int64_t> server_psc_skew;
    // Frozen-cycle length, duplicated out of the cold record so the
    // armed predict never touches it.
    std::vector<int32_t> ss_period;
    // Index of the lane's entry in `order_`, and the per-tick resolved
    // reading pointer.
    std::vector<int32_t> order_pos;
    std::vector<const Vector*> value_ptrs;

    // Cold state: the filter values a suppressed predict never touches
    // (frozen gain/covariance cycle, streak history, noise copies, the
    // armed path's ss_prior_p source) are shared through `cold_table`,
    // which each end's `cold_idx` indexes. `cold_scratch` stages one
    // record for Acquire.
    std::array<EndColumns, 2> ends;
    ColdTable cold_table;
    std::vector<double> cold_scratch;

    // Node-only fields of each lane's freed SourceNode.
    std::vector<NodeRecord> node_records;

    // Scratch for the decide-before-commit predict.
    std::vector<double> sx;   // n
    std::vector<double> sp1;  // n*n
    std::vector<double> sp2;  // n*n

    // Executes the rare arm-pending tick through the real filter so the
    // freeze transition stays bit-exact, trace events included.
    std::optional<KalmanPredictor> replay;

    // A fresh node of this model, cloned to rebuild a spilled source
    // (and its mirror cloned for the server predictor). Set on groups
    // that are some tracked source's nominal group.
    std::unique_ptr<SourceNode> prototype;
  };

  /// One tracked source in the flat per-tick pass. `order_` (ascending
  /// id) is the authority on residency: a spill or absorb edits its entry
  /// in place — the lane's `order_pos` finds it — and only a membership
  /// change rebuilds the vector.
  struct TickEntry {
    std::unique_ptr<SourceNode>* slot = nullptr;  // node null = resident
    int id = 0;
    int32_t nominal_group = -1;   // -1 = never batchable
    int32_t group = -1;           // group of the current lane; -1 = spilled
    int32_t lane = 0;
  };

  /// The group for `model`, created on first use; -1 when the model is
  /// ineligible for batching (time-varying transition).
  Result<int> GroupFor(const StateModel& model);

  /// The `order_` entry for `source_id`, or nullptr. Sources staged in
  /// `pending_` are not found; they are all spilled.
  const TickEntry* FindEntry(int source_id) const;

  /// Reconstructs the FullState of one end of the lane's link.
  KalmanFilter::FullState LaneFullState(const Group& g, size_t lane,
                                        End end) const;

  /// P (n x n) of one end of the lane's link: the lane's column, or,
  /// while `p_stale` defers the armed predict's copy, the end's cold
  /// ss_prior_p[ss_idx] it would have copied.
  static const double* LaneCovariance(const Group& g, size_t lane, End end);

  /// R (m x m) of the lane's server end, in its cold record.
  static const double* ServerNoise(const Group& g, size_t lane);

  /// Points both ends of lane `lane` at the cold record staged in
  /// `g.cold_scratch`, releasing the ones they held — for the armed and
  /// arm-pending paths, where the two ends are equal.
  static void SetCold(Group& g, size_t lane);

  /// The node a spill of the source at `entry` is cloned from.
  const SourceNode& PrototypeFor(const TickEntry& entry) const {
    return *groups_[entry.nominal_group]->prototype;
  }

  /// The per-source CheckpointState a spilled run would capture, built
  /// from the lane's mirror end, its group and its node record.
  SourceNode::CheckpointState SynthesizeForLane(const Group& g,
                                                size_t lane) const;

  /// The server's LinkSnapshot, built from the lane's server end.
  ServerNode::LinkSnapshot SynthesizeLinkForLane(const Group& g,
                                                 size_t lane) const;

  /// Moves a lane back to the per-source objects, counting the spill
  /// under `reason`. When `reading` is non-null the spill happens
  /// mid-tick: the server predictor replays the predict it missed
  /// (TickAll ran before the lane loop) and the node processes this
  /// tick's reading verbatim.
  Status SpillLane(int group_index, size_t lane, int64_t tick,
                   const Vector* reading, FleetSpillReason reason);

  /// Swap-removes lane `lane` from `g`, re-pointing the moved lane's
  /// `order_` entry at its new index.
  void RemoveLane(Group& g, size_t lane);

  /// Appends a lane for the `order_` entry at `order_pos`, built from a
  /// healthy source's snapshots (the mirror end from `state`, the server
  /// end from `link`) and its node's noise servo; returns its index.
  size_t AddLane(Group& g, int32_t order_pos,
                 const SourceNode::CheckpointState& state,
                 const ServerNode::LinkSnapshot& link,
                 const NoiseAdapter& adapter);

  /// The group the spilled source at `entry` folds into right now, or
  /// -1. Every check reads link state in place (channel residue from
  /// `residual_scratch_`, sorted); the first one that fails is counted.
  Result<int> AbsorbTarget(const TickEntry& entry);

  /// End-of-tick scan, ascending id: folds every spilled source whose
  /// link is healthy and bit-converged with no channel residue back into
  /// a group. Snapshots are exported only for sources that fold.
  Status TryAbsorbAll();

  /// DegradedOverdueTicks for the lane's link at the last completed
  /// tick: >= 1 exactly when its answers are served degraded.
  int64_t LaneOverdueTicks(const Group& g, size_t lane) const;

  /// Degraded-service accounting for resident lanes: ServerNode::TickAll's
  /// previous-tick account for the links the server no longer holds.
  void AccountDegradedLanes();

  /// Points every lane at its reading and stages the spilled sources in
  /// ascending id order, from the shard's resolved positions.
  void ResolveReadings(const std::vector<Vector>& values,
                       const std::vector<uint32_t>& positions);

  /// Merges the sources staged in `pending_` into `order_`, keeping every
  /// existing entry's residency, and re-points every lane's `order_pos`.
  void RebuildOrder();

  /// The arm-pending predict of lane `lane`, replayed through the real
  /// filter. Commits it and sets `*deviation` when the tick is
  /// suppressed; otherwise sets `*spill` and leaves the lane untouched.
  Status ReplayArmPending(Group& g, size_t lane, const Vector& z,
                          double* deviation,
                          std::optional<FleetSpillReason>* spill);

  /// True when lane `lane`'s next predict is a coasting break: armed,
  /// but predicted without a correct since (KalmanFilter::Predict).
  static bool CoastingBreakDue(const Group& g, size_t lane) {
    return g.ss_mode[lane] == kSsArmed && g.phase[lane] != kPhaseCorrected;
  }

  /// The coasting break: an armed lane predicting a second time without
  /// a correct leaves the frozen cycle, emitting both filters' disarm
  /// events (the server filter's unless OnMessage already did) and
  /// materializing its covariance.
  void DisarmLane(Group& g, size_t lane, bool server_event_emitted);

  /// SourceNode::ProcessReading's heartbeat, sent from the lane:
  /// CountHeartbeatSent (dsms/protocol.h) on the record's sequence
  /// counter and faults and the lane's clock, the transmission charge and
  /// the channel's per-source fault draws. The ACK is ignored, as it is
  /// there.
  Status SendHeartbeat(Group& g, size_t lane, int64_t tick);

  /// Ticks every lane of group `gi` through one loop: the armed and
  /// tracking predicts run inline through linalg/kernels.h, deciding
  /// before anything is committed; a non-finite prediction or a
  /// deviation outside delta spills the lane with that reason, and the
  /// lane the spill moved into its index is ticked next. A suppressed
  /// lane sends its due heartbeat itself.
  Status TickGroupLanes(int group_index, int64_t tick);

  ServerNode* server_;
  Channel* channel_;
  ProtocolOptions protocol_;
  EnergyModelOptions energy_;
  TraceSink* obs_sink_ = nullptr;

  std::vector<std::unique_ptr<Group>> groups_;
  std::map<std::string, int> group_by_key_;

  /// Every tracked source not in `pending_`, ascending id.
  std::vector<TickEntry> order_;
  /// Sources tracked since the last tick, in Track order; the next
  /// ProcessTick merges them into `order_`.
  std::vector<TickEntry> pending_;

  /// Per-tick staging of spilled work, mirroring RunSourceTick.
  std::vector<std::pair<SourceNode*, const Vector*>> staged_spilled_;
  /// TryAbsorbAll's one-pass channel residue scan, sorted.
  std::vector<int> residual_scratch_;

  int64_t degraded_ticks_ = 0;
  FleetCounters counters_;
  /// Set when OnMessage flags a lane's `delivered` this tick; the lane
  /// loops only read the flags then, and ProcessTick clears it.
  bool deliveries_pending_ = false;
};

}  // namespace dkf

#endif  // DKF_FLEET_FLEET_ENGINE_H_
