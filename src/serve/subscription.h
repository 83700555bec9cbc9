#ifndef DKF_SERVE_SUBSCRIPTION_H_
#define DKF_SERVE_SUBSCRIPTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dkf {

/// The standing-query shapes the serving front-end understands. All of
/// them are *push* queries: instead of polling Answer() every tick, a
/// subscriber registers once and the engine delivers notifications only
/// when the subscription is affected — the downlink counterpart of the
/// uplink's event-triggered suppression.
enum class SubscriptionKind : uint8_t {
  /// The current answer for one source, delivered every tick. A point
  /// subscription is affected by every tick by definition; use bands or
  /// range predicates when the subscriber only cares about changes.
  kPoint = 0,
  /// Alert when the server-side estimate x̂ leaves [lo, hi], cleared
  /// when it re-enters; optionally also when the answer's uncertainty
  /// (projected state variance) exceeds `uncertainty_ceiling`.
  kBandAlert,
  /// A continuous predicate "value in [lo, hi]": one notification each
  /// time the truth value flips, in either direction.
  kRangePredicate,
  /// The current answer of a registered aggregate (SUM) query,
  /// delivered whenever any member source's answer moved.
  kAggregate,
  /// The fused posterior of a registered fusion group (docs/fusion.md),
  /// delivered whenever the group estimate moved.
  kFused,
  kCount,  // sentinel
};

/// Stable lower_snake name of a subscription kind ("point", ...).
const char* SubscriptionKindName(SubscriptionKind kind);

/// One standing query, as registered by a subscriber. Ids are chosen by
/// the caller and must be unique across the engine (they are the third
/// component of the delivery order, so reusing an id would make the
/// notification stream ambiguous).
struct Subscription {
  int64_t id = 0;
  SubscriptionKind kind = SubscriptionKind::kPoint;
  /// Target source (point / band-alert / range-predicate kinds). The
  /// predicate reads component 0 of the server-side answer (scalar
  /// streams; the same convention aggregate queries use).
  int source_id = 0;
  /// Target aggregate (kAggregate only).
  int aggregate_id = 0;
  /// Target fusion group (kFused only).
  int group_id = 0;
  /// Band / range bounds (inclusive on both ends).
  double lo = 0.0;
  double hi = 0.0;
  /// Band-alert only: also fire when the projected state variance of
  /// the answer exceeds this ceiling (strictly); 0 disables the check.
  double uncertainty_ceiling = 0.0;
  std::string description;

  friend bool operator==(const Subscription&, const Subscription&) = default;
};

/// Why a notification fired. The enumerator order is part of the golden
/// notification-stream format — append only.
enum class NotificationKind : uint8_t {
  /// The initial answer a subscriber receives on attach: the state of
  /// its subscription evaluated against a single engine state (the tick
  /// boundary the attach happened at).
  kInitial = 0,
  kValue,            // point subscription: this tick's answer
  kBandExit,         // band-alert: estimate left [lo, hi]
  kBandEnter,        // band-alert: estimate re-entered [lo, hi] (cleared)
  kUncertaintyHigh,  // band-alert: variance rose above the ceiling
  kUncertaintyOk,    // band-alert: variance fell back under the ceiling
  kPredicateTrue,    // range predicate flipped to true
  kPredicateFalse,   // range predicate flipped to false
  kAggregateUpdate,  // aggregate answer moved
  kFusedUpdate,      // fused group posterior moved
  kCount,            // sentinel
};

/// Stable lower_snake name of a notification kind ("initial", ...).
const char* NotificationKindName(NotificationKind kind);

/// One delivered event. `source_id` is the subscription's source, or
/// `-1 - aggregate_id` for aggregate subscriptions (negative, so
/// engine-level aggregate notifications sort deterministically ahead of
/// per-source ones at the same step regardless of the shard layout).
struct Notification {
  int64_t step = 0;
  int32_t source_id = 0;
  int64_t subscription_id = 0;
  NotificationKind kind = NotificationKind::kInitial;
  /// The answer (point/aggregate/initial) or the estimate that crossed
  /// (band/range kinds).
  double value = 0.0;
  /// Kind-specific companion: the violated bound (band/range), the
  /// variance (uncertainty kinds), or the predicate truth (initial: 1/0).
  double aux = 0.0;

  friend bool operator==(const Notification&, const Notification&) = default;
};

/// The ordering key fused-group notifications (and group-level trace
/// events) use in place of a source id. Parked far below the aggregate
/// keys (-1 - id) so the two negative ranges cannot collide for any
/// group id the fusion engine accepts (RegisterFusionGroup bounds group
/// ids to [0, 2^28]).
inline constexpr int32_t kFusedSourceKeyBase = INT32_MIN / 2;
inline int32_t FusedSourceKey(int group_id) {
  return kFusedSourceKeyBase + group_id;
}
/// Inverse of FusedSourceKey, valid for keys in the fused range.
inline int GroupIdFromFusedKey(int32_t source_key) {
  return static_cast<int>(source_key - kFusedSourceKeyBase);
}
/// Whether a notification source key addresses a fused group (vs an
/// aggregate or a plain source).
inline bool IsFusedSourceKey(int32_t source_key) {
  return source_key >= kFusedSourceKeyBase &&
         source_key < kFusedSourceKeyBase / 2;
}

/// The canonical ordering key: (step, source_id, subscription_id).
/// Notifications with equal keys (one subscription firing more than one
/// kind in a tick) keep their emission order — sorts must be stable.
inline bool NotificationOrder(const Notification& a, const Notification& b) {
  if (a.step != b.step) return a.step < b.step;
  if (a.source_id != b.source_id) return a.source_id < b.source_id;
  return a.subscription_id < b.subscription_id;
}

/// All notifications one engine tick produced, already in canonical
/// order. Batches with no notifications are never emitted.
struct NotificationBatch {
  int64_t step = 0;
  std::vector<Notification> notifications;

  friend bool operator==(const NotificationBatch&,
                         const NotificationBatch&) = default;
};

/// One-line canonical rendering — the format serve golden tests pin:
///   "<step> <source_id> <subscription_id> <kind> <value> <aux>"
/// with doubles in shortest round-trip form.
std::string FormatNotification(const Notification& notification);

/// Merges per-engine batch streams (each step-ascending and internally
/// in canonical order) into one canonical stream: same-step batches are
/// coalesced and stably re-sorted by (source_id, subscription_id), so
/// the result is bit-identical for any shard layout — the serving
/// layer's MergeTraces. The batches are already-sorted runs, so a step
/// costs a pairwise run merge, not a full sort; the result equals the
/// stable sort of the step's batches concatenated in caller order. The
/// streams are taken by value so callers can move their batches in.
std::vector<NotificationBatch> MergeNotificationBatches(
    std::vector<std::vector<NotificationBatch>> streams);

}  // namespace dkf

#endif  // DKF_SERVE_SUBSCRIPTION_H_
