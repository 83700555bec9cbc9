// Differential test of the serving front-end: a SubscriptionEngine and a
// brute-force evaluator that rescans every subscription each tick are
// driven through the same seeded run — random point, band (with and
// without uncertainty ceilings), range, aggregate and fused
// subscriptions over answers and variances that random-walk on a coarse
// grid (so values land exactly on band edges and ceilings), random
// subscribes and unsubscribes between ticks, and one
// ExportSubscriptions -> ImportSubscription -> RefreshCaches round trip
// into a fresh engine. Every drained batch must equal the evaluator's,
// and the engine's touched/affected counters must equal the evaluator's
// scanned-endpoint and notification counts.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "serve/subscription.h"
#include "serve/subscription_engine.h"

namespace dkf {
namespace {

constexpr int kSources = 6;
constexpr int kGroups = 2;
constexpr int kTicks = 80;

/// Aggregate id -> member source ids, in member order.
const std::map<int, std::vector<int>>& AggregateMembers() {
  static const auto* members = new std::map<int, std::vector<int>>{
      {0, {0, 2, 3}}, {1, {4, 1}}};
  return *members;
}

/// Answers that random-walk on a 0.5 grid; variances on a 0.25 grid.
class WalkingAnswers final : public ServeAnswerSource {
 public:
  explicit WalkingAnswers(Rng* rng) : rng_(rng) {
    for (int s = 0; s < kSources; ++s) {
      values_[s] = 0.5 * static_cast<double>(rng_->UniformInt(-6, 6));
      variances_[s] = 0.25 * static_cast<double>(rng_->UniformInt(0, 8));
    }
    for (int g = 0; g < kGroups; ++g) {
      fused_[g] = 0.5 * static_cast<double>(rng_->UniformInt(-6, 6));
    }
  }

  void Walk() {
    for (auto& [id, value] : values_) {
      if (rng_->Uniform() < 0.35) continue;  // often no move at all
      value += 0.5 * static_cast<double>(rng_->UniformInt(-3, 3));
    }
    for (auto& [id, variance] : variances_) {
      variance = std::max(
          0.0, variance + 0.25 * static_cast<double>(rng_->UniformInt(-2, 2)));
    }
    for (auto& [id, value] : fused_) {
      if (rng_->Uniform() < 0.5) continue;
      value += 0.5 * static_cast<double>(rng_->UniformInt(-2, 2));
    }
  }

  double value(int source_id) const { return values_.at(source_id); }
  double variance(int source_id) const { return variances_.at(source_id); }
  double fused(int group_id) const { return fused_.at(group_id); }

  Result<double> SourceValue(int source_id, double* variance) const override {
    auto it = values_.find(source_id);
    if (it == values_.end()) {
      return Status::NotFound(StrFormat("source %d", source_id));
    }
    if (variance != nullptr) *variance = variances_.at(source_id);
    return it->second;
  }

  Result<double> AggregateValue(int aggregate_id) const override {
    auto it = AggregateMembers().find(aggregate_id);
    if (it == AggregateMembers().end()) {
      return Status::NotFound(StrFormat("aggregate %d", aggregate_id));
    }
    double sum = 0.0;
    for (int member : it->second) sum += values_.at(member);
    return sum;
  }

  Result<double> FusedValue(int group_id) const override {
    auto it = fused_.find(group_id);
    if (it == fused_.end()) {
      return Status::NotFound(StrFormat("group %d", group_id));
    }
    return it->second;
  }

 private:
  Rng* rng_;
  std::map<int, double> values_;
  std::map<int, double> variances_;
  std::map<int, double> fused_;
};

bool IsInterval(const Subscription& spec) {
  return spec.kind == SubscriptionKind::kBandAlert ||
         spec.kind == SubscriptionKind::kRangePredicate;
}

int32_t KeyOf(const Subscription& spec) {
  if (spec.kind == SubscriptionKind::kAggregate) {
    return AggregateSourceKey(spec.aggregate_id);
  }
  if (spec.kind == SubscriptionKind::kFused) {
    return FusedSourceKey(spec.group_id);
  }
  return spec.source_id;
}

/// The reference: every subscription re-evaluated in full each tick.
class BruteForce {
 public:
  explicit BruteForce(const WalkingAnswers& answers) : answers_(answers) {}

  /// Mirrors Subscribe: records the subscription and returns its initial
  /// batch.
  NotificationBatch Subscribe(const Subscription& spec, int64_t step) {
    Entry entry;
    entry.spec = spec;
    double value = 0.0;
    switch (spec.kind) {
      case SubscriptionKind::kAggregate:
        value = answers_.AggregateValue(spec.aggregate_id).value();
        if (CountKind(spec) == 0) aggregate_last_[spec.aggregate_id] = value;
        break;
      case SubscriptionKind::kFused:
        value = answers_.fused(spec.group_id);
        if (CountKind(spec) == 0) fused_last_[spec.group_id] = value;
        break;
      default:
        value = answers_.value(spec.source_id);
        break;
    }
    if (IsInterval(spec)) entry.inside = Inside(spec, value);
    if (spec.uncertainty_ceiling > 0.0) {
      entry.fired =
          answers_.variance(spec.source_id) > spec.uncertainty_ceiling;
    }
    subs_[spec.id] = entry;
    Notification initial;
    initial.step = step;
    initial.source_id = KeyOf(spec);
    initial.subscription_id = spec.id;
    initial.kind = NotificationKind::kInitial;
    initial.value = value;
    initial.aux = IsInterval(spec) ? (entry.inside ? 1.0 : 0.0) : 0.0;
    return NotificationBatch{step, {initial}};
  }

  void Unsubscribe(int64_t id) { subs_.erase(id); }

  /// Evaluates tick `step`, given each source's value before the walk.
  /// Returns the tick's batch (empty notifications when nothing fired)
  /// and adds the fan-out work to `touched` / `affected`.
  NotificationBatch Tick(int64_t step, const std::map<int, double>& previous,
                         int64_t* touched, int64_t* affected) {
    std::vector<Notification> out;
    auto push = [&](const Subscription& spec, NotificationKind kind,
                    double value, double aux) {
      Notification n;
      n.step = step;
      n.source_id = KeyOf(spec);
      n.subscription_id = spec.id;
      n.kind = kind;
      n.value = value;
      n.aux = aux;
      out.push_back(n);
      ++*affected;
    };
    // Scanned endpoints: every interval endpoint inside the sweep of a
    // source that moved.
    for (int s = 0; s < kSources; ++s) {
      const double v0 = previous.at(s);
      const double v1 = answers_.value(s);
      if (v0 == v1) continue;
      const double a = std::min(v0, v1);
      const double b = std::max(v0, v1);
      for (const auto& [id, entry] : subs_) {
        const Subscription& spec = entry.spec;
        if (!IsInterval(spec) || spec.source_id != s) continue;
        if (a <= spec.hi && spec.hi < b) ++*touched;
        if (a < spec.lo && spec.lo <= b) ++*touched;
      }
    }
    std::map<int, double> aggregate_now;
    for (const auto& [id, members] : AggregateMembers()) {
      aggregate_now[id] = answers_.AggregateValue(id).value();
    }
    for (auto& [id, entry] : subs_) {
      const Subscription& spec = entry.spec;
      switch (spec.kind) {
        case SubscriptionKind::kPoint:
          ++*touched;
          push(spec, NotificationKind::kValue, answers_.value(spec.source_id),
               0.0);
          break;
        case SubscriptionKind::kBandAlert:
        case SubscriptionKind::kRangePredicate: {
          const double value = answers_.value(spec.source_id);
          const bool inside = Inside(spec, value);
          if (inside != entry.inside) {
            entry.inside = inside;
            if (spec.kind == SubscriptionKind::kBandAlert) {
              push(spec,
                   inside ? NotificationKind::kBandEnter
                          : NotificationKind::kBandExit,
                   value, inside ? 0.0 : (value < spec.lo ? spec.lo : spec.hi));
            } else {
              push(spec,
                   inside ? NotificationKind::kPredicateTrue
                          : NotificationKind::kPredicateFalse,
                   value, inside ? 1.0 : 0.0);
            }
          }
          if (spec.uncertainty_ceiling > 0.0) {
            const double variance = answers_.variance(spec.source_id);
            const bool fired = variance > spec.uncertainty_ceiling;
            if (fired != entry.fired) {
              entry.fired = fired;
              ++*touched;
              push(spec,
                   fired ? NotificationKind::kUncertaintyHigh
                         : NotificationKind::kUncertaintyOk,
                   value, variance);
            }
          }
          break;
        }
        case SubscriptionKind::kAggregate: {
          const double value = aggregate_now.at(spec.aggregate_id);
          if (value != aggregate_last_.at(spec.aggregate_id)) {
            ++*touched;
            push(spec, NotificationKind::kAggregateUpdate, value, 0.0);
          }
          break;
        }
        case SubscriptionKind::kFused: {
          const double value = answers_.fused(spec.group_id);
          if (value != fused_last_.at(spec.group_id)) {
            ++*touched;
            push(spec, NotificationKind::kFusedUpdate, value, 0.0);
          }
          break;
        }
        default:
          break;
      }
    }
    for (auto& [id, value] : aggregate_last_) value = aggregate_now.at(id);
    for (auto& [id, value] : fused_last_) value = answers_.fused(id);
    std::stable_sort(out.begin(), out.end(), NotificationOrder);
    return NotificationBatch{step, out};
  }

  /// Ids currently registered, ascending.
  std::vector<int64_t> ids() const {
    std::vector<int64_t> ids;
    for (const auto& [id, entry] : subs_) ids.push_back(id);
    return ids;
  }

 private:
  struct Entry {
    Subscription spec;
    bool inside = false;
    bool fired = false;
  };

  static bool Inside(const Subscription& spec, double value) {
    return spec.lo <= value && value <= spec.hi;
  }

  /// Live subscriptions targeting the same aggregate / fused group.
  int CountKind(const Subscription& spec) const {
    int count = 0;
    for (const auto& [id, entry] : subs_) {
      if (entry.spec.kind != spec.kind) continue;
      if (spec.kind == SubscriptionKind::kAggregate &&
          entry.spec.aggregate_id == spec.aggregate_id) {
        ++count;
      }
      if (spec.kind == SubscriptionKind::kFused &&
          entry.spec.group_id == spec.group_id) {
        ++count;
      }
    }
    return count;
  }

  const WalkingAnswers& answers_;
  std::map<int64_t, Entry> subs_;
  std::map<int, double> aggregate_last_;
  std::map<int, double> fused_last_;
};

Subscription RandomSubscription(Rng& rng, int64_t id) {
  Subscription spec;
  spec.id = id;
  const double roll = rng.Uniform();
  spec.source_id = static_cast<int>(rng.UniformInt(0, kSources - 1));
  if (roll < 0.1) {
    spec.kind = SubscriptionKind::kPoint;
  } else if (roll < 0.8) {
    spec.kind = rng.Uniform() < 0.6 ? SubscriptionKind::kBandAlert
                                    : SubscriptionKind::kRangePredicate;
    const double lo = 0.5 * static_cast<double>(rng.UniformInt(-8, 6));
    spec.lo = lo;
    spec.hi = lo + 0.5 * static_cast<double>(rng.UniformInt(0, 6));
    if (spec.kind == SubscriptionKind::kBandAlert && rng.Uniform() < 0.5) {
      spec.uncertainty_ceiling =
          0.25 * static_cast<double>(rng.UniformInt(1, 8));
    }
  } else if (roll < 0.9) {
    spec.kind = SubscriptionKind::kAggregate;
    spec.source_id = 0;
    spec.aggregate_id = static_cast<int>(rng.UniformInt(0, 1));
  } else {
    spec.kind = SubscriptionKind::kFused;
    spec.source_id = 0;
    spec.group_id = static_cast<int>(rng.UniformInt(0, kGroups - 1));
  }
  return spec;
}

std::vector<int> MembersFor(const Subscription& spec) {
  if (spec.kind != SubscriptionKind::kAggregate) return {};
  return AggregateMembers().at(spec.aggregate_id);
}

class ServeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeDifferentialTest, EngineMatchesBruteForceEvaluator) {
  Rng rng(GetParam());
  WalkingAnswers answers(&rng);
  BruteForce reference(answers);
  auto engine = std::make_unique<SubscriptionEngine>();

  // Ids drawn without replacement from a shuffled pool, so slot order
  // (attach order, with reuse) never matches id order.
  std::vector<int64_t> pool;
  for (int64_t id = 0; id < 4000; ++id) pool.push_back(id * 7 + 3);
  for (size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[static_cast<size_t>(
                           rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  size_t next_id = 0;

  int64_t touched = 0;
  int64_t affected = 0;
  int64_t engine_touched_before = 0;
  int64_t engine_affected_before = 0;
  for (int64_t step = 0; step < kTicks; ++step) {
    std::vector<NotificationBatch> expected;

    // Between ticks: unsubscribe some, subscribe more.
    std::vector<int64_t> ids = reference.ids();
    for (int64_t id : ids) {
      if (rng.Uniform() < 0.08) {
        ASSERT_TRUE(engine->Unsubscribe(id).ok());
        reference.Unsubscribe(id);
      }
    }
    const int64_t adds = step == 0 ? 150 : rng.UniformInt(0, 12);
    for (int64_t k = 0; k < adds; ++k) {
      const Subscription spec = RandomSubscription(rng, pool[next_id++]);
      ASSERT_TRUE(
          engine->Subscribe(spec, step, answers, MembersFor(spec)).ok());
      expected.push_back(reference.Subscribe(spec, step));
    }

    // Mid-run round trip into a fresh engine: state, counters and
    // caches carry over, delivery continues unchanged.
    if (step == kTicks / 2) {
      auto restored = std::make_unique<SubscriptionEngine>();
      for (const SubscriptionState& state : engine->ExportSubscriptions()) {
        ASSERT_TRUE(
            restored->ImportSubscription(state, MembersFor(state.spec)).ok());
      }
      std::vector<NotificationBatch> pending(engine->pending().begin(),
                                             engine->pending().end());
      restored->RestorePending(std::move(pending),
                               engine->drained_through_step());
      restored->RestoreStats(engine->stats());
      ASSERT_TRUE(restored->RefreshCaches(answers).ok());
      EXPECT_EQ(restored->num_subscriptions(), engine->num_subscriptions());
      engine = std::move(restored);
    }

    std::map<int, double> previous;
    for (int s = 0; s < kSources; ++s) previous[s] = answers.value(s);
    answers.Walk();
    ASSERT_TRUE(engine->EndTick(step, answers).ok());
    NotificationBatch tick = reference.Tick(step, previous, &touched,
                                            &affected);
    if (!tick.notifications.empty()) expected.push_back(tick);

    const std::vector<NotificationBatch> drained = engine->Drain();
    ASSERT_EQ(drained.size(), expected.size()) << "step " << step;
    for (size_t b = 0; b < drained.size(); ++b) {
      ASSERT_EQ(drained[b].step, expected[b].step) << "step " << step;
      ASSERT_EQ(drained[b].notifications.size(),
                expected[b].notifications.size())
          << "step " << step << " batch " << b;
      for (size_t n = 0; n < drained[b].notifications.size(); ++n) {
        EXPECT_EQ(FormatNotification(drained[b].notifications[n]),
                  FormatNotification(expected[b].notifications[n]))
            << "step " << step << " batch " << b << " #" << n;
      }
    }

    const ServeStats stats = engine->stats();
    EXPECT_EQ(stats.touched - engine_touched_before, touched)
        << "step " << step;
    EXPECT_EQ(stats.affected - engine_affected_before, affected)
        << "step " << step;
    engine_touched_before = stats.touched;
    engine_affected_before = stats.affected;
    touched = 0;
    affected = 0;
    EXPECT_EQ(stats.subscriptions,
              static_cast<int64_t>(reference.ids().size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace dkf
