#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "measure.h"
#include "models/model_factory.h"
#include "oracle.h"

namespace perfbench {

namespace {

constexpr size_t kTable = 4096;  // sine / noise table length (power of 2)
constexpr int kSampleSize = 128;

// Signal families, one per workload.
constexpr int kSteadySignal = 0;
constexpr int kChurnSignal = 1;
constexpr int kAlertSignal = 2;

constexpr int kFusedQueryIdBase = 1 << 23;

// steady_fleet: the k-th level shift lands at tick (k + 1/2) * period, on
// kSteadyShiftSources sources drawn from the seed; events are planned this
// far ahead. Several sources per shift keep the uplink's run-to-run spread
// small without adding spill ticks.
constexpr int64_t kSteadyShiftTicks = 64;
constexpr int kSteadyShiftSources = 4;
constexpr int64_t kSteadyShiftHorizon = 1 << 20;

}  // namespace

bool SpecFor(const std::string& name, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "steady_fleet") {
    // Lane-resident fleet: a slow signal inside delta, so every source
    // lives on a batched lane. A few sources shift their level past
    // delta every kSteadyShiftTicks ticks: the uplink is never silent, and
    // spill ticks (each one rebuilds the fleet's tick order) are a fixed
    // few percent of ticks, so they, not chance, set the p99.
    s.sources = tiny ? 400 : 20000;
    s.batched_fleet = true;
    s.delta = 4.0;
    s.ticks_per_second = 200.0;
    // The first ~1000 ticks are slower (lanes still absorbing and the
    // filters' velocity estimates settling), so warm up past them.
    s.warmup_ticks = 1024;
    s.projected_bytes_per_source = 45000.0;
  } else if (name == "churn_links") {
    // The write side: mixed models, staggered excursions, the fault
    // cocktail, a governor budget below natural demand, and one
    // checkpoint round trip in the middle of the timed window.
    s.sources = tiny ? 300 : 2500;
    s.batched_fleet = true;
    s.faults = true;
    s.governor = true;
    s.checkpoint = true;
    s.delta = 2.0;
    s.ticks_per_second = 100.0;
    // Long enough for the governor to settle: its first epochs move many
    // deltas and spill many lanes, which would make the window drift.
    s.warmup_ticks = 1024;
    // Natural demand at delta 2 is about 21 kB/tick and the heartbeat
    // floor about 6.5 kB/tick (measured on the seed); the budget sits
    // between them so the governor has to trade precision for bytes.
    s.governor_budget_bytes_per_tick = tiny ? 1400.0 : 12000.0;
    s.share_constant = 0.4;
    s.share_linear2 = 0.2;
    s.projected_bytes_per_source = 45000.0;
  } else if (name == "alert_serving") {
    // Per-source engine under a large standing-query load: band alerts
    // dominate, with range, point, aggregate, and fused subscriptions.
    s.sources = tiny ? 100 : 2000;
    s.fusion_groups = tiny ? 8 : 64;
    s.members_per_group = 4;
    s.subscriptions = tiny ? 5000 : 250000;
    s.aggregates = tiny ? 2 : 16;
    s.delta = 4.0;
    s.fused_delta = 2.0;
    s.ticks_per_second = 110.0;
    s.warmup_ticks = 32;
    s.projected_bytes_per_source = 150000.0;
  } else {
    return false;
  }
  if (tiny) s.ticks_per_second *= 4.0;
  *spec = s;
  return true;
}

dkf::StateModel ModelFor(ModelKind kind) {
  dkf::ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  switch (kind) {
    case ModelKind::kConstant:
      return dkf::MakeConstantModel(1, noise).value();
    case ModelKind::kLinear1:
      return dkf::MakeLinearModel(1, 1.0, noise).value();
    case ModelKind::kLinear2:
      return dkf::MakeLinearModel(2, 1.0, noise).value();
  }
  return dkf::MakeLinearModel(1, 1.0, noise).value();
}

Inputs Inputs::Generate(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.signal_ = spec.name == "steady_fleet"  ? kSteadySignal
               : spec.name == "churn_links" ? kChurnSignal
                                            : kAlertSignal;
  dkf::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5eed);

  in.sine_.resize(kTable);
  in.noise_.resize(kTable);
  for (size_t i = 0; i < kTable; ++i) {
    in.sine_[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                           static_cast<double>(kTable));
    in.noise_[i] = std::clamp(rng.Gaussian(), -3.0, 3.0);
  }

  for (int id = 0; id < spec.sources; ++id) {
    Source src;
    src.id = id;
    const double roll = rng.Uniform();
    src.model = roll < spec.share_constant ? ModelKind::kConstant
                : roll < spec.share_constant + spec.share_linear2
                    ? ModelKind::kLinear2
                    : ModelKind::kLinear1;
    src.dim = src.model == ModelKind::kLinear2 ? 2 : 1;
    src.phase = static_cast<uint32_t>(rng.UniformInt(0, kTable - 1));
    src.salt = static_cast<uint32_t>(rng.UniformInt(0, kTable - 1));
    switch (in.signal_) {
      case kSteadySignal:
        // Levels near the filters' prior: farther offsets leave the
        // linear model's velocity estimate drifting, and the resulting
        // sends would spill lanes every tick.
        src.base = rng.Uniform(-1.0, 1.0);
        src.amplitude = 1.5;
        src.speed = static_cast<uint32_t>(rng.UniformInt(1, 3));
        src.event_offset = INT64_MAX;  // no level shift planned
        break;
      case kChurnSignal:
        src.base = rng.Uniform(-20.0, 20.0);
        src.amplitude = 1.0;
        src.noise = 0.3;
        src.speed = static_cast<uint32_t>(rng.UniformInt(4, 12));
        src.event_offset = rng.UniformInt(0, 511);
        break;
      default:
        src.amplitude = 25.0;
        src.noise = 0.05;
        src.speed = static_cast<uint32_t>(rng.UniformInt(11, 15));
        break;
    }
    in.entries_.push_back(src);
  }
  in.num_plain_ = in.entries_.size();

  if (in.signal_ == kSteadySignal) {
    for (int64_t at = kSteadyShiftTicks / 2; at < kSteadyShiftHorizon;
         at += kSteadyShiftTicks) {
      for (int k = 0; k < kSteadyShiftSources; ++k) {
        Source& src = in.entries_[static_cast<size_t>(
            rng.UniformInt(0, spec.sources - 1))];
        src.event_offset = std::min(src.event_offset, at);
      }
    }
  }

  int next_member = spec.sources;
  for (int g = 0; g < spec.fusion_groups; ++g) {
    Group group;
    group.group_id = g + 1;
    const double base = rng.Uniform(-10.0, 10.0);
    const auto phase = static_cast<uint32_t>(rng.UniformInt(0, kTable - 1));
    const auto speed = static_cast<uint32_t>(rng.UniformInt(5, 9));
    for (int m = 0; m < spec.members_per_group; ++m) {
      Source member;
      member.id = next_member++;
      member.model = ModelKind::kLinear1;
      member.base = base;
      member.amplitude = 6.0;
      member.noise = 0.2;
      member.phase = phase;
      member.speed = speed;
      member.salt = static_cast<uint32_t>(rng.UniformInt(0, kTable - 1));
      group.member_ids.push_back(member.id);
      in.entries_.push_back(member);
    }
    in.groups_.push_back(group);
  }

  for (int a = 0; a < spec.aggregates; ++a) {
    dkf::AggregateQuery aggregate;
    aggregate.id = a + 1;
    for (int k = 0; k < 8; ++k) {
      aggregate.source_ids.push_back((a * 8 + k) % spec.sources);
    }
    aggregate.precision = 8.0;
    in.aggregates_.push_back(aggregate);
  }

  for (int64_t id = 0; id < spec.subscriptions; ++id) {
    dkf::Subscription sub;
    sub.id = id;
    sub.source_id = static_cast<int>(rng.UniformInt(0, spec.sources - 1));
    const int roll = static_cast<int>(id % 1024);
    const double center = rng.Uniform(-26.0, 26.0);
    const double half = rng.Uniform(0.1, 1.0);
    sub.lo = center - half;
    sub.hi = center + half;
    if (roll == 0) {
      sub.kind = dkf::SubscriptionKind::kPoint;
    } else if (roll <= 2 && !in.aggregates_.empty()) {
      sub.kind = dkf::SubscriptionKind::kAggregate;
      sub.aggregate_id = static_cast<int>(id / 1024) % spec.aggregates + 1;
    } else if (roll <= 6 && !in.groups_.empty()) {
      sub.kind = dkf::SubscriptionKind::kFused;
      sub.group_id = static_cast<int>(id / 1024) % spec.fusion_groups + 1;
    } else if (roll <= 70) {
      sub.kind = dkf::SubscriptionKind::kRangePredicate;
    } else {
      sub.kind = dkf::SubscriptionKind::kBandAlert;
      if (id % 64 == 0) sub.uncertainty_ceiling = rng.Uniform(0.5, 1.5);
    }
    in.subscriptions_.push_back(sub);
  }

  std::vector<size_t> order(in.num_plain_);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t sample = std::min<size_t>(kSampleSize, order.size());
  for (size_t i = 0; i < sample; ++i) {
    const auto pick = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(i),
                       static_cast<int64_t>(order.size()) - 1));
    std::swap(order[i], order[pick]);
    in.sample_.push_back(order[i]);
  }
  std::sort(in.sample_.begin(), in.sample_.end());
  return in;
}

double Inputs::Value(const Source& s, int64_t tick, size_t axis) const {
  const auto t = static_cast<uint64_t>(tick);
  const size_t idx = (t * s.speed + s.phase + axis * 1031) & (kTable - 1);
  const size_t nidx = (t * 7 + s.salt + axis * 131) & (kTable - 1);
  double v = s.base + s.amplitude * sine_[idx] + s.noise * noise_[nidx];
  if (signal_ == kSteadySignal) {
    if (tick >= s.event_offset) v += 6.0;
  } else if (signal_ == kChurnSignal) {
    const auto u = static_cast<int64_t>(
        (t + static_cast<uint64_t>(s.event_offset) + axis * 7) & 511);
    if (u < 32) v += 12.0 * static_cast<double>(u < 16 ? u : 32 - u) / 16.0;
  }
  return v;
}

dkf::ReadingBatch Inputs::MakeBatch() const {
  dkf::ReadingBatch batch;
  batch.ids.reserve(entries_.size());
  batch.values.reserve(entries_.size());
  for (const Source& s : entries_) {
    batch.ids.push_back(s.id);
    batch.values.emplace_back(s.dim);
  }
  return batch;
}

void Inputs::Fill(int64_t tick, dkf::ReadingBatch* batch) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Source& s = entries_[i];
    dkf::Vector& value = batch->values[i];
    for (size_t axis = 0; axis < s.dim; ++axis) {
      value[axis] = Value(s, tick, axis);
    }
  }
}

void Inputs::ReadingAt(size_t index, int64_t tick, dkf::Vector* out) const {
  const Source& s = entries_[index];
  *out = dkf::Vector(s.dim);
  for (size_t axis = 0; axis < s.dim; ++axis) {
    (*out)[axis] = Value(s, tick, axis);
  }
}

dkf::ShardedStreamEngineOptions EngineOptions(const WorkloadSpec& spec,
                                              uint64_t seed, int shards) {
  dkf::ShardedStreamEngineOptions options;
  options.num_shards = shards;
  options.batched_fleet = spec.batched_fleet;
  options.channel.per_source_rng = true;
  options.channel.seed = 77 + seed;
  if (spec.faults) {
    // The bench_runtime_throughput --faults cocktail.
    options.channel.fault.gilbert_elliott = dkf::GilbertElliottLoss{
        /*p_good_to_bad=*/0.05, /*p_bad_to_good=*/0.3,
        /*good_loss=*/0.0, /*bad_loss=*/1.0};
    options.channel.fault.delay = dkf::DelayModel{/*min_ticks=*/0,
                                                  /*max_ticks=*/1};
    options.channel.fault.ack_loss_probability = 0.05;
    options.channel.fault.corruption_probability = 0.02;
    options.protocol.heartbeat_interval = 8;
    options.protocol.staleness_budget = 16;
  }
  if (spec.governor) {
    options.governor.enabled = true;
    options.governor.epoch_ticks = 16;
    options.governor.budget_bytes_per_tick =
        spec.governor_budget_bytes_per_tick;
  }
  return options;
}

std::unique_ptr<dkf::ShardedStreamEngine> BuildEngine(
    const WorkloadSpec& spec, const Inputs& inputs, uint64_t seed, int shards,
    bool with_subscriptions, Oracle* oracle, SpanRecorder* spans,
    SetupTimes* times) {
  auto engine = std::make_unique<dkf::ShardedStreamEngine>(
      EngineOptions(spec, seed, shards));
  const dkf::StateModel models[] = {ModelFor(ModelKind::kConstant),
                                    ModelFor(ModelKind::kLinear1),
                                    ModelFor(ModelKind::kLinear2)};
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < inputs.num_plain(); ++i) {
    const Inputs::Source& src = inputs.entries()[i];
    {
      ScopedSpan span(spans, "engine.RegisterSource");
      oracle->Check(engine->RegisterSource(
                        src.id, models[static_cast<int>(src.model)]),
                    "RegisterSource");
    }
    dkf::ContinuousQuery query;
    query.id = src.id + 1;
    query.source_id = src.id;
    query.precision = spec.delta;
    ScopedSpan span(spans, "engine.SubmitQuery");
    oracle->Check(engine->SubmitQuery(query), "SubmitQuery");
  }
  for (const Inputs::Group& group : inputs.groups()) {
    dkf::FusionGroupConfig config;
    config.group_id = group.group_id;
    config.model = models[static_cast<int>(ModelKind::kLinear1)];
    config.member_ids = group.member_ids;
    config.delta = spec.fused_delta;
    {
      ScopedSpan span(spans, "engine.RegisterFusionGroup");
      oracle->Check(engine->RegisterFusionGroup(config),
                    "RegisterFusionGroup");
    }
    dkf::FusedQuery query;
    query.id = kFusedQueryIdBase + group.group_id;
    query.group_id = group.group_id;
    query.precision = spec.fused_delta;
    ScopedSpan span(spans, "engine.SubmitFusedQuery");
    oracle->Check(engine->SubmitFusedQuery(query), "SubmitFusedQuery");
  }
  for (const dkf::AggregateQuery& aggregate : inputs.aggregates()) {
    ScopedSpan span(spans, "engine.SubmitAggregateQuery");
    oracle->Check(engine->SubmitAggregateQuery(aggregate),
                  "SubmitAggregateQuery");
  }
  const Clock::time_point registered = Clock::now();
  if (with_subscriptions) {
    for (const dkf::Subscription& sub : inputs.subscriptions()) {
      ScopedSpan span(spans, "engine.Subscribe");
      oracle->Check(engine->Subscribe(sub), "Subscribe");
    }
  }
  if (times != nullptr) {
    times->register_seconds = SecondsBetween(start, registered);
    times->subscribe_seconds = SecondsBetween(registered, Clock::now());
  }
  return engine;
}

void RunTicks(dkf::ShardedStreamEngine* engine, const Inputs& inputs,
              dkf::ReadingBatch* batch, int64_t first, int64_t last,
              Oracle* oracle) {
  for (int64_t tick = first; tick < last; ++tick) {
    inputs.Fill(tick, batch);
    oracle->Check(engine->ProcessTick(*batch), "ProcessTick");
    oracle->FoldNotifications(engine->DrainNotifications());
  }
}

}  // namespace perfbench
