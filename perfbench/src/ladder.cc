// The traced run: per-layer costs and counters on the workload's inputs.
//
// It drives the same inputs through each rung of the layer ladder,
// every rung doing one source-tick of work on the 1-shard configuration:
//
//   linalg   one phi P phi^T + Q at each model's dimension
//   filter   a standalone KalmanFilter replaying readings and transmit
//            decisions (predict every tick, correct when it transmits)
//   core     DualLink::Step (server filter + mirror + suppression rule)
//   dsms     RunSourceTick over hand-built SourceNodes, ServerNode and
//            Channel
//   shard    StreamShard::ProcessTick (+ its notification drain)
//   runtime  the 1-shard ShardedStreamEngine (ProcessTick + drain)
//
// A rung's self time is its per-source-tick cost minus the rung below,
// so the self times add up to the 1-shard engine tick; the run reports
// how far that sum sits from the 1-shard engine tick measured separately
// with the engine's tracing on. A 4-shard traced engine pass supplies the
// engine's exact counters (EnableTracing), and every call the benchmark
// makes is recorded as a span and written to a JSON-lines file.

#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "core/dual_link.h"
#include "core/predictor.h"
#include "dsms/channel.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "dsms/tick_step.h"
#include "filter/kalman_filter.h"
#include "linalg/kernels.h"
#include "obs/metrics_registry.h"
#include "oracle.h"
#include "query/registry.h"
#include "runs.h"
#include "runtime/shard.h"

namespace perfbench {

namespace {

/// Ticks each rung measures after its warm-up.
constexpr int64_t kLadderTicks = 128;
/// Sources the pure-compute rungs (filter, core) replay.
constexpr size_t kLadderSample = 256;
/// Warm-up cap for the rungs without fleet lanes or a governor (filter,
/// core, dsms): their filters converge well within it, and replaying a
/// long warm-up through the per-source path would dominate the run.
constexpr int64_t kPerSourceWarmupCap = 256;
/// Ticks per chunk of the traced/untraced overhead comparison.
constexpr int64_t kObsChunkTicks = 16;
constexpr int kObsChunks = 16;

volatile double g_sink = 0.0;  // keeps timed arithmetic observable

double NsPer(double seconds, double count) {
  return count > 0.0 ? seconds * 1e9 / count : 0.0;
}

/// Batch indexes of the sampled plain sources for the compute rungs.
std::vector<size_t> LadderSample(const Inputs& inputs) {
  std::vector<size_t> sample;
  const size_t stride = std::max<size_t>(1, inputs.num_plain() / kLadderSample);
  for (size_t i = 0; i < inputs.num_plain() && sample.size() < kLadderSample;
       i += stride) {
    sample.push_back(i);
  }
  return sample;
}

// ---- linalg ------------------------------------------------------------

/// One covariance time update at the model's dimension, source-weighted
/// over the workload's model mix.
double LinalgCovUpdateNs(const Inputs& inputs, SpanRecorder* spans) {
  ScopedSpan span(spans, "ladder.linalg");
  std::map<ModelKind, size_t> mix;
  for (size_t i = 0; i < inputs.num_plain(); ++i) {
    ++mix[inputs.entries()[i].model];
  }
  double weighted = 0.0;
  constexpr int kIterations = 100000;
  for (const auto& [kind, count] : mix) {
    const dkf::StateModel model = ModelFor(kind);
    const dkf::Matrix& phi = model.options.transition;
    const dkf::Matrix& q = model.options.process_noise;
    const dkf::Matrix& p = model.options.initial_covariance;
    dkf::Matrix t1, t2;
    std::vector<double> repeats;
    for (int r = 0; r < 5; ++r) {
      const Clock::time_point start = Clock::now();
      for (int it = 0; it < kIterations; ++it) {
        dkf::MultiplyInto(phi, p, &t1);
        dkf::MultiplyTransposedInto(t1, phi, &t2);
        dkf::AddScaledInto(t2, q, 1.0, &t2);
        g_sink = t2(0, 0);
      }
      repeats.push_back(NsPer(SecondsBetween(start, Clock::now()),
                              kIterations));
    }
    weighted += Median(repeats) * static_cast<double>(count);
  }
  return weighted / static_cast<double>(inputs.num_plain());
}

// ---- filter ------------------------------------------------------------

struct FilterRung {
  double replay_ns = 0.0;   // per source-tick, with the real decisions
  double predict_ns = 0.0;  // per Predict
  double correct_ns = 0.0;  // per Correct
  double frozen_ratio = 0.0;
};

FilterRung FilterLadder(const Inputs& inputs, const std::vector<size_t>& sample,
                        double delta, int64_t warmup, SpanRecorder* spans) {
  ScopedSpan span(spans, "ladder.filter");
  FilterRung rung;
  std::vector<dkf::KalmanFilter> filters;
  dkf::Vector z;
  // Warm each filter through its own replay so the timed ticks start
  // from the state the protocol would have reached.
  for (size_t index : sample) {
    dkf::KalmanFilter filter =
        ModelFor(inputs.entries()[index].model).MakeFilter().value();
    for (int64_t t = 0; t < warmup; ++t) {
      (void)filter.Predict();
      inputs.ReadingAt(index, t, &z);
      const dkf::Vector predicted = filter.PredictedMeasurement();
      double deviation = 0.0;
      for (size_t a = 0; a < z.size(); ++a) {
        deviation = std::max(deviation, std::fabs(predicted[a] - z[a]));
      }
      if (deviation > delta) (void)filter.Correct(z);
    }
    filters.push_back(filter);
  }
  // Readings for the timed ticks, generated off the clock.
  std::vector<std::vector<dkf::Vector>> readings(sample.size());
  for (size_t k = 0; k < sample.size(); ++k) {
    for (int64_t t = warmup; t < warmup + kLadderTicks; ++t) {
      inputs.ReadingAt(sample[k], t, &z);
      readings[k].push_back(z);
    }
  }
  const double source_ticks =
      static_cast<double>(sample.size()) * static_cast<double>(kLadderTicks);

  std::vector<dkf::KalmanFilter> replay = filters;
  int64_t armed = 0;
  Clock::time_point start = Clock::now();
  for (size_t k = 0; k < replay.size(); ++k) {
    dkf::KalmanFilter& filter = replay[k];
    for (const dkf::Vector& reading : readings[k]) {
      (void)filter.Predict();
      armed += filter.steady_state_armed() ? 1 : 0;
      const dkf::Vector predicted = filter.PredictedMeasurement();
      double deviation = 0.0;
      for (size_t a = 0; a < reading.size(); ++a) {
        deviation = std::max(deviation, std::fabs(predicted[a] - reading[a]));
      }
      if (deviation > delta) (void)filter.Correct(reading);
    }
    g_sink = filter.state()[0];
  }
  rung.replay_ns = NsPer(SecondsBetween(start, Clock::now()), source_ticks);
  rung.frozen_ratio = static_cast<double>(armed) / source_ticks;

  std::vector<dkf::KalmanFilter> predict_only = filters;
  start = Clock::now();
  for (dkf::KalmanFilter& filter : predict_only) {
    for (int64_t t = 0; t < kLadderTicks; ++t) (void)filter.Predict();
    g_sink = filter.state()[0];
  }
  rung.predict_ns = NsPer(SecondsBetween(start, Clock::now()), source_ticks);

  std::vector<dkf::KalmanFilter> corrected = filters;
  start = Clock::now();
  for (size_t k = 0; k < corrected.size(); ++k) {
    for (const dkf::Vector& reading : readings[k]) {
      (void)corrected[k].Predict();
      (void)corrected[k].Correct(reading);
    }
    g_sink = corrected[k].state()[0];
  }
  rung.correct_ns =
      NsPer(SecondsBetween(start, Clock::now()), source_ticks) -
      rung.predict_ns;
  return rung;
}

// ---- core --------------------------------------------------------------

double CoreLadder(const Inputs& inputs, const std::vector<size_t>& sample,
                  double delta, int64_t warmup, double* suppress_ratio,
                  Oracle* oracle, SpanRecorder* spans) {
  ScopedSpan span(spans, "ladder.core");
  dkf::DualLinkOptions options;
  options.delta = delta;
  std::vector<dkf::DualLink> links;
  dkf::Vector z;
  for (size_t index : sample) {
    auto prototype =
        dkf::KalmanPredictor::Create(ModelFor(inputs.entries()[index].model));
    if (!oracle->Check(prototype, "KalmanPredictor::Create")) continue;
    auto link = dkf::DualLink::Create(prototype.value(), options);
    if (!oracle->Check(link, "DualLink::Create")) continue;
    for (int64_t t = 0; t < warmup; ++t) {
      inputs.ReadingAt(index, t, &z);
      (void)link.value().Step(z);
    }
    links.push_back(std::move(link).value());
  }
  std::vector<std::vector<dkf::Vector>> readings(links.size());
  for (size_t k = 0; k < links.size(); ++k) {
    for (int64_t t = warmup; t < warmup + kLadderTicks; ++t) {
      inputs.ReadingAt(sample[k], t, &z);
      readings[k].push_back(z);
    }
  }
  int64_t sent = 0;
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < links.size(); ++k) {
    for (const dkf::Vector& reading : readings[k]) {
      auto step = links[k].Step(reading);
      sent += step.ok() && step.value().sent ? 1 : 0;
    }
  }
  const double seconds = SecondsBetween(start, Clock::now());
  const double steps =
      static_cast<double>(links.size()) * static_cast<double>(kLadderTicks);
  *suppress_ratio = steps > 0.0 ? 1.0 - static_cast<double>(sent) / steps : 0.0;
  return NsPer(seconds, steps);
}

// ---- dsms --------------------------------------------------------------

/// RunSourceTick over hand-built nodes for every plain source (the one
/// shard of the 1-shard configuration).
double DsmsLadder(const WorkloadSpec& spec, const Inputs& inputs,
                  uint64_t seed, Oracle* oracle, SpanRecorder* spans) {
  ScopedSpan span(spans, "ladder.dsms");
  const int64_t warmup =
      std::min<int64_t>(spec.warmup_ticks, kPerSourceWarmupCap);
  const dkf::ShardedStreamEngineOptions engine = EngineOptions(spec, seed, 1);
  dkf::ServerNode server(engine.protocol);
  dkf::Channel channel(
      [&server](const dkf::Message& message) {
        return server.OnMessage(message);
      },
      engine.channel);
  std::map<int, std::unique_ptr<dkf::SourceNode>> sources;
  std::map<int, dkf::Vector> readings;
  for (size_t i = 0; i < inputs.num_plain(); ++i) {
    const Inputs::Source& src = inputs.entries()[i];
    const dkf::StateModel model = ModelFor(src.model);
    oracle->Check(server.RegisterSource(src.id, model), "RegisterSource");
    dkf::SourceNodeOptions options;
    options.source_id = src.id;
    options.model = model;
    options.delta = spec.delta;
    options.energy = engine.energy;
    options.protocol = engine.protocol;
    auto node = dkf::SourceNode::Create(options);
    if (!oracle->Check(node, "SourceNode::Create")) continue;
    sources[src.id] =
        std::make_unique<dkf::SourceNode>(std::move(node).value());
    readings[src.id] = dkf::Vector(src.dim);
  }
  dkf::Vector z;
  for (int64_t tick = 0; tick < warmup + kLadderTicks; ++tick) {
    for (size_t i = 0; i < inputs.num_plain(); ++i) {
      inputs.ReadingAt(i, tick, &z);
      readings[inputs.entries()[i].id] = z;
    }
    ScopedSpan tick_span(spans, "dsms.RunSourceTick", tick);
    oracle->Check(
        dkf::RunSourceTick(tick, server, sources, readings, channel),
        "RunSourceTick");
  }
  return Median(spans->Durations("dsms.RunSourceTick", warmup)) * 1000.0 /
         static_cast<double>(inputs.num_plain());
}

// ---- shard -------------------------------------------------------------

double ShardLadder(const WorkloadSpec& spec, const Inputs& inputs,
                   uint64_t seed, Oracle* oracle, SpanRecorder* spans) {
  ScopedSpan span(spans, "ladder.shard");
  const dkf::ShardedStreamEngineOptions engine = EngineOptions(spec, seed, 1);
  dkf::StreamShard shard(engine.channel, engine.energy, engine.default_delta,
                         engine.protocol, engine.serve);
  if (spec.batched_fleet) oracle->Check(shard.EnableFleet(), "EnableFleet");
  dkf::QueryRegistry registry;
  for (size_t i = 0; i < inputs.num_plain(); ++i) {
    const Inputs::Source& src = inputs.entries()[i];
    oracle->Check(shard.AddSource(src.id, ModelFor(src.model)), "AddSource");
    dkf::ContinuousQuery query;
    query.id = src.id + 1;
    query.source_id = src.id;
    query.precision = spec.delta;
    oracle->Check(registry.AddQuery(query), "AddQuery");
    oracle->Check(shard.Reconfigure(src.id, registry), "Reconfigure");
  }
  for (const Inputs::Group& group : inputs.groups()) {
    dkf::FusionGroupConfig config;
    config.group_id = group.group_id;
    config.model = ModelFor(ModelKind::kLinear1);
    config.member_ids = group.member_ids;
    config.delta = spec.fused_delta;
    oracle->Check(shard.RegisterFusionGroup(config), "RegisterFusionGroup");
    dkf::FusedQuery query;
    query.id = (1 << 23) + group.group_id;
    query.group_id = group.group_id;
    query.precision = spec.fused_delta;
    oracle->Check(registry.AddFusedQuery(query), "AddFusedQuery");
    oracle->Check(shard.ReconfigureFusionGroup(group.group_id, registry),
                  "ReconfigureFusionGroup");
  }
  // Aggregate subscriptions live at the engine, so they stay out of the
  // shard rung and land in the runtime rung's self time.
  for (const dkf::Subscription& sub : inputs.subscriptions()) {
    if (sub.kind == dkf::SubscriptionKind::kAggregate) continue;
    oracle->Check(shard.Subscribe(sub, 0), "Subscribe");
  }
  dkf::ReadingBatch batch = inputs.MakeBatch();
  for (int64_t tick = 0; tick < spec.warmup_ticks + kLadderTicks; ++tick) {
    inputs.Fill(tick, &batch);
    ScopedSpan tick_span(spans, "shard.tick", tick);
    oracle->Check(shard.ProcessTick(tick, batch), "StreamShard::ProcessTick");
    g_sink = static_cast<double>(shard.DrainNotifications().size());
  }
  return Median(spans->Durations("shard.tick", spec.warmup_ticks)) * 1000.0 /
         static_cast<double>(spec.total_sources());
}

// ---- engine passes -----------------------------------------------------

/// Runs ticks [first, last) on `engine` closed loop with one "tick" span
/// per tick (children: ProcessTick, DrainNotifications) under `label`.
void TracedTicks(dkf::ShardedStreamEngine* engine, const Inputs& inputs,
                 dkf::ReadingBatch* batch, int64_t first, int64_t last,
                 const std::string& label, Oracle* oracle,
                 SpanRecorder* spans) {
  for (int64_t tick = first; tick < last; ++tick) {
    inputs.Fill(tick, batch);
    ScopedSpan tick_span(spans, label, tick);
    {
      ScopedSpan call(spans, "engine.ProcessTick", tick);
      oracle->Check(engine->ProcessTick(*batch), "ProcessTick");
    }
    std::vector<dkf::NotificationBatch> delivered;
    {
      ScopedSpan call(spans, "engine.DrainNotifications", tick);
      delivered = engine->DrainNotifications();
    }
    tick_span.End();
    oracle->FoldNotifications(delivered);
  }
}

dkf::ObsOptions CounterObs() {
  dkf::ObsOptions obs;
  obs.ring_capacity = 1 << 8;  // the counters stay exact when it wraps
  return obs;
}

}  // namespace

RunResult RunTraced(const WorkloadSpec& spec, const RunOptions& options) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  SpanRecorder spans;
  Oracle oracle;
  const Inputs inputs = Inputs::Generate(spec, options.seed);
  dkf::ReadingBatch batch = inputs.MakeBatch();
  const int64_t warmup = spec.warmup_ticks;
  const int64_t end = warmup + kLadderTicks;
  const double sources = static_cast<double>(spec.total_sources());
  const double plain = static_cast<double>(inputs.num_plain());
  RunResult result;
  MetricMap& m = result.metrics;

  // ---- ladder rungs ---------------------------------------------------
  const std::vector<size_t> sample = LadderSample(inputs);
  const int64_t per_source_warmup = std::min(warmup, kPerSourceWarmupCap);
  const double linalg_ns = LinalgCovUpdateNs(inputs, &spans);
  const FilterRung filter =
      FilterLadder(inputs, sample, spec.delta, per_source_warmup, &spans);
  double core_suppress = 0.0;
  const double core_ns =
      CoreLadder(inputs, sample, spec.delta, per_source_warmup,
                 &core_suppress, &oracle, &spans);
  const double dsms_ns =
      DsmsLadder(spec, inputs, options.seed, &oracle, &spans);
  const double shard_ns =
      ShardLadder(spec, inputs, options.seed, &oracle, &spans);

  // The untraced 1-shard engine (the ladder's top rung) and the same
  // engine with its tracing on (the reference the ladder sum must match)
  // tick in alternating chunks, so both see the same machine.
  std::unique_ptr<dkf::ShardedStreamEngine> engine =
      BuildEngine(spec, inputs, options.seed, 1, true, &oracle, &spans,
                  nullptr);
  std::unique_ptr<dkf::ShardedStreamEngine> traced =
      BuildEngine(spec, inputs, options.seed, 1, true, &oracle, &spans,
                  nullptr);
  oracle.Check(traced->EnableTracing(CounterObs()), "EnableTracing");
  for (int64_t tick = 0; tick < end; tick += kObsChunkTicks) {
    const int64_t last = std::min(end, tick + kObsChunkTicks);
    TracedTicks(engine.get(), inputs, &batch, tick, last, "engine1.tick",
                &oracle, &spans);
    TracedTicks(traced.get(), inputs, &batch, tick, last,
                "engine1_traced.tick", &oracle, &spans);
  }
  const double engine1_ns =
      Median(spans.Durations("engine1.tick", warmup)) * 1000.0 / sources;
  const double engine1_traced_us =
      Median(spans.Durations("engine1_traced.tick", warmup));
  engine.reset();
  traced.reset();

  // ---- the 4-shard traced engine: exact counters ----------------------
  SetupTimes setup;
  engine = BuildEngine(spec, inputs, options.seed, spec.shards, true,
                       &oracle, &spans, &setup);
  if (inputs.subscriptions().empty()) {
    // No standing queries in this workload: probe the subscribe path with
    // transient band alerts so its cost is still measured.
    constexpr int kProbes = 256;
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < kProbes; ++k) {
      dkf::Subscription sub;
      sub.id = k;
      sub.kind = dkf::SubscriptionKind::kBandAlert;
      sub.source_id = inputs.entries()[static_cast<size_t>(k) %
                                       inputs.num_plain()].id;
      sub.lo = -1.0;
      sub.hi = 1.0;
      ScopedSpan span(&spans, "engine.Subscribe");
      oracle.Check(engine->Subscribe(sub), "Subscribe");
    }
    setup.subscribe_seconds = SecondsBetween(start, Clock::now());
    for (int k = 0; k < kProbes; ++k) {
      oracle.Check(engine->Unsubscribe(k), "Unsubscribe");
    }
    (void)engine->DrainNotifications();
    m["serve.subscribe_us_per_sub"] = {
        setup.subscribe_seconds * 1e6 / kProbes, "us"};
  } else {
    m["serve.subscribe_us_per_sub"] = {
        setup.subscribe_seconds * 1e6 /
            static_cast<double>(inputs.subscriptions().size()),
        "us"};
  }
  m["query.register_us_per_source"] = {setup.register_seconds * 1e6 / plain,
                                       "us"};
  TracedTicks(engine.get(), inputs, &batch, 0, warmup, "engine4.warmup",
              &oracle, &spans);
  oracle.Check(engine->EnableTracing(CounterObs()), "EnableTracing");
  const dkf::ChannelStats uplink0 = engine->uplink_traffic();
  const dkf::ProtocolFaultStats faults0 = engine->fault_stats();
  const dkf::ServeStats serve0 = engine->serve_stats();
  const dkf::FusionStats fusion0 = engine->fusion_stats();
  const int64_t spills0 = engine->fleet_spill_count();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point wall0 = Clock::now();
  TracedTicks(engine.get(), inputs, &batch, warmup, end, "engine4.tick",
              &oracle, &spans);
  const double cpu_per_wall =
      (ProcessCpuSeconds() - cpu0) / SecondsBetween(wall0, Clock::now());
  const dkf::MetricsRegistry counters = engine->MetricsSnapshot();
  const dkf::ChannelStats uplink1 = engine->uplink_traffic();
  const dkf::ProtocolFaultStats faults1 = engine->fault_stats();
  const dkf::ServeStats serve1 = engine->serve_stats();
  const dkf::FusionStats fusion1 = engine->fusion_stats();
  const double ticks = static_cast<double>(kLadderTicks);

  m["dsms.transmits"] = {static_cast<double>(counters.counter("trace.transmit")),
                         "count"};
  m["dsms.heartbeats"] = {
      static_cast<double>(faults1.heartbeats_sent - faults0.heartbeats_sent),
      "count"};
  m["dsms.ambiguous_acks"] = {
      static_cast<double>(faults1.ambiguous_acks - faults0.ambiguous_acks),
      "count"};
  m["dsms.rejected"] = {
      static_cast<double>(faults1.rejected_stale + faults1.rejected_corrupt -
                          faults0.rejected_stale - faults0.rejected_corrupt),
      "count"};
  const int64_t resyncs_sent = faults1.resyncs_sent - faults0.resyncs_sent;
  m["dsms.resyncs_sent"] = {static_cast<double>(resyncs_sent), "count"};
  m["dsms.resync_useful_ratio"] = {
      resyncs_sent == 0
          ? 1.0
          : static_cast<double>(faults1.resyncs_applied -
                                faults0.resyncs_applied) /
                static_cast<double>(resyncs_sent),
      "ratio"};
  m["fleet.resident_ratio"] = {
      static_cast<double>(engine->fleet_resident_count()) / plain, "ratio"};
  m["fleet.spills_per_ksource_tick"] = {
      static_cast<double>(engine->fleet_spill_count() - spills0) * 1000.0 /
          (ticks * plain),
      "count"};
  const int64_t affected = serve1.affected - serve0.affected;
  m["serve.touched_per_affected"] = {
      affected == 0 ? 0.0
                    : static_cast<double>(serve1.touched - serve0.touched) /
                          static_cast<double>(affected),
      "ratio"};
  m["serve.dropped"] = {static_cast<double>(serve1.dropped - serve0.dropped),
                        "count"};
  m["serve.drain_us"] = {
      Median(spans.Durations("engine.DrainNotifications", warmup)), "us"};
  m["fusion.broadcasts_per_ktick"] = {
      static_cast<double>(fusion1.broadcasts - fusion0.broadcasts) * 1000.0 /
          ticks,
      "count"};
  const int64_t fused_suppressed = fusion1.suppressed - fusion0.suppressed;
  const int64_t fused_sent = fusion1.transmissions - fusion0.transmissions;
  m["fusion.suppress_ratio"] = {
      fused_suppressed + fused_sent == 0
          ? 0.0
          : static_cast<double>(fused_suppressed) /
                static_cast<double>(fused_suppressed + fused_sent),
      "ratio"};
  m["governor.delta_changes"] = {
      static_cast<double>(counters.counter("trace.delta_raise") +
                          counters.counter("trace.delta_lower")),
      "count"};
  m["governor.budget_error_pct"] = {
      spec.governor ? (static_cast<double>(uplink1.bytes - uplink0.bytes) /
                           ticks / spec.governor_budget_bytes_per_tick -
                       1.0) * 100.0
                    : 0.0,
      "%"};
  {
    // Epoch ticks are the ones whose (tick + 1) is a multiple of the
    // governor epoch; without a governor the split still measures how
    // evenly the engine ticks.
    const int64_t epoch = EngineOptions(spec, options.seed, 1)
                              .governor.epoch_ticks;
    std::vector<double> epoch_ticks, other_ticks;
    for (const SpanRecorder::Span& span : spans.spans()) {
      if (span.name != "engine4.tick") continue;
      ((span.tick + 1) % epoch == 0 ? epoch_ticks : other_ticks)
          .push_back(span.end_us - span.start_us);
    }
    m["governor.epoch_extra_us"] = {Median(epoch_ticks) - Median(other_ticks),
                                    "us"};
  }
  const double engine4_us = Median(spans.Durations("engine4.tick", warmup));
  m["runtime.cpu_per_wall"] = {cpu_per_wall, "ratio"};

  // Tracing overhead: alternate untraced and traced chunks on the same
  // warm engine (ABBA order) and compare the median tick of each.
  {
    int64_t tick = end;
    for (int chunk = 0; chunk < kObsChunks; ++chunk) {
      const bool traced = chunk % 4 == 1 || chunk % 4 == 2;
      if (traced) {
        oracle.Check(engine->EnableTracing(CounterObs()), "EnableTracing");
      } else {
        engine->DisableTracing();
      }
      TracedTicks(engine.get(), inputs, &batch, tick, tick + kObsChunkTicks,
                  traced ? "obs.traced_tick" : "obs.untraced_tick", &oracle,
                  &spans);
      tick += kObsChunkTicks;
    }
    engine->DisableTracing();
    const double plain_us = Median(spans.Durations("obs.untraced_tick"));
    const double traced_us = Median(spans.Durations("obs.traced_tick"));
    m["obs.overhead_pct"] = {(traced_us / plain_us - 1.0) * 100.0, "%"};
  }

  // Checkpoint round trip on the warm 4-shard engine.
  {
    const std::string path = options.out_dir + "/" + spec.name + "-traced-" +
                             std::to_string(options.seed) + ".snapshot";
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(&spans, "engine.Save");
      oracle.Check(engine->Save(path), "Save");
    }
    m["checkpoint.save_s"] = {SecondsBetween(start, Clock::now()), "s"};
    std::error_code ignored;
    const auto bytes = std::filesystem::file_size(path, ignored);
    m["checkpoint.bytes_per_source"] = {
        ignored ? 0.0 : static_cast<double>(bytes) / sources, "B"};
    engine.reset();
    start = Clock::now();
    {
      ScopedSpan span(&spans, "engine.Restore");
      auto restored = dkf::ShardedStreamEngine::Restore(path, spec.shards,
                                                        spec.batched_fleet);
      if (oracle.Check(restored, "Restore")) {
        engine = std::move(restored).value();
      }
    }
    m["checkpoint.restore_s"] = {SecondsBetween(start, Clock::now()), "s"};
    std::filesystem::remove(path, ignored);
    engine.reset();
  }

  // The serving layer's share of the tick: the same 4-shard engine with no
  // subscriptions attached.
  engine = BuildEngine(spec, inputs, options.seed, spec.shards, false,
                       &oracle, &spans, nullptr);
  oracle.Check(engine->EnableTracing(CounterObs()), "EnableTracing");
  TracedTicks(engine.get(), inputs, &batch, 0, end, "engine4_nosubs.tick",
              &oracle, &spans);
  m["serve.tick_cost_us"] = {
      engine4_us - Median(spans.Durations("engine4_nosubs.tick", warmup)), "us"};
  engine.reset();

  // ---- ladder metrics ---------------------------------------------------
  m["linalg.cov_update_ns"] = {linalg_ns, "ns"};
  m["filter.predict_ns"] = {filter.predict_ns, "ns"};
  m["filter.correct_ns"] = {filter.correct_ns, "ns"};
  m["filter.frozen_ratio"] = {filter.frozen_ratio, "ratio"};
  m["core.link_step_ns"] = {core_ns, "ns"};
  m["core.suppress_ratio"] = {core_suppress, "ratio"};
  m["dsms.source_tick_ns"] = {dsms_ns, "ns"};
  m["shard.tick_ns_per_source"] = {shard_ns, "ns"};
  m["runtime.engine1_tick_ns_per_source"] = {engine1_ns, "ns"};
  m["runtime.dispatch_us"] = {(engine1_ns - shard_ns) * sources / 1000.0,
                              "us"};
  m["runtime.scaling_4v1"] = {engine1_traced_us / engine4_us, "x"};

  m["ladder.self.linalg_ns"] = {linalg_ns, "ns"};
  m["ladder.self.filter_ns"] = {filter.replay_ns - linalg_ns, "ns"};
  m["ladder.self.core_ns"] = {core_ns - filter.replay_ns, "ns"};
  m["ladder.self.dsms_ns"] = {dsms_ns - core_ns, "ns"};
  m["ladder.self.shard_ns"] = {shard_ns - dsms_ns, "ns"};
  m["ladder.self.runtime_ns"] = {engine1_ns - shard_ns, "ns"};
  double ladder_sum = 0.0;
  for (const char* rung : {"linalg", "filter", "core", "dsms", "shard",
                           "runtime"}) {
    ladder_sum += m[std::string("ladder.self.") + rung + "_ns"].value;
  }
  const double engine1_traced_ns = engine1_traced_us * 1000.0 / sources;
  m["ladder.sum_ns"] = {ladder_sum, "ns"};
  m["ladder.engine1_traced_ns"] = {engine1_traced_ns, "ns"};
  m["ladder.gap_pct"] = {
      (ladder_sum - engine1_traced_ns) / engine1_traced_ns * 100.0, "%"};

  // ---- span file ----------------------------------------------------------
  // One file per workload, overwritten by the next traced run: a run of
  // alert_serving alone records about 800k spans.
  const std::string span_path =
      options.out_dir + "/spans-" + spec.name + ".jsonl";
  result.extra["spans_written"] = {
      spans.WriteJsonLines(span_path)
          ? static_cast<double>(spans.spans().size())
          : 0.0,
      "count"};
  result.extra["spans_dropped"] = {static_cast<double>(spans.dropped()),
                                   "count"};
  oracle.Check(spans.dropped() == 0 && result.extra["spans_written"].value > 0
                   ? dkf::Status::OK()
                   : dkf::Status::Internal("span file not written in full"),
               "WriteSpans");
  result.attempted = oracle.attempted();
  result.failed = oracle.failed();
  return result;
}

}  // namespace perfbench
