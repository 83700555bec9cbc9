// Property test tying the observability layer to the paper's precision
// contract: across randomized models, precision widths, and smoothing
// factors, (a) the server's answer on every suppressed non-degraded tick
// is within delta of the value that entered the protocol, component by
// component (the node's max-abs rule, §5.1), and (b) the trace tells the
// truth: every transmit event records a genuine delta-violation
// (deviation > bound) and every suppress event records compliance.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/suppression.h"
#include "dsms/channel.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "models/model_factory.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"

namespace dkf {
namespace {

struct SweepConfig {
  StateModel model;
  double delta = 1.0;
  std::optional<double> smoothing_factor;
  double drift = 0.0;
  double step_sigma = 0.5;
};

/// One randomized configuration drawn from the sweep RNG.
SweepConfig DrawConfig(Rng& rng) {
  SweepConfig config;
  const size_t dim = 1 + static_cast<size_t>(rng.Uniform() * 3.0) % 3;
  ModelNoise noise;
  noise.process_variance = 0.02 + 0.1 * rng.Uniform();
  noise.measurement_variance = 0.02 + 0.1 * rng.Uniform();
  if (rng.Uniform() < 0.5) {
    config.model = MakeConstantModel(dim, noise).value();
  } else {
    config.model = MakeLinearModel(dim, 1.0, noise).value();
  }
  config.delta = 0.4 + 2.6 * rng.Uniform();
  // A norm and per-attribute widths are still drawn, and discarded (the
  // node's rule is max-abs over delta), so every other draw of the sweep
  // stays what it was.
  (void)rng.Uniform();
  if (dim > 1 && rng.Uniform() < 0.5) {
    for (size_t i = 0; i < dim; ++i) (void)rng.Uniform();
  }
  if (dim == 1 && rng.Uniform() < 0.4) {
    // KF_c smoothing factors F spanning heavy to light smoothing (§4.3).
    config.smoothing_factor = rng.Uniform() < 0.5 ? 1e-3 : 0.1;
  }
  config.drift = 0.1 * rng.Uniform();
  config.step_sigma = 0.2 + 0.8 * rng.Uniform();
  return config;
}

TEST(ObsPropertyTest, PrecisionHoldsAndTraceEventsMatchDecisions) {
  constexpr int kConfigs = 24;
  constexpr int64_t kTicks = 150;
  Rng sweep_rng(2024);

  for (int c = 0; c < kConfigs; ++c) {
    const SweepConfig config = DrawConfig(sweep_rng);
    const size_t dim = config.model.measurement_dim;

    ServerNode server;
    ASSERT_TRUE(server.RegisterSource(1, config.model).ok());
    Channel channel(
        [&server](const Message& message) {
          return server.OnMessage(message);
        },
        ChannelOptions());  // loss-free: the pure protocol property

    SourceNodeOptions node_options;
    node_options.source_id = 1;
    node_options.model = config.model;
    node_options.delta = config.delta;
    node_options.smoothing_factor = config.smoothing_factor;
    auto node_or = SourceNode::Create(node_options);
    ASSERT_TRUE(node_or.ok()) << "config " << c;
    SourceNode source = std::move(node_or).value();

    TraceSink sink;
    source.set_trace_sink(&sink);
    server.set_trace_sink(&sink);

    Rng walk_rng(100 + c);
    std::vector<double> truth(dim, 0.0);
    int64_t suppressed_checks = 0;
    for (int64_t t = 0; t < kTicks; ++t) {
      ASSERT_TRUE(server.TickAll().ok());
      ASSERT_TRUE(channel.BeginTick(t).ok());
      Vector reading(dim);
      for (size_t i = 0; i < dim; ++i) {
        truth[i] += walk_rng.Gaussian(config.drift, config.step_sigma);
        reading[i] = truth[i];
      }
      auto step_or = source.ProcessReading(t, reading, &channel);
      ASSERT_TRUE(step_or.ok()) << "config " << c << " tick " << t;
      const SourceStepResult& step = step_or.value();
      ASSERT_FALSE(step.pending_resync);  // loss-free channel

      ASSERT_FALSE(server.degraded(1).value());
      if (step.sent) continue;  // update ticks correct toward the value
      ++suppressed_checks;
      const Vector answer = server.Answer(1).value();
      ASSERT_EQ(answer.size(), dim);
      ASSERT_LE(Deviation(answer, step.protocol_value,
                          DeviationNorm::kMaxAbs),
                config.delta)
          << "config " << c << " tick " << t;
      // The max-abs guarantee is per component (§5.1).
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_LE(std::fabs(answer[i] - step.protocol_value[i]),
                  config.delta)
            << "config " << c << " tick " << t << " component " << i;
      }
    }
    ASSERT_GT(suppressed_checks, 0) << "config " << c;

#if DKF_OBS_ENABLED
    // The trace must mirror the decisions exactly: one suppress-or-
    // transmit event per tick, transmit iff genuine delta-violation.
    EXPECT_EQ(sink.count(TraceEventKind::kTransmit),
              source.updates_sent())
        << "config " << c;
    EXPECT_EQ(sink.count(TraceEventKind::kSuppress) +
                  sink.count(TraceEventKind::kTransmit),
              kTicks)
        << "config " << c;
    int64_t transmit_events = 0;
    for (const TraceEvent& event : sink.Events()) {
      if (event.kind == TraceEventKind::kTransmit) {
        ++transmit_events;
        EXPECT_GT(event.value, event.aux)
            << "config " << c << ": transmit without a delta-violation "
            << "at step " << event.step;
      } else if (event.kind == TraceEventKind::kSuppress) {
        EXPECT_LE(event.value, event.aux)
            << "config " << c << ": suppression despite a delta-violation "
            << "at step " << event.step;
      }
    }
    EXPECT_EQ(transmit_events, source.updates_sent()) << "config " << c;
    // Loss-free link: every transmit was applied at the server.
    EXPECT_EQ(sink.count(TraceEventKind::kUpdateApplied),
              source.updates_sent())
        << "config " << c;
#endif
  }
}

}  // namespace
}  // namespace dkf
