#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsms/channel.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "models/model_factory.h"

namespace dkf {
namespace {

StateModel LinearModel() {
  auto model_or = MakeLinearModel(1, 1.0, ModelNoise{});
  EXPECT_TRUE(model_or.ok());
  return model_or.value();
}

SourceNodeOptions DefaultSourceOptions(int id = 1, double delta = 2.0) {
  SourceNodeOptions options;
  options.source_id = id;
  options.model = LinearModel();
  options.delta = delta;
  return options;
}

TEST(SourceNodeTest, CreateValidates) {
  SourceNodeOptions options = DefaultSourceOptions();
  options.delta = 0.0;
  EXPECT_FALSE(SourceNode::Create(options).ok());
  options.delta = std::nan("");
  EXPECT_FALSE(SourceNode::Create(options).ok());

  options = DefaultSourceOptions();
  auto node_or = SourceNode::Create(options);
  ASSERT_TRUE(node_or.ok());
  EXPECT_FALSE(node_or.value().set_delta(std::nan("")).ok());
  EXPECT_FALSE(node_or.value().set_delta(-1.0).ok());
  EXPECT_EQ(node_or.value().delta(), 2.0);

  options.smoothing_factor = 1e-7;
  // Linear 1-axis model has measurement width 1 -> smoothing allowed.
  EXPECT_TRUE(SourceNode::Create(options).ok());

  auto wide_or = MakeLinearModel(2, 1.0, ModelNoise{});
  ASSERT_TRUE(wide_or.ok());
  options.model = wide_or.value();
  EXPECT_FALSE(SourceNode::Create(options).ok());  // smoothing needs width 1
}

TEST(ServerNodeTest, RegistrationLifecycle) {
  ServerNode server;
  ASSERT_TRUE(server.RegisterSource(1, LinearModel()).ok());
  EXPECT_EQ(server.RegisterSource(1, LinearModel()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(server.num_sources(), 1u);
  EXPECT_TRUE(server.Answer(1).ok());
  EXPECT_EQ(server.Answer(2).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(server.UnregisterSource(1).ok());
  EXPECT_EQ(server.UnregisterSource(1).code(), StatusCode::kNotFound);
}

TEST(ServerNodeTest, MessageForUnknownSourceRejected) {
  ServerNode server;
  Message message;
  message.source_id = 99;
  message.payload = Vector{1.0};
  EXPECT_EQ(server.OnMessage(message).code(), StatusCode::kNotFound);
}

TEST(ServerNodeTest, ModelSwitchMessageUnimplemented) {
  ServerNode server;
  ASSERT_TRUE(server.RegisterSource(1, LinearModel()).ok());
  Message message;
  message.type = MessageType::kModelSwitch;
  message.source_id = 1;
  EXPECT_EQ(server.OnMessage(message).code(), StatusCode::kUnimplemented);
}

TEST(SourceServerTest, MirrorStateMatchesServerAfterEveryTick) {
  // The distributed version of the mirror-consistency invariant: run the
  // full node/channel/server pipeline and compare KF_m with KF_s each
  // tick.
  ServerNode server;
  ASSERT_TRUE(server.RegisterSource(1, LinearModel()).ok());
  Channel channel(
      [&server](const Message& message) { return server.OnMessage(message); });
  auto node_or = SourceNode::Create(DefaultSourceOptions());
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();

  Rng rng(31);
  double value = 0.0;
  for (int64_t tick = 0; tick < 2000; ++tick) {
    value += rng.Gaussian(0.5, 1.0);
    ASSERT_TRUE(server.TickAll().ok());
    ASSERT_TRUE(node.ProcessReading(tick, Vector{value}, &channel).ok());
    auto server_predictor_or = server.predictor(1);
    ASSERT_TRUE(server_predictor_or.ok());
    ASSERT_TRUE(node.mirror().StateEquals(*server_predictor_or.value()))
        << "tick " << tick;
  }
}

TEST(SourceServerTest, SuppressedTicksSendNothing) {
  ServerNode server;
  ASSERT_TRUE(server.RegisterSource(1, LinearModel()).ok());
  Channel channel(
      [&server](const Message& message) { return server.OnMessage(message); });
  auto node_or = SourceNode::Create(DefaultSourceOptions(1, 5.0));
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();

  for (int64_t tick = 0; tick < 300; ++tick) {
    ASSERT_TRUE(server.TickAll().ok());
    ASSERT_TRUE(
        node.ProcessReading(tick, Vector{2.0 * static_cast<double>(tick)},
                            &channel)
            .ok());
  }
  // A clean ramp: only the first few readings cross the wire.
  EXPECT_LT(channel.total().messages, 10);
  EXPECT_EQ(channel.total().messages, node.updates_sent());
  EXPECT_EQ(node.readings(), 300);
}

TEST(SourceServerTest, ServerAnswerWithinDeltaOnSuppressedTicks) {
  ServerNode server;
  ASSERT_TRUE(server.RegisterSource(1, LinearModel()).ok());
  Channel channel(
      [&server](const Message& message) { return server.OnMessage(message); });
  auto node_or = SourceNode::Create(DefaultSourceOptions(1, 3.0));
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();

  Rng rng(32);
  double value = 0.0;
  double slope = 1.0;
  for (int64_t tick = 0; tick < 2000; ++tick) {
    if (tick % 250 == 0) slope = rng.Uniform(-2.0, 2.0);
    value += slope;
    ASSERT_TRUE(server.TickAll().ok());
    auto step_or = node.ProcessReading(tick, Vector{value}, &channel);
    ASSERT_TRUE(step_or.ok());
    if (!step_or.value().sent) {
      auto answer_or = server.Answer(1);
      ASSERT_TRUE(answer_or.ok());
      EXPECT_LE(std::fabs(answer_or.value()[0] - value), 3.0 + 1e-9)
          << "tick " << tick;
    }
  }
}

TEST(SourceServerTest, MirrorConsistentUnderMessageLoss) {
  // The load-bearing property of the ACK-based loss handling: even on a
  // badly lossy uplink KF_m never diverges from KF_s, because the mirror
  // is corrected only on confirmed deliveries.
  ServerNode server;
  ASSERT_TRUE(server.RegisterSource(1, LinearModel()).ok());
  ChannelOptions lossy;
  lossy.drop_probability = 0.4;
  Channel channel(
      [&server](const Message& message) { return server.OnMessage(message); },
      lossy);
  auto node_or = SourceNode::Create(DefaultSourceOptions());
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();

  Rng rng(34);
  double value = 0.0;
  int64_t drops_seen = 0;
  for (int64_t tick = 0; tick < 3000; ++tick) {
    value += rng.Gaussian(0.5, 1.0);
    ASSERT_TRUE(server.TickAll().ok());
    auto step_or = node.ProcessReading(tick, Vector{value}, &channel);
    ASSERT_TRUE(step_or.ok());
    if (step_or.value().sent && !step_or.value().delivered) ++drops_seen;
    auto server_predictor_or = server.predictor(1);
    ASSERT_TRUE(server_predictor_or.ok());
    ASSERT_TRUE(node.mirror().StateEquals(*server_predictor_or.value()))
        << "tick " << tick;
  }
  // The channel really was lossy.
  EXPECT_GT(drops_seen, 100);
  EXPECT_EQ(channel.total().dropped, drops_seen);
}

TEST(SourceServerTest, LossInflatesTransmissionsNotErrorBound) {
  // Drops force retries (more transmissions), but on suppressed ticks the
  // precision guarantee is untouched — the mirror knows exactly what the
  // server missed.
  auto run = [](double drop_probability) {
    ServerNode server;
    EXPECT_TRUE(server.RegisterSource(1, LinearModel()).ok());
    ChannelOptions options;
    options.drop_probability = drop_probability;
    Channel channel(
        [&server](const Message& message) {
          return server.OnMessage(message);
        },
        options);
    auto node = SourceNode::Create(DefaultSourceOptions(1, 3.0)).value();
    Rng rng(35);
    double value = 0.0;
    double slope = 1.0;
    for (int64_t tick = 0; tick < 2000; ++tick) {
      if (tick % 250 == 0) slope = rng.Uniform(-2.0, 2.0);
      value += slope;
      EXPECT_TRUE(server.TickAll().ok());
      auto step = node.ProcessReading(tick, Vector{value}, &channel).value();
      if (!step.sent) {
        EXPECT_LE(std::fabs(server.Answer(1).value()[0] - value),
                  3.0 + 1e-9);
      }
    }
    return node.updates_sent();
  };
  const int64_t clean = run(0.0);
  const int64_t lossy = run(0.3);
  EXPECT_GT(lossy, clean);
}

TEST(SourceServerTest, SmoothingFilterChangesProtocolValue) {
  SourceNodeOptions options = DefaultSourceOptions();
  options.smoothing_factor = 1e-9;
  auto node_or = SourceNode::Create(options);
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();
  Rng rng(33);
  // Heavy smoothing: the protocol value must be much less noisy than the
  // raw reading.
  double raw_dev = 0.0;
  double smooth_dev = 0.0;
  int count = 0;
  for (int64_t tick = 0; tick < 1000; ++tick) {
    const double raw = 10.0 + rng.Gaussian(0.0, 2.0);
    auto step_or = node.ProcessReading(tick, Vector{raw}, nullptr);
    ASSERT_TRUE(step_or.ok());
    if (tick > 200) {
      raw_dev += std::fabs(raw - 10.0);
      smooth_dev += std::fabs(step_or.value().protocol_value[0] - 10.0);
      ++count;
    }
  }
  EXPECT_LT(smooth_dev / count, 0.2 * raw_dev / count);
}

TEST(SourceServerTest, ComponentDeltasValidatedAndApplied) {
  auto wide_or = MakeLinearModel(2, 1.0, ModelNoise{});
  ASSERT_TRUE(wide_or.ok());

  SourceNodeOptions options;
  options.source_id = 1;
  options.model = wide_or.value();
  options.component_deltas = {1.0};  // wrong arity
  EXPECT_FALSE(SourceNode::Create(options).ok());
  options.component_deltas = {1.0, -2.0};
  EXPECT_FALSE(SourceNode::Create(options).ok());
  options.component_deltas = {std::nan(""), 1.0};
  EXPECT_FALSE(SourceNode::Create(options).ok());

  options.component_deltas = {1.0, 1000.0};
  auto node_or = SourceNode::Create(options);
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();

  // Sync once, then drift only the loose attribute: no transmissions.
  ASSERT_TRUE(node.ProcessReading(0, Vector{0.0, 0.0}, nullptr).ok());
  int sent = 0;
  for (int64_t tick = 1; tick <= 30; ++tick) {
    auto step_or = node.ProcessReading(
        tick, Vector{0.0, 30.0 * static_cast<double>(tick)}, nullptr);
    ASSERT_TRUE(step_or.ok());
    if (step_or.value().sent) ++sent;
  }
  // The linear model learns the Y slope after the first couple of
  // violations of the loose width... which never happen (30/tick is far
  // below 1000). Only the initial sync transmissions occur.
  EXPECT_LE(sent, 2);
  // A tight-attribute excursion transmits immediately.
  auto jump_or = node.ProcessReading(31, Vector{50.0, 30.0 * 31}, nullptr);
  ASSERT_TRUE(jump_or.ok());
  EXPECT_TRUE(jump_or.value().sent);
}

TEST(SourceServerTest, EnergyAccountingTracksActivity) {
  auto node_or = SourceNode::Create(DefaultSourceOptions());
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();
  ASSERT_TRUE(node.ProcessReading(0, Vector{100.0}, nullptr).ok());
  // One reading, one filter step, and (deviant first value) a transmission.
  EXPECT_GT(node.energy().sensing(), 0.0);
  EXPECT_GT(node.energy().compute(), 0.0);
  EXPECT_GT(node.energy().transmission(), 0.0);
}

TEST(SourceServerTest, ReadingWidthValidated) {
  auto node_or = SourceNode::Create(DefaultSourceOptions());
  ASSERT_TRUE(node_or.ok());
  SourceNode node = std::move(node_or).value();
  EXPECT_FALSE(node.ProcessReading(0, Vector{1.0, 2.0}, nullptr).ok());
}

}  // namespace
}  // namespace dkf
