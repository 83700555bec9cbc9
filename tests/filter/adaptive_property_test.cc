// Property battery for the mirror-consistent adaptive noise servo
// (filter/adaptive_noise.h, docs/adaptive.md). The load-bearing claim:
// adaptation is driven ONLY by transmitted information, so across any
// randomized fault cocktail the two ends' servos — and therefore the
// effective noise matrices installed in KF_m and KF_s — are bit-
// identical whenever the link is healthy, and bit-reconverge at the
// tick a resync heals a broken one.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsms/channel.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "filter/adaptive_noise.h"
#include "models/model_factory.h"

namespace dkf {
namespace {

StateModel ScalarModel(double measurement_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = measurement_variance;
  return MakeLinearModel(1, 1.0, noise).value();
}

AdaptiveNoiseConfig FastAdaptation() {
  AdaptiveNoiseConfig config;
  config.enabled = true;
  config.warmup_corrections = 4;
  config.widen_rate = 0.15;
  config.shrink_rate = 0.05;
  return config;
}

bool MatrixBitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const size_t n = a.rows() * a.cols();
  return n == 0 ||
         std::memcmp(a.RowData(0), b.RowData(0), n * sizeof(double)) == 0;
}

// --- Servo unit properties -------------------------------------------

TEST(NoiseAdapterTest, DefaultConstructedIsDisabledNoOp) {
  NoiseAdapter adapter;
  EXPECT_FALSE(adapter.enabled());
  EXPECT_EQ(adapter.ExportState().size(), 0u);
  EXPECT_TRUE(adapter.ImportState(Vector()).ok());
  EXPECT_EQ(adapter.r_scale(), 1.0);
  EXPECT_EQ(adapter.q_scale(), 1.0);
}

TEST(NoiseAdapterTest, CreateRejectsBadConfig) {
  const StateModel model = ScalarModel();
  AdaptiveNoiseConfig config = FastAdaptation();
  config.ratio_alpha = 1.5;
  EXPECT_FALSE(NoiseAdapter::Create(config, model).ok());
  config = FastAdaptation();
  config.widen_threshold = 0.4;  // below shrink_threshold
  EXPECT_FALSE(NoiseAdapter::Create(config, model).ok());
  config = FastAdaptation();
  config.r_scale_floor = 2.0;
  config.r_scale_ceiling = 1.0;
  EXPECT_FALSE(NoiseAdapter::Create(config, model).ok());
  EXPECT_TRUE(NoiseAdapter::Create(FastAdaptation(), model).ok());
}

// A filter whose configured R is far too small must widen its effective
// R once real innovations arrive, and then track the truth better than
// the same filter left on its fixed R; the servo must stay inside its
// clamps. Two inputs: a random walk, and a constant level under noise of
// variance 4 against a configured 0.01.
TEST(NoiseAdapterTest, WidensUnderstatedMeasurementNoise) {
  struct Input {
    uint64_t seed;
    int64_t ticks;
    double drift_stddev;
    double noise_stddev;
  };
  for (const Input& input : {Input{11, 400, 0.05, 1.0},
                             Input{17, 600, 0.0, 2.0}}) {
    SCOPED_TRACE("seed=" + std::to_string(input.seed));
    const StateModel model = ScalarModel(/*measurement_variance=*/0.01);
    auto adapter_or = NoiseAdapter::Create(FastAdaptation(), model);
    ASSERT_TRUE(adapter_or.ok());
    NoiseAdapter adapter = std::move(adapter_or).value();
    auto filter_or = KalmanFilter::Create(model.options);
    ASSERT_TRUE(filter_or.ok());
    KalmanFilter filter = std::move(filter_or).value();
    KalmanFilter fixed = filter;

    Rng rng(input.seed);
    double truth = 0.0;
    double adapted_error = 0.0;
    double fixed_error = 0.0;
    for (int64_t t = 0; t < input.ticks; ++t) {
      ASSERT_TRUE(filter.Predict().ok());
      ASSERT_TRUE(fixed.Predict().ok());
      truth += rng.Gaussian(0.0, input.drift_stddev);
      const Vector z{truth + rng.Gaussian(0.0, input.noise_stddev)};
      auto decision_or = adapter.OnCorrection(filter, z, t);
      ASSERT_TRUE(decision_or.ok());
      ASSERT_TRUE(filter.Correct(z).ok());
      ASSERT_TRUE(adapter.InstallInto(&filter).ok());
      ASSERT_TRUE(fixed.Correct(z).ok());
      if (2 * t >= input.ticks) {
        adapted_error += std::fabs(filter.state()[0] - truth);
        fixed_error += std::fabs(fixed.state()[0] - truth);
      }
    }
    EXPECT_GT(adapter.r_scale(), 5.0);
    EXPECT_LE(adapter.r_scale(), FastAdaptation().r_scale_ceiling);
    EXPECT_GT(filter.measurement_noise()(0, 0),
              model.options.measurement_noise(0, 0));
    EXPECT_LT(adapted_error, fixed_error);
  }
}

TEST(NoiseAdapterTest, ShrinksOverstatedMeasurementNoiseToFloor) {
  const StateModel model = ScalarModel(/*measurement_variance=*/4.0);
  auto adapter_or = NoiseAdapter::Create(FastAdaptation(), model);
  ASSERT_TRUE(adapter_or.ok());
  NoiseAdapter adapter = std::move(adapter_or).value();
  auto filter_or = KalmanFilter::Create(model.options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();

  Rng rng(13);
  double truth = 0.0;
  for (int64_t t = 0; t < 1200; ++t) {
    ASSERT_TRUE(filter.Predict().ok());
    truth += rng.Gaussian(0.0, 0.05);
    const Vector z{truth + rng.Gaussian(0.0, 0.02)};
    ASSERT_TRUE(adapter.OnCorrection(filter, z, t).ok());
    ASSERT_TRUE(filter.Correct(z).ok());
    ASSERT_TRUE(adapter.InstallInto(&filter).ok());
  }
  EXPECT_LT(adapter.r_scale(), 1.0);
  EXPECT_GE(adapter.r_scale(), FastAdaptation().r_scale_floor);
}

// Quantized readings put a hard floor under effective R: step^2 / 12.
TEST(NoiseAdapterTest, QuantizationFloorBoundsEffectiveR) {
  const StateModel model = ScalarModel(/*measurement_variance=*/4.0);
  auto adapter_or = NoiseAdapter::Create(FastAdaptation(), model);
  ASSERT_TRUE(adapter_or.ok());
  NoiseAdapter adapter = std::move(adapter_or).value();
  auto filter_or = KalmanFilter::Create(model.options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();

  const double step = 0.5;
  Rng rng(17);
  double truth = 0.0;
  for (int64_t t = 0; t < 1500; ++t) {
    ASSERT_TRUE(filter.Predict().ok());
    truth += rng.Gaussian(0.0, 0.03);
    const Vector z{std::round(truth / step) * step};
    ASSERT_TRUE(adapter.OnCorrection(filter, z, t).ok());
    ASSERT_TRUE(filter.Correct(z).ok());
    ASSERT_TRUE(adapter.InstallInto(&filter).ok());
  }
  // However hard the shrink servo pushes, the installed diagonal never
  // goes below the quantization-error variance of the observed step.
  EXPECT_GE(filter.measurement_noise()(0, 0), step * step / 12.0 - 1e-12);
}

TEST(NoiseAdapterTest, HoldoverGapFreezesAdaptation) {
  const StateModel model = ScalarModel(0.01);
  AdaptiveNoiseConfig config = FastAdaptation();
  config.holdover_gap = 8;
  auto adapter_or = NoiseAdapter::Create(config, model);
  ASSERT_TRUE(adapter_or.ok());
  NoiseAdapter adapter = std::move(adapter_or).value();
  auto filter_or = KalmanFilter::Create(model.options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();

  Rng rng(19);
  for (int64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(filter.Predict().ok());
    const Vector z{rng.Gaussian(0.0, 1.0)};
    ASSERT_TRUE(adapter.OnCorrection(filter, z, t).ok());
    ASSERT_TRUE(filter.Correct(z).ok());
    ASSERT_TRUE(adapter.InstallInto(&filter).ok());
  }
  const double scale_before = adapter.r_scale();
  // One correction far past the holdover gap: the stale statistics must
  // not move the scales, and the decision must report the freeze.
  for (int64_t skip = 0; skip < 3; ++skip) ASSERT_TRUE(filter.Predict().ok());
  auto decision_or =
      adapter.OnCorrection(filter, Vector{5.0}, /*tick=*/40 + 200);
  ASSERT_TRUE(decision_or.ok());
  EXPECT_TRUE(decision_or.value().frozen);
  EXPECT_FALSE(decision_or.value().adapted);
  EXPECT_EQ(adapter.r_scale(), scale_before);
}

TEST(NoiseAdapterTest, ExportImportRoundTripIsBitExact) {
  const StateModel model = ScalarModel(0.01);
  auto a_or = NoiseAdapter::Create(FastAdaptation(), model);
  auto b_or = NoiseAdapter::Create(FastAdaptation(), model);
  ASSERT_TRUE(a_or.ok() && b_or.ok());
  NoiseAdapter a = std::move(a_or).value();
  NoiseAdapter b = std::move(b_or).value();
  auto filter_or = KalmanFilter::Create(model.options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();

  Rng rng(23);
  for (int64_t t = 0; t < 100; ++t) {
    ASSERT_TRUE(filter.Predict().ok());
    const Vector z{rng.Gaussian(0.0, 0.7)};
    ASSERT_TRUE(a.OnCorrection(filter, z, t).ok());
    ASSERT_TRUE(filter.Correct(z).ok());
    ASSERT_TRUE(a.InstallInto(&filter).ok());
  }
  ASSERT_FALSE(a.StateBitEqual(b));
  ASSERT_TRUE(b.ImportState(a.ExportState()).ok());
  EXPECT_TRUE(a.StateBitEqual(b));
  EXPECT_TRUE(MatrixBitEqual(a.EffectiveMeasurementNoise(),
                             b.EffectiveMeasurementNoise()));
  EXPECT_TRUE(
      MatrixBitEqual(a.EffectiveProcessNoise(), b.EffectiveProcessNoise()));
}

TEST(NoiseAdapterTest, ImportRejectsMalformedState) {
  const StateModel model = ScalarModel();
  auto adapter_or = NoiseAdapter::Create(FastAdaptation(), model);
  ASSERT_TRUE(adapter_or.ok());
  NoiseAdapter adapter = std::move(adapter_or).value();

  Vector good = adapter.ExportState();
  ASSERT_GT(good.size(), 0u);

  Vector short_state(good.size() - 1);
  EXPECT_FALSE(adapter.ImportState(short_state).ok());

  Vector nan_state = good;
  nan_state[1] = std::nan("");
  EXPECT_FALSE(adapter.ImportState(nan_state).ok());

  Vector negative_scale = good;
  negative_scale[5] = -2.0;  // r_scale slot
  EXPECT_FALSE(adapter.ImportState(negative_scale).ok());

  // The adapter must be untouched by every rejected import.
  EXPECT_TRUE(adapter.ImportState(good).ok());
}

// --- Mirror-consistency property under chaos -------------------------

struct ChaosOutcome {
  int healthy_checks = 0;
  int heal_checks = 0;
  int64_t corrections = 0;
  double final_r_scale = 1.0;
};

/// Drives one adaptive dual link through a randomized fault cocktail and
/// asserts the two servos (and installed noise matrices) are
/// bit-identical on every tick the source is not mid-resync.
ChaosOutcome RunAdaptiveChaos(uint64_t seed, double true_noise_stddev) {
  ChaosOutcome outcome;

  ProtocolOptions protocol;
  protocol.heartbeat_interval = 1;
  protocol.staleness_budget = 2;
  protocol.resync_burst_retries = 6;
  protocol.resync_retry_backoff = 4;
  protocol.adaptive = FastAdaptation();

  // Configured R understates the true measurement noise, so the servo
  // has real work to do while the link is being shredded.
  const StateModel model = ScalarModel(/*measurement_variance=*/0.01);

  ServerNode server(protocol);
  EXPECT_TRUE(server.RegisterSource(1, model).ok());

  Rng fault_rng(seed);
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{
      /*p_good_to_bad=*/0.06 + 0.04 * fault_rng.Uniform(),
      /*p_bad_to_good=*/0.3, /*good_loss=*/0.0, /*bad_loss=*/1.0};
  fault.delay = DelayModel{0, 2};
  const int64_t outage_start = fault_rng.UniformInt(50, 120);
  fault.outages.push_back(OutageWindow{outage_start, outage_start + 12});
  fault.ack_loss_probability = 0.05;
  fault.corruption_probability = 0.05;
  fault.active_until = 260;

  ChannelOptions channel_options;
  channel_options.seed = seed;
  channel_options.fault = fault;
  Channel channel(
      [&server](const Message& message) { return server.OnMessage(message); },
      channel_options);

  SourceNodeOptions node_options;
  node_options.source_id = 1;
  node_options.model = model;
  node_options.delta = 1.0;
  node_options.protocol = protocol;
  auto node_or = SourceNode::Create(node_options);
  EXPECT_TRUE(node_or.ok());
  SourceNode source = std::move(node_or).value();

  Rng rng(seed ^ 0x5DEECE66DULL);
  double truth = 0.0;
  bool was_pending = false;
  for (int64_t t = 0; t < 340; ++t) {
    EXPECT_TRUE(server.TickAll().ok());
    EXPECT_TRUE(channel.BeginTick(t).ok());
    truth += rng.Gaussian(0.0, 0.1);
    const double reading = truth + rng.Gaussian(0.0, true_noise_stddev);
    EXPECT_TRUE(source.ProcessReading(t, Vector{reading}, &channel).ok())
        << "tick " << t;

    const bool pending = source.resync_pending();
    if (!pending) {
      auto server_adapter_or = server.noise_adapter(1);
      EXPECT_TRUE(server_adapter_or.ok());
      const NoiseAdapter& mirror_servo = source.noise_adapter();
      const NoiseAdapter& server_servo = *server_adapter_or.value();
      // The tentpole invariant: transmitted-information-only adaptation
      // keeps the two servo states bit-identical on every healthy tick.
      EXPECT_TRUE(mirror_servo.StateBitEqual(server_servo))
          << "servo states diverged at tick " << t << " seed " << seed;
      // And the *installed* noise matrices match bitwise end to end.
      auto mirror_full = source.mirror().ExportFullState();
      auto server_full = server.predictor(1).value()->ExportFullState();
      EXPECT_TRUE(mirror_full.ok() && server_full.ok());
      EXPECT_TRUE(MatrixBitEqual(mirror_full.value().measurement_noise,
                                 server_full.value().measurement_noise))
          << "effective R diverged at tick " << t << " seed " << seed;
      EXPECT_TRUE(MatrixBitEqual(mirror_full.value().process_noise,
                                 server_full.value().process_noise))
          << "effective Q diverged at tick " << t << " seed " << seed;
      ++outcome.healthy_checks;
      if (was_pending) ++outcome.heal_checks;  // re-lock tick verified
    }
    was_pending = pending;
  }

  // Clean tail: the link healed and the final states agree bitwise.
  EXPECT_FALSE(source.resync_pending()) << "seed " << seed;
  EXPECT_TRUE(
      source.mirror().StateEquals(*server.predictor(1).value()))
      << "seed " << seed;
  outcome.corrections = source.noise_adapter().corrections();
  outcome.final_r_scale = source.noise_adapter().r_scale();
  return outcome;
}

TEST(AdaptivePropertyTest, ServosStayBitIdenticalAcrossChaosCocktails) {
  int total_heal_checks = 0;
  bool adaptation_moved = false;
  for (uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    ChaosOutcome outcome = RunAdaptiveChaos(seed, /*true_noise_stddev=*/0.6);
    EXPECT_GT(outcome.healthy_checks, 50) << "seed " << seed;
    EXPECT_GT(outcome.corrections, 0) << "seed " << seed;
    total_heal_checks += outcome.heal_checks;
    if (outcome.final_r_scale != 1.0) adaptation_moved = true;
  }
  // The property is non-vacuous: healed resyncs were verified bit-exact
  // and the servo actually retuned R somewhere in the batch.
  EXPECT_GT(total_heal_checks, 0);
  EXPECT_TRUE(adaptation_moved);
}

// With adaptation disabled (the default), the adapter payload stays
// empty and the wire format is bit-identical to the pre-adaptive
// protocol: resync messages carry no adapter doubles.
TEST(AdaptivePropertyTest, DisabledAdaptationKeepsWireFormatUnchanged) {
  Message resync;
  resync.type = MessageType::kResync;
  resync.source_id = 1;
  resync.resync_state = Vector{1.0, 2.0};
  resync.resync_covariance = Matrix::Identity(2);
  const size_t base_bytes = resync.SizeBytes();
  const uint32_t base_checksum = resync.ComputeChecksum();

  resync.resync_adapt = Vector{3.0, 4.0};
  EXPECT_GT(resync.SizeBytes(), base_bytes);
  EXPECT_NE(resync.ComputeChecksum(), base_checksum);

  resync.resync_adapt = Vector();
  EXPECT_EQ(resync.SizeBytes(), base_bytes);
  EXPECT_EQ(resync.ComputeChecksum(), base_checksum);
}

}  // namespace
}  // namespace dkf
