// Wire-format tests for the snapshot codec (docs/checkpoint.md): field
// round-trips including raw-bit NaN payloads, header validation (magic,
// version, checksum, length), truncation and trailing-garbage
// rejection, the binary primitives underneath, and Restore's check of
// the channel and fault fields the codec decodes unchecked.

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/snapshot.h"
#include "checkpoint/snapshot_io.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// A full file image around `payload`: magic, the current version, and a
/// checksum and length that match, so a crafted payload gets past the
/// header checks and reaches the field decoders.
std::string WrapPayload(const std::string& payload) {
  BinaryWriter file;
  for (char c : std::string("DKFSNAP1")) {
    file.WriteU8(static_cast<uint8_t>(c));
  }
  file.WriteU32(kSnapshotVersion);
  file.WriteU64(Fnv1a64(reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size()));
  file.WriteU64(payload.size());
  return file.TakeBytes() + payload;
}

StateModel ScalarModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

KalmanFilter::FullState SmallFullState(double x0) {
  KalmanFilter::FullState state;
  state.x = Vector{x0};
  state.p = Matrix(1, 1);
  state.p(0, 0) = 0.25;
  state.step = 42;
  state.last_innovation = Vector{-0.125};
  state.process_noise = Matrix(1, 1);
  state.process_noise(0, 0) = 0.05;
  state.measurement_noise = Matrix(1, 1);
  state.measurement_noise(0, 0) = 0.05;
  state.phase = 1;
  state.ss_mode = 2;  // armed fast path
  state.ss_streak1 = 7;
  state.ss_streak2 = 3;
  state.predicts_since_correct = 5;
  state.ss_have_prev = 1;
  state.ss_prev_post[0] = Matrix(1, 1);
  state.ss_prev_post[0](0, 0) = 0.2;
  state.ss_prev_gain = Matrix(1, 1);
  state.ss_prev_gain(0, 0) = 0.6;
  state.ss_period = 2;
  state.ss_idx = 1;
  state.ss_gain[0] = Matrix(1, 1);
  state.ss_gain[0](0, 0) = 0.61;
  state.ss_prior_p[1] = Matrix(1, 1);
  state.ss_prior_p[1](0, 0) = 0.3;
  return state;
}

/// A snapshot exercising every optional branch of the format: faults,
/// per-source RNG + Gilbert–Elliott state, in-flight messages with a
/// NaN (corrupted) payload, deferred ACKs, smoothing, queries,
/// aggregates, and a retained trace.
EngineSnapshot BuildSnapshot() {
  EngineSnapshot snapshot;
  snapshot.energy.instructions_per_bit = 900.0;
  snapshot.channel.drop_probability = 0.1;
  snapshot.channel.seed = 77;
  snapshot.channel.per_source_rng = true;
  snapshot.channel.fault.gilbert_elliott =
      GilbertElliottLoss{0.05, 0.3, 0.0, 1.0};
  snapshot.channel.fault.delay = DelayModel{0, 2};
  snapshot.channel.fault.outages.push_back(OutageWindow{100, 115});
  snapshot.channel.fault.ack_loss_probability = 0.05;
  snapshot.channel.fault.corruption_probability = 0.03;
  snapshot.channel.fault.active_until = 280;
  snapshot.default_delta = 5.0;
  snapshot.protocol.heartbeat_interval = 3;
  snapshot.protocol.staleness_budget = 5;
  snapshot.num_shards = 3;
  snapshot.ticks = 110;
  snapshot.control_messages = 12;

  SourceSnapshot plain;
  plain.source_id = 1;
  plain.model = ScalarModel();
  plain.node.delta = 1.5;
  plain.node.mirror = SmallFullState(2.0);
  plain.node.readings = 110;
  plain.node.updates_sent = 31;
  plain.node.next_sequence = 40;
  plain.node.pending = true;
  plain.node.pending_since = 104;
  plain.node.first_resync_sequence = 38;
  plain.node.resync_attempts = 2;
  plain.node.last_resync_tick = 108;
  plain.node.last_send_tick = 108;
  plain.node.faults.divergence_events = 3;
  plain.link.last_sequence = 37;
  plain.link.last_valid_tick = 99;
  plain.link.last_resync_tick = 80;
  plain.link.last_update_tick = 99;
  plain.link.predictor = SmallFullState(1.9);
  plain.channel.stats.messages = 45;
  plain.channel.stats.bytes = 2000;
  plain.channel.stats.dropped = 6;
  plain.channel.has_rng = true;
  Rng rng(7);
  (void)rng.Gaussian(0.0, 1.0);  // cached-gaussian branch
  plain.channel.rng = rng.SaveState();
  plain.channel.has_ge_state = true;
  plain.channel.ge_bad = true;
  Channel::InFlightEntry corrupted;
  corrupted.due = 111;
  corrupted.corrupted = true;
  corrupted.message.type = MessageType::kMeasurement;
  corrupted.message.source_id = 1;
  corrupted.message.tick = 109;
  corrupted.message.payload =
      Vector{std::numeric_limits<double>::quiet_NaN()};
  corrupted.message.sequence = 39;
  corrupted.message.checksum = 0xDEADBEEF;
  plain.channel.in_flight.push_back(corrupted);
  Channel::InFlightEntry resync;
  resync.due = 112;
  resync.ack_lost = true;
  resync.message.type = MessageType::kResync;
  resync.message.source_id = 1;
  resync.message.tick = 110;
  resync.message.sequence = 40;
  resync.message.resync_state = Vector{2.25};
  resync.message.resync_covariance = Matrix(1, 1);
  resync.message.resync_covariance(0, 0) = 0.5;
  resync.message.resync_step = 108;
  plain.channel.in_flight.push_back(resync);
  plain.channel.deferred_acks = {36, 37};
  snapshot.sources.push_back(plain);

  SourceSnapshot smoothed;
  smoothed.source_id = 4;
  smoothed.model = ScalarModel();
  smoothed.node.delta = 2.0;
  smoothed.node.smoothing_factor = 0.5;
  smoothed.node.smoothing_measurement_variance = 0.8;
  smoothed.node.mirror = SmallFullState(-1.0);
  smoothed.node.smoother_filter = SmallFullState(-0.9);
  smoothed.node.smoother_count = 110;
  smoothed.link.predictor = SmallFullState(-1.0);
  snapshot.sources.push_back(smoothed);

  snapshot.server_faults.resyncs_applied = 9;
  snapshot.server_faults.rejected_corrupt = 4;

  ContinuousQuery query;
  query.id = 1;
  query.source_id = 1;
  query.precision = 1.5;
  query.description = "point query";
  snapshot.queries.push_back(query);
  ContinuousQuery smoothed_query;
  smoothed_query.id = 100;
  smoothed_query.source_id = 4;
  smoothed_query.precision = 2.0;
  smoothed_query.smoothing_factor = 0.5;
  snapshot.queries.push_back(smoothed_query);

  AggregateSnapshot aggregate;
  aggregate.id = 7;
  aggregate.source_ids = {1, 4};
  aggregate.synthetic_query_ids = {(1 << 24) + 7 * 1024,
                                   (1 << 24) + 7 * 1024 + 1};
  snapshot.aggregates.push_back(aggregate);

  snapshot.obs.enabled = true;
  snapshot.obs.options.ring_capacity = 1 << 10;
  TraceEvent event;
  event.step = 109;
  event.source_id = 1;
  event.kind = TraceEventKind::kDivergence;
  event.actor = TraceActor::kSource;
  event.value = 3.5;
  event.detail = 39;
  snapshot.obs.events.push_back(event);
  snapshot.obs.kind_counts[static_cast<size_t>(TraceEventKind::kSuppress)] =
      800;
  snapshot.obs.kind_counts[static_cast<size_t>(
      TraceEventKind::kDivergence)] = 1;
  snapshot.obs.dropped = 0;
  snapshot.obs.gauges["channel.in_flight"] = 2.0;

  snapshot.serve.options.max_buffered_notifications = 4096;
  ServeSubscriptionSnapshot band;
  band.spec.id = 3;
  band.spec.kind = SubscriptionKind::kBandAlert;
  band.spec.source_id = 1;
  band.spec.lo = -1.0;
  band.spec.hi = 2.5;
  band.spec.uncertainty_ceiling = 0.75;
  band.spec.description = "band over source 1";
  band.inside = true;
  band.fired = true;
  snapshot.serve.subscriptions.push_back(band);
  ServeSubscriptionSnapshot agg_sub;
  agg_sub.spec.id = 9;
  agg_sub.spec.kind = SubscriptionKind::kAggregate;
  agg_sub.spec.aggregate_id = 7;
  snapshot.serve.subscriptions.push_back(agg_sub);
  NotificationBatch batch;
  batch.step = 109;
  Notification agg_update;
  agg_update.step = 109;
  agg_update.source_id = -8;  // AggregateSourceKey(7)
  agg_update.subscription_id = 9;
  agg_update.kind = NotificationKind::kAggregateUpdate;
  agg_update.value = 3.25;
  batch.notifications.push_back(agg_update);
  Notification band_exit;
  band_exit.step = 109;
  band_exit.source_id = 1;
  band_exit.subscription_id = 3;
  band_exit.kind = NotificationKind::kBandExit;
  band_exit.value = 2.75;
  band_exit.aux = 2.5;
  batch.notifications.push_back(band_exit);
  snapshot.serve.pending.push_back(batch);
  snapshot.serve.drained_through_step = 108;
  snapshot.serve.notifications = 61;
  snapshot.serve.dropped = 2;
  snapshot.serve.touched = 400;
  snapshot.serve.affected = 59;

  snapshot.governor.enabled = true;
  snapshot.governor.options.enabled = true;
  snapshot.governor.options.epoch_ticks = 16;
  snapshot.governor.options.budget_bytes_per_tick = 150.0;
  snapshot.governor.options.delta_floor = 0.05;
  snapshot.governor.options.delta_ceiling = 64.0;
  snapshot.governor.options.max_step_ratio = 2.0;
  snapshot.governor.options.dead_band = 0.10;
  snapshot.governor.options.ewma_alpha = 0.35;
  snapshot.governor.options.process_noise = 0.04;
  snapshot.governor.options.measurement_noise = 0.20;
  snapshot.governor.epochs = 6;
  GovernorSourceSnapshot measured;
  measured.source_id = 1;
  measured.state.ewma_bytes = 87.5;
  measured.state.ewma_updates = 2.75;
  measured.state.last_bytes = 9800;
  measured.state.last_updates = 310;
  measured.state.intensity = 196.875;
  measured.state.variance = 12.5;
  measured.state.measured = true;
  snapshot.governor.states.push_back(measured);
  GovernorSourceSnapshot frozen;
  frozen.source_id = 4;
  frozen.state.last_bytes = 450;
  frozen.state.last_updates = 12;
  frozen.state.frozen = true;
  frozen.state.held_delta = 2.5;
  snapshot.governor.states.push_back(frozen);
  return snapshot;
}

void ExpectFullStateEq(const KalmanFilter::FullState& a,
                       const KalmanFilter::FullState& b) {
  ASSERT_EQ(a.x.size(), b.x.size());
  EXPECT_EQ(a.x[0], b.x[0]);
  EXPECT_EQ(a.p(0, 0), b.p(0, 0));
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.last_innovation[0], b.last_innovation[0]);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.ss_mode, b.ss_mode);
  EXPECT_EQ(a.ss_streak1, b.ss_streak1);
  EXPECT_EQ(a.ss_streak2, b.ss_streak2);
  EXPECT_EQ(a.predicts_since_correct, b.predicts_since_correct);
  EXPECT_EQ(a.ss_have_prev, b.ss_have_prev);
  EXPECT_EQ(a.ss_prev_post[0](0, 0), b.ss_prev_post[0](0, 0));
  EXPECT_EQ(a.ss_prev_gain(0, 0), b.ss_prev_gain(0, 0));
  EXPECT_EQ(a.ss_period, b.ss_period);
  EXPECT_EQ(a.ss_idx, b.ss_idx);
  EXPECT_EQ(a.ss_gain[0](0, 0), b.ss_gain[0](0, 0));
  EXPECT_EQ(a.ss_prior_p[1](0, 0), b.ss_prior_p[1](0, 0));
}

TEST(SnapshotIoTest, RoundTripPreservesEveryField) {
  const EngineSnapshot original = BuildSnapshot();
  auto bytes_or = EncodeSnapshot(original);
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status().message();
  auto decoded_or = DecodeSnapshot(bytes_or.value());
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status().message();
  const EngineSnapshot& decoded = decoded_or.value();

  EXPECT_EQ(decoded.energy.instructions_per_bit, 900.0);
  EXPECT_EQ(decoded.channel.drop_probability, 0.1);
  EXPECT_EQ(decoded.channel.seed, 77u);
  EXPECT_TRUE(decoded.channel.per_source_rng);
  ASSERT_TRUE(decoded.channel.fault.gilbert_elliott.has_value());
  EXPECT_EQ(decoded.channel.fault.gilbert_elliott->p_good_to_bad, 0.05);
  ASSERT_TRUE(decoded.channel.fault.delay.has_value());
  EXPECT_EQ(decoded.channel.fault.delay->max_ticks, 2);
  ASSERT_EQ(decoded.channel.fault.outages.size(), 1u);
  EXPECT_EQ(decoded.channel.fault.outages[0].end, 115);
  EXPECT_EQ(decoded.channel.fault.active_until, 280);
  EXPECT_EQ(decoded.default_delta, 5.0);
  EXPECT_EQ(decoded.protocol.heartbeat_interval, 3);
  EXPECT_EQ(decoded.protocol.staleness_budget, 5);
  EXPECT_EQ(decoded.num_shards, 3);
  EXPECT_EQ(decoded.ticks, 110);
  EXPECT_EQ(decoded.control_messages, 12);

  ASSERT_EQ(decoded.sources.size(), 2u);
  const SourceSnapshot& plain = decoded.sources[0];
  EXPECT_EQ(plain.source_id, 1);
  EXPECT_EQ(plain.model.measurement_dim, 1u);
  EXPECT_EQ(plain.node.delta, 1.5);
  EXPECT_FALSE(plain.node.smoothing_factor.has_value());
  ExpectFullStateEq(plain.node.mirror, original.sources[0].node.mirror);
  EXPECT_EQ(plain.node.readings, 110);
  EXPECT_EQ(plain.node.updates_sent, 31);
  EXPECT_EQ(plain.node.next_sequence, 40u);
  EXPECT_TRUE(plain.node.pending);
  EXPECT_EQ(plain.node.pending_since, 104);
  EXPECT_EQ(plain.node.first_resync_sequence, 38u);
  EXPECT_EQ(plain.node.resync_attempts, 2);
  EXPECT_EQ(plain.node.faults.divergence_events, 3);
  EXPECT_EQ(plain.link.last_sequence, 37u);
  EXPECT_EQ(plain.link.last_valid_tick, 99);
  EXPECT_EQ(plain.link.last_resync_tick, 80);
  ExpectFullStateEq(plain.link.predictor,
                    original.sources[0].link.predictor);
  EXPECT_EQ(plain.channel.stats.messages, 45);
  EXPECT_EQ(plain.channel.stats.dropped, 6);
  ASSERT_TRUE(plain.channel.has_rng);
  EXPECT_TRUE(plain.channel.rng.has_cached_gaussian);
  EXPECT_EQ(plain.channel.rng.cached_gaussian,
            original.sources[0].channel.rng.cached_gaussian);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(plain.channel.rng.words[w],
              original.sources[0].channel.rng.words[w]);
  }
  ASSERT_TRUE(plain.channel.has_ge_state);
  EXPECT_TRUE(plain.channel.ge_bad);
  ASSERT_EQ(plain.channel.in_flight.size(), 2u);
  EXPECT_EQ(plain.channel.in_flight[0].due, 111);
  EXPECT_TRUE(plain.channel.in_flight[0].corrupted);
  // The corrupted payload's NaN survives bit-exactly (raw IEEE bits).
  EXPECT_EQ(BitsOf(plain.channel.in_flight[0].message.payload[0]),
            BitsOf(original.sources[0]
                       .channel.in_flight[0]
                       .message.payload[0]));
  EXPECT_EQ(plain.channel.in_flight[0].message.checksum, 0xDEADBEEFu);
  EXPECT_EQ(plain.channel.in_flight[1].message.type, MessageType::kResync);
  EXPECT_TRUE(plain.channel.in_flight[1].ack_lost);
  EXPECT_EQ(plain.channel.in_flight[1].message.resync_state[0], 2.25);
  EXPECT_EQ(plain.channel.in_flight[1].message.resync_step, 108);
  EXPECT_EQ(plain.channel.deferred_acks,
            (std::vector<uint32_t>{36, 37}));

  const SourceSnapshot& smoothed = decoded.sources[1];
  EXPECT_EQ(smoothed.source_id, 4);
  ASSERT_TRUE(smoothed.node.smoothing_factor.has_value());
  EXPECT_EQ(*smoothed.node.smoothing_factor, 0.5);
  EXPECT_EQ(smoothed.node.smoothing_measurement_variance, 0.8);
  ExpectFullStateEq(smoothed.node.smoother_filter,
                    original.sources[1].node.smoother_filter);
  EXPECT_EQ(smoothed.node.smoother_count, 110);

  EXPECT_EQ(decoded.server_faults.resyncs_applied, 9);
  EXPECT_EQ(decoded.server_faults.rejected_corrupt, 4);

  ASSERT_EQ(decoded.queries.size(), 2u);
  EXPECT_EQ(decoded.queries[0].description, "point query");
  ASSERT_TRUE(decoded.queries[1].smoothing_factor.has_value());
  EXPECT_EQ(*decoded.queries[1].smoothing_factor, 0.5);
  ASSERT_EQ(decoded.aggregates.size(), 1u);
  EXPECT_EQ(decoded.aggregates[0].id, 7);
  EXPECT_EQ(decoded.aggregates[0].source_ids, (std::vector<int>{1, 4}));
  EXPECT_EQ(decoded.aggregates[0].synthetic_query_ids,
            original.aggregates[0].synthetic_query_ids);

  ASSERT_TRUE(decoded.obs.enabled);
  EXPECT_EQ(decoded.obs.options.ring_capacity, 1u << 10);
  ASSERT_EQ(decoded.obs.events.size(), 1u);
  EXPECT_TRUE(decoded.obs.events[0] == original.obs.events[0]);
  EXPECT_EQ(decoded.obs.kind_counts, original.obs.kind_counts);
  EXPECT_EQ(decoded.obs.gauges.at("channel.in_flight"), 2.0);

  EXPECT_EQ(decoded.serve.options.max_buffered_notifications, 4096u);
  ASSERT_EQ(decoded.serve.subscriptions.size(), 2u);
  EXPECT_TRUE(decoded.serve.subscriptions[0].spec ==
              original.serve.subscriptions[0].spec);
  EXPECT_TRUE(decoded.serve.subscriptions[0].inside);
  EXPECT_TRUE(decoded.serve.subscriptions[0].fired);
  EXPECT_TRUE(decoded.serve.subscriptions[1].spec ==
              original.serve.subscriptions[1].spec);
  EXPECT_FALSE(decoded.serve.subscriptions[1].inside);
  ASSERT_EQ(decoded.serve.pending.size(), 1u);
  EXPECT_TRUE(decoded.serve.pending[0] == original.serve.pending[0]);
  EXPECT_EQ(decoded.serve.drained_through_step, 108);
  EXPECT_EQ(decoded.serve.notifications, 61);
  EXPECT_EQ(decoded.serve.dropped, 2);
  EXPECT_EQ(decoded.serve.touched, 400);
  EXPECT_EQ(decoded.serve.affected, 59);

  ASSERT_TRUE(decoded.governor.enabled);
  EXPECT_TRUE(decoded.governor.options.enabled);
  EXPECT_EQ(decoded.governor.options.epoch_ticks, 16);
  EXPECT_EQ(decoded.governor.options.budget_bytes_per_tick, 150.0);
  EXPECT_EQ(decoded.governor.options.delta_floor, 0.05);
  EXPECT_EQ(decoded.governor.options.delta_ceiling, 64.0);
  EXPECT_EQ(decoded.governor.options.max_step_ratio, 2.0);
  EXPECT_EQ(decoded.governor.options.dead_band, 0.10);
  EXPECT_EQ(decoded.governor.options.ewma_alpha, 0.35);
  EXPECT_EQ(decoded.governor.options.process_noise, 0.04);
  EXPECT_EQ(decoded.governor.options.measurement_noise, 0.20);
  EXPECT_EQ(decoded.governor.epochs, 6);
  ASSERT_EQ(decoded.governor.states.size(), 2u);
  EXPECT_EQ(decoded.governor.states[0].source_id, 1);
  EXPECT_TRUE(decoded.governor.states[0].state ==
              original.governor.states[0].state);
  EXPECT_EQ(decoded.governor.states[1].source_id, 4);
  EXPECT_TRUE(decoded.governor.states[1].state ==
              original.governor.states[1].state);
}

TEST(SnapshotIoTest, RejectsCorruptGovernorSections) {
  // Out-of-order source ids: the encoder writes whatever it is given,
  // the decoder refuses.
  EngineSnapshot unordered = BuildSnapshot();
  std::swap(unordered.governor.states[0], unordered.governor.states[1]);
  auto unordered_result =
      DecodeSnapshot(EncodeSnapshot(unordered).value());
  ASSERT_FALSE(unordered_result.ok());
  EXPECT_EQ(unordered_result.status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(unordered_result.status().message().find("ascending"),
            std::string::npos);

  // A non-finite controller state would poison every later allocation.
  EngineSnapshot poisoned = BuildSnapshot();
  poisoned.governor.states[0].state.intensity =
      std::numeric_limits<double>::quiet_NaN();
  auto poisoned_result = DecodeSnapshot(EncodeSnapshot(poisoned).value());
  ASSERT_FALSE(poisoned_result.ok());
  EXPECT_EQ(poisoned_result.status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(poisoned_result.status().message().find("non-finite"),
            std::string::npos);

  // Invalid governor options (a dead band of 1 would hold every delta
  // forever) fail the decoder's Validate pass.
  EngineSnapshot misconfigured = BuildSnapshot();
  misconfigured.governor.options.dead_band = 1.0;
  auto misconfigured_result =
      DecodeSnapshot(EncodeSnapshot(misconfigured).value());
  ASSERT_FALSE(misconfigured_result.ok());
  EXPECT_EQ(misconfigured_result.status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotIoTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/roundtrip.dkfsnap";
  ASSERT_TRUE(SaveSnapshotFile(BuildSnapshot(), path).ok());
  auto loaded_or = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().message();
  EXPECT_EQ(loaded_or.value().ticks, 110);

  auto missing = LoadSnapshotFile(::testing::TempDir() + "/nope.dkfsnap");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotIoTest, RejectsWrongMagic) {
  auto result = DecodeSnapshot("definitely not a snapshot");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("not a dkf snapshot"),
            std::string::npos);
}

TEST(SnapshotIoTest, RejectsVersionMismatch) {
  // v5 is the only format: older and newer stamps are refused alike.
  for (char version : {9, 4, 0}) {
    std::string bytes = EncodeSnapshot(BuildSnapshot()).value();
    bytes[8] = version;  // version u32 lives at offset 8
    auto result = DecodeSnapshot(bytes);
    ASSERT_FALSE(result.ok()) << int{version};
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("unsupported snapshot version"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("only version 5"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(SnapshotIoTest, EncodingMatchesPinnedV5Bytes) {
  // Length and FNV-1a-64 of the whole v5 file image. A change here is
  // a wire-format change and must bump kSnapshotVersion.
  const std::string bytes = EncodeSnapshot(BuildSnapshot()).value();
  EXPECT_EQ(bytes.size(), 4747u);
  EXPECT_EQ(Fnv1a64(reinterpret_cast<const uint8_t*>(bytes.data()),
                    bytes.size()),
            0x49fc58868f59ea5bull);
}

TEST(SnapshotIoTest, RejectsSharedRngSection) {
  // The retired shared-channel-RNG flag sits right after the server
  // fault counters; the encoder always writes it false. A file that sets
  // it (with a valid checksum) is refused rather than half-read.
  EngineSnapshot snapshot = BuildSnapshot();
  snapshot.server_faults.degraded_ticks = 0x5EED5EED;  // unique marker
  const std::string valid = EncodeSnapshot(snapshot).value();
  std::string payload = valid.substr(28);  // 8 magic + 4 + 8 + 8
  BinaryWriter marker;
  marker.WriteI64(0x5EED5EED);
  const size_t at = payload.find(marker.bytes());
  ASSERT_NE(at, std::string::npos);
  const size_t flag = at + 8;
  ASSERT_EQ(payload[flag], '\0');
  payload[flag] = '\1';
  auto result = DecodeSnapshot(WrapPayload(payload));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("shared channel RNG"),
            std::string::npos)
      << result.status().message();
}

TEST(SnapshotIoTest, RejectsFusionNormOtherThanMaxAbs) {
  // A fusion group's retired deviation-norm byte follows its delta and
  // base delta; the encoder always writes max-abs (0). A file with any
  // other value (with a valid checksum) is refused.
  ShardedStreamEngine engine{ShardedStreamEngineOptions()};
  FusionGroupConfig config;
  config.group_id = 7;
  config.model = ScalarModel();
  config.member_ids = {1, 2};
  config.delta = 0.123456789;  // unique marker: the delta and base delta
  ASSERT_TRUE(engine.RegisterFusionGroup(config).ok());
  const std::string path = ::testing::TempDir() + "/fusion_norm.dkfsnap";
  ASSERT_TRUE(engine.Save(path).ok());
  const std::string valid =
      EncodeSnapshot(LoadSnapshotFile(path).value()).value();
  std::string payload = valid.substr(28);  // 8 magic + 4 + 8 + 8
  BinaryWriter marker;
  marker.WriteF64(config.delta);
  marker.WriteF64(config.delta);
  const size_t at = payload.find(marker.bytes());
  ASSERT_NE(at, std::string::npos);
  const size_t norm = at + 16;
  ASSERT_EQ(payload[norm], '\0');
  ASSERT_TRUE(DecodeSnapshot(WrapPayload(payload)).ok());
  for (char value : {'\1', '\2', '\xff'}) {
    payload[norm] = value;
    auto result = DecodeSnapshot(WrapPayload(payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("deviation norm"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(SnapshotIoTest, RestoreRejectsBadChannelFields) {
  // Channel and fault fields decode as any bit pattern; Restore must
  // refuse the ones the channel cannot run (an inverted delay range
  // would reach Rng::UniformInt with lo > hi on the first faulty send).
  EngineSnapshot valid;
  valid.num_shards = 1;
  valid.channel.per_source_rng = true;
  valid.channel.drop_probability = 0.1;
  valid.channel.fault.gilbert_elliott =
      GilbertElliottLoss{0.05, 0.3, 0.0, 1.0};
  valid.channel.fault.delay = DelayModel{0, 2};
  valid.channel.fault.outages.push_back(OutageWindow{100, 115});
  valid.channel.fault.ack_loss_probability = 0.05;
  valid.channel.fault.corruption_probability = 0.03;
  const std::string path = ::testing::TempDir() + "/bad_channel.dkfsnap";
  ASSERT_TRUE(SaveSnapshotFile(valid, path).ok());
  auto restored = ShardedStreamEngine::Restore(path);
  ASSERT_TRUE(restored.ok()) << restored.status().message();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ChannelOptions> bad(12, valid.channel);
  bad[0].drop_probability = 1.0;
  bad[1].drop_probability = -0.5;
  bad[2].drop_probability = nan;
  bad[3].fault.gilbert_elliott->p_good_to_bad = 1.5;
  bad[4].fault.gilbert_elliott->p_bad_to_good = nan;
  bad[5].fault.gilbert_elliott->good_loss = -0.1;
  bad[6].fault.gilbert_elliott->bad_loss =
      std::numeric_limits<double>::infinity();
  bad[7].fault.ack_loss_probability = 1.01;
  bad[8].fault.corruption_probability = nan;
  bad[9].fault.delay = DelayModel{5, 2};
  bad[10].fault.delay = DelayModel{-3, 2};
  bad[11].fault.outages[0] = OutageWindow{115, 100};
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    EngineSnapshot snapshot = valid;
    snapshot.channel = bad[i];
    ASSERT_TRUE(SaveSnapshotFile(snapshot, path).ok());
    auto engine_or = ShardedStreamEngine::Restore(path);
    ASSERT_FALSE(engine_or.ok());
    EXPECT_EQ(engine_or.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotIoTest, RejectsChecksumMismatch) {
  std::string bytes = EncodeSnapshot(BuildSnapshot()).value();
  bytes[bytes.size() - 1] =
      static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
  auto result = DecodeSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotIoTest, RejectsTruncation) {
  const std::string bytes = EncodeSnapshot(BuildSnapshot()).value();
  // Truncated payload: the declared length no longer matches.
  auto payload_cut = DecodeSnapshot(bytes.substr(0, bytes.size() - 7));
  ASSERT_FALSE(payload_cut.ok());
  EXPECT_EQ(payload_cut.status().code(), StatusCode::kOutOfRange);
  // Truncated header (magic survives, version does not).
  auto header_cut = DecodeSnapshot(bytes.substr(0, 10));
  ASSERT_FALSE(header_cut.ok());
  EXPECT_EQ(header_cut.status().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotIoTest, RejectsTrailingGarbageInsidePayload) {
  // Craft a file whose header checksums and counts the padded payload,
  // so the only defense left is the decoder's exhaustion check.
  const std::string valid = EncodeSnapshot(BuildSnapshot()).value();
  std::string payload = valid.substr(28);  // 8 magic + 4 + 8 + 8
  payload.append("XX");
  auto result = DecodeSnapshot(WrapPayload(payload));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

TEST(SnapshotIoTest, RejectsOverflowingMatrixShape) {
  // rows * cols wraps to 0 for 2 x 2^63: the cell guard must divide, not
  // multiply, or the decoder would size a 0-cell matrix and write past it.
  EngineSnapshot snapshot = BuildSnapshot();
  snapshot.sources[0].model.options.transition = Matrix(3, 5);
  std::string payload = EncodeSnapshot(snapshot).value().substr(28);
  BinaryWriter shape;
  shape.WriteU64(3);
  shape.WriteU64(5);
  const size_t at = payload.find(shape.bytes());
  ASSERT_NE(at, std::string::npos);
  BinaryWriter hostile;
  hostile.WriteU64(2);
  hostile.WriteU64(1ull << 63);
  payload.replace(at, hostile.bytes().size(), hostile.bytes());
  auto result = DecodeSnapshot(WrapPayload(payload));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(result.status().message().find("matrix cells"), std::string::npos)
      << result.status().message();
}

TEST(SnapshotIoTest, RejectsUnserializableModels) {
  EngineSnapshot snapshot = BuildSnapshot();
  snapshot.sources[0].model.options.transition_fn =
      [](int64_t) { return Matrix(1, 1); };
  auto fn_result = EncodeSnapshot(snapshot);
  ASSERT_FALSE(fn_result.ok());
  EXPECT_EQ(fn_result.status().code(), StatusCode::kUnimplemented);

  EngineSnapshot bad = BuildSnapshot();
  bad.sources[0].model.options.transition(0, 0) =
      std::numeric_limits<double>::infinity();
  auto finite_result = EncodeSnapshot(bad);
  ASSERT_FALSE(finite_result.ok());
  EXPECT_EQ(finite_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotIoTest, BinaryPrimitivesRoundTripAndBoundsCheck) {
  BinaryWriter writer;
  writer.WriteU8(200);
  writer.WriteU32(0xA1B2C3D4u);
  writer.WriteU64(0x1122334455667788ull);
  writer.WriteI64(-5);
  writer.WriteF64(std::numeric_limits<double>::quiet_NaN());
  writer.WriteBool(true);
  writer.WriteString("snapshot");

  const std::string bytes = writer.bytes();
  BinaryReader reader(bytes);
  EXPECT_EQ(reader.ReadU8().value(), 200);
  EXPECT_EQ(reader.ReadU32().value(), 0xA1B2C3D4u);
  EXPECT_EQ(reader.ReadU64().value(), 0x1122334455667788ull);
  EXPECT_EQ(reader.ReadI64().value(), -5);
  EXPECT_EQ(BitsOf(reader.ReadF64().value()),
            BitsOf(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(reader.ReadBool().value(), true);
  EXPECT_EQ(reader.ReadString().value(), "snapshot");
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.remaining(), 0u);
  auto past_end = reader.ReadU8();
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kOutOfRange);

  // A bool byte other than 0/1 is rejected, not coerced.
  BinaryWriter bad_bool;
  bad_bool.WriteU8(2);
  const std::string bad_bytes = bad_bool.bytes();
  BinaryReader bad_reader(bad_bytes);
  ASSERT_FALSE(bad_reader.ReadBool().ok());

  // A payload that runs out mid-decode fails cleanly with OutOfRange
  // even when its header checksums correctly.
  BinaryWriter huge;
  huge.WriteU64(1ull << 60);
  auto result = DecodeSnapshot(WrapPayload(huge.bytes()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dkf
