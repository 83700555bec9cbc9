#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "workload.h"

namespace perfbench {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Mix(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

void Oracle::Fail(const std::string& kind) {
  ++failed_;
  if (++failures_[kind] <= 3) {
    std::fprintf(stderr, "perfbench: correctness failure: %s\n",
                 kind.c_str());
  }
}

bool Oracle::Check(const dkf::Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return true;
  Fail(std::string("status:") + what + ": " + status.ToString());
  return false;
}

void Oracle::BeforeTick(const dkf::ShardedStreamEngine& engine,
                        const Inputs& inputs) {
  const std::vector<size_t>& sample = inputs.sample();
  delta_before_.resize(sample.size());
  updates_before_.resize(sample.size());
  for (size_t k = 0; k < sample.size(); ++k) {
    const int id = inputs.entries()[sample[k]].id;
    auto delta_or = engine.source_delta(id);
    auto updates_or = engine.updates_sent(id);
    delta_before_[k] = delta_or.ok() ? delta_or.value() : 0.0;
    updates_before_[k] = updates_or.ok() ? updates_or.value() : -1;
  }
}

void Oracle::AfterTick(const dkf::ShardedStreamEngine& engine,
                       const Inputs& inputs, int64_t tick) {
  const std::vector<size_t>& sample = inputs.sample();
  dkf::Vector reading;
  for (size_t k = 0; k < sample.size(); ++k) {
    const int id = inputs.entries()[sample[k]].id;
    auto answer_or = engine.Answer(id);
    auto degraded_or = engine.answer_degraded(id);
    auto pending_or = engine.resync_pending(id);
    auto updates_or = engine.updates_sent(id);
    if (!Check(answer_or, "Answer") || !Check(degraded_or, "answer_degraded") ||
        !Check(pending_or, "resync_pending") ||
        !Check(updates_or, "updates_sent")) {
      continue;
    }
    inputs.ReadingAt(sample[k], tick, &reading);
    const dkf::Vector& answer = answer_or.value();
    double deviation = 0.0;
    for (size_t axis = 0; axis < reading.size(); ++axis) {
      deviation = std::max(deviation, std::fabs(answer[axis] - reading[axis]));
    }
    ++answers_;
    if (degraded_or.value()) {
      ++degraded_;
      continue;
    }
    const double delta = delta_before_[k];
    error_sum_ += deviation / delta;
    ++error_count_;
    const bool suppressed =
        !pending_or.value() && updates_or.value() == updates_before_[k];
    ++attempted_;
    if (suppressed && deviation > delta) Fail("delta_violation");
  }
}

void Oracle::FoldNotifications(
    const std::vector<dkf::NotificationBatch>& batches) {
  for (const dkf::NotificationBatch& batch : batches) {
    for (const dkf::Notification& n : batch.notifications) {
      uint64_t hash = notification_hash_;
      hash = Mix(hash, static_cast<uint64_t>(n.step));
      hash = Mix(hash, static_cast<uint64_t>(static_cast<int64_t>(n.source_id)));
      hash = Mix(hash, static_cast<uint64_t>(n.subscription_id));
      hash = Mix(hash, static_cast<uint64_t>(n.kind));
      hash = Mix(hash, Bits(n.value));
      notification_hash_ = Mix(hash, Bits(n.aux));
      ++notifications_;
    }
  }
}

void Oracle::CheckDropped(int64_t dropped) {
  ++attempted_;
  if (dropped > 0) Fail("dropped_notifications");
}

Digest Oracle::Capture(const dkf::ShardedStreamEngine& engine,
                       const Inputs& inputs) {
  Digest digest;
  for (size_t index : inputs.sample()) {
    auto answer_or = engine.Answer(inputs.entries()[index].id);
    if (!Check(answer_or, "Answer")) continue;
    for (size_t axis = 0; axis < answer_or.value().size(); ++axis) {
      digest.answers.push_back(answer_or.value()[axis]);
    }
  }
  for (const Inputs::Group& group : inputs.groups()) {
    auto fused_or = engine.AnswerFused(group.group_id);
    if (Check(fused_or, "AnswerFused")) {
      digest.answers.push_back(fused_or.value()[0]);
    }
  }
  for (const dkf::AggregateQuery& aggregate : inputs.aggregates()) {
    auto sum_or = engine.AnswerAggregateCanonical(aggregate.id);
    if (Check(sum_or, "AnswerAggregateCanonical")) {
      digest.answers.push_back(sum_or.value());
    }
  }
  digest.notification_hash = notification_hash_;
  digest.notifications = notifications_;
  const dkf::ChannelStats uplink = engine.uplink_traffic();
  digest.uplink_bytes = uplink.bytes;
  digest.uplink_messages = uplink.messages;
  return digest;
}

void Oracle::Compare(const Digest& expected, const Digest& actual,
                     const char* what) {
  const std::string kind = std::string("mismatch:") + what;
  ++attempted_;
  if (expected.answers.size() != actual.answers.size()) {
    Fail(kind + ":answer_count");
    return;
  }
  for (size_t i = 0; i < expected.answers.size(); ++i) {
    ++attempted_;
    if (Bits(expected.answers[i]) != Bits(actual.answers[i])) {
      Fail(kind + ":answer");
    }
  }
  attempted_ += 2;
  if (expected.notification_hash != actual.notification_hash ||
      expected.notifications != actual.notifications) {
    Fail(kind + ":notifications");
  }
  if (expected.uplink_bytes != actual.uplink_bytes ||
      expected.uplink_messages != actual.uplink_messages) {
    Fail(kind + ":uplink");
  }
}

void Oracle::ResetAnswerStats() {
  error_sum_ = 0.0;
  error_count_ = 0;
  answers_ = 0;
  degraded_ = 0;
}

void Oracle::ResetNotifications() {
  notification_hash_ = 1469598103934665603ULL;
  notifications_ = 0;
}

}  // namespace perfbench
