#include "dsms/channel.h"

#include <algorithm>
#include <cstring>

namespace dkf {

void ChannelStats::MergeFrom(const ChannelStats& other) {
  messages += other.messages;
  bytes += other.bytes;
  dropped += other.dropped;
  corrupted += other.corrupted;
  delayed += other.delayed;
  ack_lost += other.ack_lost;
  outage_dropped += other.outage_dropped;
}

Status ValidateChannelOptions(const ChannelOptions& options) {
  if (!(options.drop_probability >= 0.0 && options.drop_probability < 1.0)) {
    return Status::InvalidArgument("drop probability must be in [0, 1)");
  }
  auto is_probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  const FaultModel& fault = options.fault;
  if (fault.gilbert_elliott.has_value()) {
    const GilbertElliottLoss& ge = *fault.gilbert_elliott;
    for (double p : {ge.p_good_to_bad, ge.p_bad_to_good, ge.good_loss,
                     ge.bad_loss}) {
      if (!is_probability(p)) {
        return Status::InvalidArgument(
            "Gilbert-Elliott probabilities must be in [0, 1]");
      }
    }
  }
  if (!is_probability(fault.ack_loss_probability)) {
    return Status::InvalidArgument("ACK-loss probability must be in [0, 1]");
  }
  if (!is_probability(fault.corruption_probability)) {
    return Status::InvalidArgument(
        "corruption probability must be in [0, 1]");
  }
  if (fault.delay.has_value() &&
      !(fault.delay->min_ticks >= 0 &&
        fault.delay->min_ticks <= fault.delay->max_ticks)) {
    return Status::InvalidArgument(
        "delay range must satisfy 0 <= min_ticks <= max_ticks");
  }
  for (const OutageWindow& window : fault.outages) {
    if (window.start > window.end) {
      return Status::InvalidArgument("outage window must have start <= end");
    }
  }
  return Status::OK();
}

Rng& Channel::DropRng(int source_id, SourceState& state) {
  if (!state.rng.has_value()) {
    // Decorrelate the per-source streams: Rng's own constructor runs the
    // seed through SplitMix64, so a simple odd-multiplier mix suffices.
    const uint64_t mixed =
        options_.seed ^
        (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(source_id) + 1));
    state.rng.emplace(mixed);
  }
  return *state.rng;
}

const ChannelStats& Channel::for_source(int source_id) const {
  static const ChannelStats kEmpty;
  auto it = per_source_.find(source_id);
  return it == per_source_.end() ? kEmpty : it->second.stats;
}

void Channel::Corrupt(Message* framed, Rng& rng) {
  // Flip a mantissa bit in one payload double; for payload-free types,
  // damage the header (checksum) instead. Either way the receiver's
  // recomputed checksum no longer matches the stamped one.
  Vector* target = nullptr;
  size_t span = 0;
  if (framed->payload.size() > 0) {
    target = &framed->payload;
    span = framed->payload.size();
  } else if (framed->resync_state.size() > 0) {
    // Resyncs expose the state vector plus (on adaptive links) the
    // adapter payload as one combined corruption span, chosen with a
    // single draw so the RNG stream — and therefore every shard-count
    // equivalence — is unchanged when resync_adapt is empty.
    target = &framed->resync_state;
    span = framed->resync_state.size() + framed->resync_adapt.size();
  }
  if (target == nullptr) {
    framed->checksum ^= 0xA5A5A5A5u;
    return;
  }
  size_t index = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(span) - 1));
  if (index >= target->size()) {
    index -= target->size();
    target = &framed->resync_adapt;
  }
  double value = (*target)[index];
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= (1ULL << 20);
  std::memcpy(&value, &bits, sizeof(value));
  (*target)[index] = value;
}

Status Channel::Deliver(const Message& message) {
  if (sink_) {
    DKF_RETURN_IF_ERROR(sink_(message));
  }
  return Status::OK();
}

Result<SendAck> Channel::Send(const Message& message) {
  // Link-layer framing: stamp the wire checksum before any fault can
  // touch the bits.
  Message framed = message;
  framed.checksum = framed.ComputeChecksum();

  const size_t bytes = framed.SizeBytes();
  ++total_.messages;
  total_.bytes += static_cast<int64_t>(bytes);
  SourceState& source = per_source_[framed.source_id];
  ChannelStats& stats = source.stats;
  ++stats.messages;
  stats.bytes += static_cast<int64_t>(bytes);

  Rng& rng = DropRng(framed.source_id, source);
  const FaultModel& fault = options_.fault;
  const bool fault_active = fault.ActiveAt(framed.tick);
  // Any fault feature that hides a loss from the sender makes even a
  // "clean" drop ambiguous: the ACK path itself is unreliable.
  const bool reliable_ack = fault.ack_loss_probability <= 0.0;

  // 1. Legacy independent Bernoulli drop. Drawn first so a fault-free
  //    channel's RNG sequence is bit-identical to the pre-fault code.
  if (options_.drop_probability > 0.0 &&
      rng.Bernoulli(options_.drop_probability)) {
    ++total_.dropped;
    ++stats.dropped;
    DKF_TRACE(obs_sink_, framed.tick, framed.source_id,
              TraceEventKind::kChannelDrop, TraceActor::kChannel, 0.0, 0.0,
              framed.sequence);
    return (fault_active && !reliable_ack) ? SendAck::kNoAck
                                           : SendAck::kDropped;
  }
  if (!fault_active) {
    DKF_RETURN_IF_ERROR(Deliver(framed));
    return SendAck::kAcked;
  }

  // 2. Scheduled outage: everything sent in the window vanishes, ACK
  //    included (deterministic, no RNG draw).
  if (fault.InOutage(framed.tick)) {
    ++total_.dropped;
    ++stats.dropped;
    ++total_.outage_dropped;
    ++stats.outage_dropped;
    DKF_TRACE(obs_sink_, framed.tick, framed.source_id,
              TraceEventKind::kChannelOutage, TraceActor::kChannel, 0.0, 0.0,
              framed.sequence);
    return SendAck::kNoAck;
  }

  // 3. Gilbert–Elliott bursty loss: advance the per-source chain, then
  //    draw against the current state's loss rate (two draws per send,
  //    unconditionally, to keep the stream layout fixed).
  if (fault.gilbert_elliott.has_value()) {
    const GilbertElliottLoss& ge = *fault.gilbert_elliott;
    if (!source.ge_bad.has_value()) source.ge_bad = false;
    bool& bad = *source.ge_bad;
    if (rng.Bernoulli(bad ? ge.p_bad_to_good : ge.p_good_to_bad)) bad = !bad;
    if (rng.Bernoulli(bad ? ge.bad_loss : ge.good_loss)) {
      ++total_.dropped;
      ++stats.dropped;
      DKF_TRACE(obs_sink_, framed.tick, framed.source_id,
                TraceEventKind::kChannelDrop, TraceActor::kChannel, 1.0, 0.0,
                framed.sequence);
      return reliable_ack ? SendAck::kDropped : SendAck::kNoAck;
    }
  }

  // 4. In-flight corruption: the message still arrives, but the server's
  //    checksum will reject it — and no ACK comes back.
  bool corrupted = false;
  if (fault.corruption_probability > 0.0 &&
      rng.Bernoulli(fault.corruption_probability)) {
    Corrupt(&framed, rng);
    corrupted = true;
    ++total_.corrupted;
    ++stats.corrupted;
    DKF_TRACE(obs_sink_, framed.tick, framed.source_id,
              TraceEventKind::kChannelCorrupt, TraceActor::kChannel, 0.0, 0.0,
              framed.sequence);
  }

  // 5. Delivery delay: a nonzero draw parks the message in the in-flight
  //    queue until BeginTick(send tick + delay).
  int64_t delay = 0;
  if (fault.delay.has_value()) {
    delay = rng.UniformInt(fault.delay->min_ticks, fault.delay->max_ticks);
  }

  // 6. ACK loss (drawn now, even for delayed messages, so the draw
  //    order per source is independent of queue timing).
  bool ack_lost = false;
  if (fault.ack_loss_probability > 0.0 &&
      rng.Bernoulli(fault.ack_loss_probability)) {
    ack_lost = true;
    ++total_.ack_lost;
    ++stats.ack_lost;
    DKF_TRACE(obs_sink_, framed.tick, framed.source_id,
              TraceEventKind::kChannelAckLoss, TraceActor::kChannel, 0.0, 0.0,
              framed.sequence);
  }

  if (delay > 0) {
    ++total_.delayed;
    ++stats.delayed;
    DKF_TRACE(obs_sink_, framed.tick, framed.source_id,
              TraceEventKind::kChannelDelay, TraceActor::kChannel,
              static_cast<double>(delay), 0.0, framed.sequence);
    in_flight_.push_back(InFlightEntry{framed.tick + delay, ack_lost,
                                       corrupted, std::move(framed)});
    return SendAck::kNoAck;
  }

  DKF_RETURN_IF_ERROR(Deliver(framed));
  if (corrupted || ack_lost) return SendAck::kNoAck;
  return SendAck::kAcked;
}

Status Channel::BeginTick(int64_t tick) {
  if (in_flight_.empty()) return Status::OK();
  // Deliver in insertion (send) order; reordering across sends emerges
  // from differing delays, not from the drain.
  size_t kept = 0;
  Status failure = Status::OK();
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    InFlightEntry& entry = in_flight_[i];
    if (failure.ok() && entry.due <= tick) {
      Status delivered = Deliver(entry.message);
      if (!delivered.ok()) {
        failure = delivered;
        in_flight_[kept++] = std::move(entry);
        continue;
      }
      // A corrupted frame triggers no receiver ACK; a lost ACK never
      // arrives. Everything else reaches the sender on its next tick.
      if (!entry.ack_lost && !entry.corrupted) {
        deferred_acks_[entry.message.source_id].push_back(
            entry.message.sequence);
      }
      continue;
    }
    in_flight_[kept++] = std::move(entry);
  }
  in_flight_.resize(kept);
  return failure;
}

Channel::SourceCheckpoint Channel::ExportSourceCheckpoint(
    int source_id) const {
  SourceCheckpoint state;
  auto it = per_source_.find(source_id);
  if (it != per_source_.end()) {
    const SourceState& source = it->second;
    state.stats = source.stats;
    state.has_rng = source.rng.has_value();
    if (state.has_rng) state.rng = source.rng->SaveState();
    state.has_ge_state = source.ge_bad.has_value();
    state.ge_bad = source.ge_bad.value_or(false);
  }
  for (const InFlightEntry& entry : in_flight_) {
    if (entry.message.source_id == source_id) state.in_flight.push_back(entry);
  }
  auto ack_it = deferred_acks_.find(source_id);
  if (ack_it != deferred_acks_.end()) state.deferred_acks = ack_it->second;
  return state;
}

void Channel::ImportSourceCheckpoint(int source_id,
                                     const SourceCheckpoint& state) {
  SourceState& source = per_source_[source_id];
  source.stats = state.stats;
  if (state.has_rng) source.rng.emplace().LoadState(state.rng);
  if (state.has_ge_state) source.ge_bad = state.ge_bad;
  in_flight_.insert(in_flight_.end(), state.in_flight.begin(),
                    state.in_flight.end());
  if (!state.deferred_acks.empty()) {
    deferred_acks_[source_id] = state.deferred_acks;
  }
}

void Channel::FinalizeRestore() {
  // Sends append to the queue in chronological order: ticks ascend, the
  // tick loop runs sources in ascending id, and a source's messages
  // within one tick carry ascending sequence numbers. Sorting by that key
  // therefore reproduces the exact pre-checkpoint queue order regardless
  // of how the entries were fanned across shards.
  std::sort(in_flight_.begin(), in_flight_.end(),
            [](const InFlightEntry& a, const InFlightEntry& b) {
              if (a.message.tick != b.message.tick) {
                return a.message.tick < b.message.tick;
              }
              if (a.message.source_id != b.message.source_id) {
                return a.message.source_id < b.message.source_id;
              }
              return a.message.sequence < b.message.sequence;
            });
  total_ = ChannelStats();
  for (const auto& [id, source] : per_source_) total_.MergeFrom(source.stats);
}

bool Channel::has_residual_for(int source_id) const {
  for (const auto& entry : in_flight_) {
    if (entry.message.source_id == source_id) return true;
  }
  auto it = deferred_acks_.find(source_id);
  return it != deferred_acks_.end() && !it->second.empty();
}

void Channel::AppendResidualSources(std::vector<int>* out) const {
  for (const auto& entry : in_flight_) {
    out->push_back(entry.message.source_id);
  }
  for (const auto& [id, acks] : deferred_acks_) {
    if (!acks.empty()) out->push_back(id);
  }
}

std::vector<uint32_t> Channel::TakeAcks(int source_id) {
  auto it = deferred_acks_.find(source_id);
  if (it == deferred_acks_.end()) return {};
  std::vector<uint32_t> acks = std::move(it->second);
  deferred_acks_.erase(it);
  return acks;
}

}  // namespace dkf
