#include "dsms/protocol.h"

namespace dkf {

bool AdmitMessage(const Message& message, int64_t now,
                  uint32_t* last_sequence, int64_t* last_valid_tick,
                  ProtocolFaultStats* faults, TraceSink* sink) {
  // Rejections are protocol events, not errors: the message is counted
  // and dropped, the tick loop continues.
  auto reject = [&](int64_t* counter, TraceEventKind kind) {
    ++*counter;
    DKF_TRACE(sink, now, message.source_id, kind, TraceActor::kServer, 0.0,
              0.0, message.sequence);
    return false;
  };
  // The checksum comes first, so a corrupted frame is counted corrupt
  // whoever it claims to come from.
  if (message.checksum != 0 &&
      message.ComputeChecksum() != message.checksum) {
    return reject(&faults->rejected_corrupt, TraceEventKind::kCorruptReject);
  }
  if (last_sequence == nullptr) {
    // In-flight traffic from a sender the link no longer knows.
    return reject(&faults->rejected_stale, TraceEventKind::kStaleReject);
  }
  const bool sequenced = message.sequence != 0;
  if (sequenced && message.sequence <= *last_sequence) {
    // Duplicate or out-of-order.
    return reject(&faults->rejected_stale, TraceEventKind::kStaleReject);
  }
  // A late measurement must not be applied: the mirror was never
  // corrected for it (no ACK made it back in time), so applying it here
  // would *create* the divergence the protocol guards against. A delayed
  // heartbeat proves nothing about the present; only a fresh one
  // refreshes liveness. A late resync is still good: it replays (or, on
  // a fusion group, answers with a broadcast) the ticks it spent in
  // flight.
  const bool fresh_only = message.type == MessageType::kMeasurement ||
                          message.type == MessageType::kHeartbeat;
  if (sequenced && fresh_only && message.tick != now) {
    return reject(&faults->rejected_stale, TraceEventKind::kStaleReject);
  }
  if (sequenced) {
    faults->sequence_gaps += static_cast<int64_t>(message.sequence) -
                             static_cast<int64_t>(*last_sequence) - 1;
    *last_sequence = message.sequence;
    *last_valid_tick = now;
  }
  if (message.type == MessageType::kHeartbeat) {
    ++faults->heartbeats_received;
    DKF_TRACE(sink, now, message.source_id,
              TraceEventKind::kHeartbeatReceived, TraceActor::kServer, 0.0,
              0.0, message.sequence);
  }
  return true;
}

Status ValidateProtocolOptions(const ProtocolOptions& protocol) {
  if (protocol.resync_burst_retries < 1) {
    return Status::InvalidArgument("resync_burst_retries must be >= 1");
  }
  if (protocol.resync_retry_backoff < 1) {
    return Status::InvalidArgument("resync_retry_backoff must be >= 1");
  }
  return Status::OK();
}

void LinkSender::EnterDivergence(int source_id, int64_t tick,
                                 uint32_t sequence,
                                 ProtocolFaultStats* faults,
                                 TraceSink* sink) {
  ++faults->ambiguous_acks;
  ++faults->divergence_events;
  DKF_TRACE(sink, tick, source_id, TraceEventKind::kDivergence,
            TraceActor::kSource, 0.0, 0.0, sequence);
  pending = true;
  pending_since = tick;
  resync_attempts = 0;
}

uint32_t LinkSender::CountResyncSent(int source_id, int64_t tick,
                                     ProtocolFaultStats* faults,
                                     TraceSink* sink) {
  const uint32_t sequence = next_sequence++;
  ++faults->resyncs_sent;
  ++resync_attempts;
  last_resync_tick = tick;
  last_send_tick = tick;
  DKF_TRACE(sink, tick, source_id, TraceEventKind::kResyncSent,
            TraceActor::kSource, static_cast<double>(resync_attempts), 0.0,
            sequence);
  return sequence;
}

void LinkSender::Heal(int source_id, int64_t tick, ProtocolFaultStats* faults,
                      TraceSink* sink) {
  faults->max_recovery_ticks =
      std::max(faults->max_recovery_ticks, tick - pending_since);
  DKF_TRACE(sink, tick, source_id, TraceEventKind::kHeal, TraceActor::kSource,
            static_cast<double>(tick - pending_since));
  pending = false;
  resync_attempts = 0;
}

}  // namespace dkf
