#ifndef DKF_DSMS_CHANNEL_H_
#define DKF_DSMS_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "dsms/fault_model.h"
#include "dsms/message.h"
#include "obs/trace_sink.h"

namespace dkf {

/// Traffic counters for one direction of the simulated network.
struct ChannelStats {
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t dropped = 0;
  /// Messages whose payload was corrupted in flight (delivered, but the
  /// server's checksum rejects them).
  int64_t corrupted = 0;
  /// Messages that entered the in-flight queue (delivery delayed by at
  /// least one tick).
  int64_t delayed = 0;
  /// Delivered messages whose ACK was lost on the way back.
  int64_t ack_lost = 0;
  /// Messages lost to a scheduled outage window (also counted in
  /// `dropped`).
  int64_t outage_dropped = 0;

  /// Field-wise accumulation.
  void MergeFrom(const ChannelStats& other);
};

/// Lossiness configuration. The paper's testbed was a reliable LAN; the
/// drop knob models a flaky wireless uplink with link-layer delivery
/// feedback (802.15.4-style ACKs): the sender always learns whether the
/// frame got through, which is what lets the mirror filter stay
/// consistent with the server under loss. The `fault` model layers the
/// imperfect-link effects that break that guarantee — bursty loss,
/// delay/reordering, outages, lost ACKs, corruption — on top.
struct ChannelOptions {
  double drop_probability = 0.0;
  uint64_t seed = 13;
  /// Ignored: fault streams are always per source (see Channel). Kept
  /// because callers still assign it; engine snapshots encode it true.
  bool per_source_rng = false;
  /// Fault injection. Default-constructed = no faults, and the channel's
  /// behavior (including its RNG draw sequence) is identical to the
  /// pre-fault-layer code.
  FaultModel fault;
};

/// The check for channel options that come from outside input (a
/// snapshot, a report run): InvalidArgument unless drop_probability is
/// in [0, 1), every Gilbert–Elliott, ACK-loss and corruption probability
/// is in [0, 1] (NaN fails), 0 <= delay.min_ticks <= delay.max_ticks, and
/// every outage has start <= end.
Status ValidateChannelOptions(const ChannelOptions& options);

/// What the sender learns from a Send — the link-layer ACK the source
/// acts on.
enum class SendAck {
  /// Delivered, ACK received: the server saw the message.
  kAcked,
  /// Definitely lost (reliable-ACK loss, the legacy semantics): the
  /// server did NOT see the message, and the sender knows it.
  kDropped,
  /// Ambiguous: the message may or may not have reached (or may still
  /// reach) the server — lost ACK, in-flight delay, outage, or
  /// corruption. The sender must assume the mirror may have diverged.
  kNoAck,
};

/// The simulated uplink from the sensor field to the central server.
/// Without a fault model, delivery is instantaneous and a Send either
/// reaches the sink or is dropped (per `drop_probability`), with the
/// caller told which. With one, messages can additionally be delayed
/// (the tick loop drains the in-flight queue via BeginTick), lost in
/// outage windows or loss bursts, corrupted, or delivered without an
/// ACK. Each source draws these decisions from its own RNG stream,
/// derived from (seed, source_id), so its fault sequence depends only on
/// its own sends — not on other sources, nor on the shard layout.
class Channel {
 public:
  using Sink = std::function<Status(const Message&)>;

  /// `sink` receives every delivered message (normally
  /// ServerNode::OnMessage).
  explicit Channel(Sink sink, const ChannelOptions& options = ChannelOptions())
      : sink_(std::move(sink)), options_(options) {}

  /// Accounts for and attempts delivery of a message, stamping the wire
  /// checksum first. Transmission energy/bytes are charged in every case
  /// (the bits went on air).
  Result<SendAck> Send(const Message& message);

  /// Delivers every in-flight message due at or before `tick`. The tick
  /// loop calls this once per tick, after the server has ticked and
  /// before the sources process their readings.
  Status BeginTick(int64_t tick);

  /// True when a delayed delivery has produced ACKs no sender has
  /// collected yet — the cheap guard before TakeAcks.
  bool has_deferred_acks() const { return !deferred_acks_.empty(); }

  /// Drains the ACKs (by sequence number) that arrived for `source_id`
  /// through delayed deliveries since the last call.
  std::vector<uint32_t> TakeAcks(int source_id);

  const ChannelStats& total() const { return total_; }

  /// Per-source counters. Never inserts: unknown ids observe zeros.
  const ChannelStats& for_source(int source_id) const;

  /// Messages currently sitting in the in-flight (delay) queue.
  size_t in_flight() const { return in_flight_.size(); }

  /// True while the channel still holds state for `source_id`: an
  /// in-flight (delayed) message, or a deferred ACK the sender has not
  /// collected yet. The batched fleet engine (src/fleet/) uses this as an
  /// absorb guard — a source with channel residue can still be mutated
  /// asymmetrically by a delivery, so it must stay on the per-source path.
  bool has_residual_for(int source_id) const;

  /// Appends every source id with channel residue (possibly with
  /// duplicates) to `out`: the bulk form of has_residual_for, so a scan
  /// over many sources pays for the in-flight queue once, not per id.
  void AppendResidualSources(std::vector<int>* out) const;

  /// Wires an observability sink: every fault the channel injects (drop,
  /// outage, corruption, delay, ACK loss) is emitted as a trace event
  /// stamped with the message's send tick and source. Pass nullptr to
  /// unwire.
  void set_trace_sink(TraceSink* sink) { obs_sink_ = sink; }

  /// One delayed message waiting for its delivery tick.
  struct InFlightEntry {
    int64_t due = 0;
    bool ack_lost = false;
    bool corrupted = false;
    Message message;
  };

  /// Checkpoint hooks (src/checkpoint/, docs/checkpoint.md). All channel
  /// state is per-source, so a snapshot can be fanned across any shard
  /// count.
  struct SourceCheckpoint {
    ChannelStats stats;
    /// The (seed, source_id)-derived fault stream, present once the source
    /// has sent.
    bool has_rng = false;
    Rng::State rng;
    /// Gilbert–Elliott chain state, present once the chain has stepped.
    bool has_ge_state = false;
    bool ge_bad = false;
    std::vector<InFlightEntry> in_flight;
    std::vector<uint32_t> deferred_acks;
  };

  SourceCheckpoint ExportSourceCheckpoint(int source_id) const;

  /// Stages one source's checkpoint into this channel. In-flight entries
  /// accumulate unsorted; call FinalizeRestore once after the last source.
  void ImportSourceCheckpoint(int source_id, const SourceCheckpoint& state);

  /// Orders the staged in-flight queue canonically — ascending (send tick,
  /// source id, sequence), which reproduces the original append order —
  /// and rebuilds the aggregate counters from the per-source ones.
  void FinalizeRestore();

 private:
  /// Everything the channel keeps for one source that has sent.
  struct SourceState {
    ChannelStats stats;
    /// The (seed, source_id)-derived fault stream; created on the first
    /// send.
    std::optional<Rng> rng;
    /// Gilbert–Elliott chain state (true = bad/bursty); set once the
    /// chain has stepped.
    std::optional<bool> ge_bad;
  };

  /// The fault-decision RNG for a message from the source `state` holds.
  Rng& DropRng(int source_id, SourceState& state);

  /// Flips bits in the framed message so the stamped checksum no longer
  /// matches (in-flight payload corruption).
  void Corrupt(Message* framed, Rng& rng);

  Status Deliver(const Message& message);

  Sink sink_;
  ChannelOptions options_;
  TraceSink* obs_sink_ = nullptr;
  ChannelStats total_;
  std::map<int, SourceState> per_source_;
  std::vector<InFlightEntry> in_flight_;
  std::map<int, std::vector<uint32_t>> deferred_acks_;
};

}  // namespace dkf

#endif  // DKF_DSMS_CHANNEL_H_
