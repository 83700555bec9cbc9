#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "runtime/sharded_engine.h"

namespace perfbench {

class Inputs;

/// What two runs of one workload must agree on bit for bit: the sampled
/// sources' answers, every fused and aggregate answer, the delivered
/// notification stream (as a hash), and the uplink totals.
struct Digest {
  std::vector<double> answers;
  uint64_t notification_hash = 0;
  int64_t notifications = 0;
  int64_t uplink_bytes = 0;
  int64_t uplink_messages = 0;
};

/// The correctness oracle. Every operation the benchmark attempts is
/// counted here, and every failure: a non-OK Status, a delta violation on
/// a non-degraded suppressed answer, a dropped notification, or a digest
/// that is not bit-equal to its reference (the 1-shard twin, or the run
/// that was never checkpointed). failed() / attempted() is
/// failed_op_ratio.
class Oracle {
 public:
  /// Counts one attempted operation; a non-OK status is a failure.
  bool Check(const dkf::Status& status, const char* what);
  template <typename T>
  bool Check(const dkf::Result<T>& result, const char* what) {
    return Check(result.status(), what);
  }

  /// Records the sample's installed deltas and send counters before a
  /// tick (the governor may move deltas after the tick).
  void BeforeTick(const dkf::ShardedStreamEngine& engine,
                  const Inputs& inputs);

  /// Checks the sample's answers after tick `tick` against its readings:
  /// a non-degraded answer of a source that neither sent nor waits for a
  /// resync must lie within delta of the reading (the suppression rule).
  /// Also accumulates the error and degraded-answer statistics.
  void AfterTick(const dkf::ShardedStreamEngine& engine, const Inputs& inputs,
                 int64_t tick);

  /// Folds delivered notifications into the stream hash.
  void FoldNotifications(const std::vector<dkf::NotificationBatch>& batches);

  /// Counts notifications the serving layer evicted undrained.
  void CheckDropped(int64_t dropped);

  /// The current digest of `engine` (answers now, stream hash so far).
  Digest Capture(const dkf::ShardedStreamEngine& engine,
                 const Inputs& inputs);

  /// Counts one attempt per compared field and a failure per mismatch.
  void Compare(const Digest& expected, const Digest& actual,
               const char* what);

  /// Starts a fresh window for the answer statistics / stream hash.
  void ResetAnswerStats();
  void ResetNotifications();

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::map<std::string, int64_t>& failures() const { return failures_; }

  /// Mean |answer - reading| / delta over non-degraded sampled answers.
  double mean_error_over_delta() const {
    return error_count_ == 0 ? 0.0
                             : error_sum_ / static_cast<double>(error_count_);
  }
  /// Share of sampled answers served degraded.
  double degraded_ratio() const {
    return answers_ == 0 ? 0.0
                         : static_cast<double>(degraded_) /
                               static_cast<double>(answers_);
  }
  int64_t notifications() const { return notifications_; }

 private:
  void Fail(const std::string& kind);

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, int64_t> failures_;

  std::vector<double> delta_before_;
  std::vector<int64_t> updates_before_;
  double error_sum_ = 0.0;
  int64_t error_count_ = 0;
  int64_t answers_ = 0;
  int64_t degraded_ = 0;

  uint64_t notification_hash_ = 1469598103934665603ULL;
  int64_t notifications_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
