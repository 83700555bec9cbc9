#ifndef DKF_RUNTIME_SOURCE_REPORT_H_
#define DKF_RUNTIME_SOURCE_REPORT_H_

#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "models/state_model.h"
#include "query/query.h"

namespace dkf {

/// One source to report on: the readings its sensor observes, its
/// KF_m / KF_s recipe, and the user's query, whose source_id names the
/// source and whose precision (and KF_c factor) the engine installs.
struct ReportSource {
  TimeSeries data{1};
  StateModel model;
  ContinuousQuery query;
};

/// Per-source outcome of RunSourceReports.
struct SourceReport {
  int id = 0;
  int64_t readings = 0;
  int64_t updates_sent = 0;
  double update_percentage = 0.0;
  /// The paper's error metric: the L1 distance of the server answer from
  /// the protocol value (the smoothed reading under KF_c), per tick.
  double avg_error = 0.0;
  double max_error = 0.0;
  int64_t bytes_sent = 0;
  /// Sensor energy spent, and what a filterless send-every-reading
  /// sensor would have spent (§1's power argument), in instructions.
  double energy_spent = 0.0;
  double energy_send_all = 0.0;
};

/// Figure 1 end to end, one source at a time: the query is submitted to
/// the source's own 1-shard ShardedStreamEngine, the readings stream
/// through it, and each tick's answer is measured against the protocol
/// value (under KF_c, SmoothSeriesKalman at the engine's KF_c variance).
/// Fault streams are per source, so sources are independent and may
/// differ in length. InvalidArgument for empty data; the engine's own
/// errors, such as its refusal of channel options that fail
/// ValidateChannelOptions, pass through.
Result<std::vector<SourceReport>> RunSourceReports(
    const std::vector<ReportSource>& sources,
    const EnergyModelOptions& energy = EnergyModelOptions(),
    const ChannelOptions& channel = ChannelOptions());

}  // namespace dkf

#endif  // DKF_RUNTIME_SOURCE_REPORT_H_
