#include "runtime/source_report.h"

#include "common/string_util.h"
#include "core/smoothing.h"
#include "core/suppression.h"
#include "dsms/source_node.h"
#include "metrics/metrics.h"
#include "runtime/sharded_engine.h"

namespace dkf {

namespace {

Result<SourceReport> RunSource(const ReportSource& source,
                               const EnergyModelOptions& energy,
                               const ChannelOptions& channel) {
  const int id = source.query.source_id;
  if (source.data.empty()) {
    return Status::InvalidArgument(StrFormat("source %d has no data", id));
  }
  ShardedStreamEngineOptions options;
  options.energy = energy;
  options.channel = channel;
  ShardedStreamEngine engine(options);
  DKF_RETURN_IF_ERROR(engine.RegisterSource(id, source.model));
  DKF_RETURN_IF_ERROR(engine.SubmitQuery(source.query));
  // The value the protocol holds the server to: the reading, or KF_c's
  // output over the same readings.
  TimeSeries protocol = source.data;
  if (source.query.smoothing_factor.has_value()) {
    DKF_ASSIGN_OR_RETURN(
        protocol,
        SmoothSeriesKalman(source.data, *source.query.smoothing_factor,
                           SourceNodeOptions().smoothing_measurement_variance));
  }

  ErrorAccumulator errors;
  ReadingBatch batch;
  batch.ids = {id};
  batch.values.resize(1);
  for (size_t t = 0; t < source.data.size(); ++t) {
    batch.values[0] = Vector(source.data.Row(t));
    DKF_RETURN_IF_ERROR(engine.ProcessTick(batch));
    DKF_ASSIGN_OR_RETURN(const Vector answer, engine.Answer(id));
    errors.Add(Deviation(answer, Vector(protocol.Row(t)), DeviationNorm::kL1));
  }
  DKF_ASSIGN_OR_RETURN(const SourceUsage usage, engine.source_usage(id));
  SourceReport report;
  report.id = id;
  report.readings = usage.readings;
  report.updates_sent = usage.updates_sent;
  const double readings = static_cast<double>(usage.readings);
  report.update_percentage =
      100.0 * static_cast<double>(usage.updates_sent) / readings;
  report.avg_error = errors.mean();
  report.max_error = errors.max();
  report.bytes_sent = usage.uplink_bytes;
  report.energy_spent = usage.energy;
  // A filterless node pays one reading and one full-payload send a tick.
  Message send_all;
  send_all.payload = Vector(source.data.width());
  const double send_cost =
      EnergyAccount::TransmissionCost(energy, send_all.SizeBytes());
  report.energy_send_all =
      readings * (send_cost + energy.instructions_per_reading);
  return report;
}

}  // namespace

Result<std::vector<SourceReport>> RunSourceReports(
    const std::vector<ReportSource>& sources,
    const EnergyModelOptions& energy, const ChannelOptions& channel) {
  std::vector<SourceReport> reports;
  for (const ReportSource& source : sources) {
    DKF_ASSIGN_OR_RETURN(SourceReport report,
                         RunSource(source, energy, channel));
    reports.push_back(report);
  }
  return reports;
}

}  // namespace dkf
