#include "dsms/simulation.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"
#include "core/suppression.h"
#include "dsms/channel.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"

namespace dkf {

Result<DsmsSimulation> DsmsSimulation::Create(
    std::vector<SimulationSourceConfig> sources,
    const EnergyModelOptions& energy, const ChannelOptions& channel) {
  if (channel.drop_probability < 0.0 || channel.drop_probability >= 1.0) {
    return Status::InvalidArgument("drop probability must be in [0, 1)");
  }
  if (sources.empty()) {
    return Status::InvalidArgument("simulation needs at least one source");
  }
  std::set<int> ids;
  for (const auto& config : sources) {
    if (!ids.insert(config.id).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate source id %d", config.id));
    }
    if (config.data.width() != config.model.measurement_dim) {
      return Status::InvalidArgument(
          StrFormat("source %d: data width %zu, model expects %zu",
                    config.id, config.data.width(),
                    config.model.measurement_dim));
    }
    if (config.data.empty()) {
      return Status::InvalidArgument(
          StrFormat("source %d has no data", config.id));
    }
  }
  return DsmsSimulation(std::move(sources), energy, channel);
}

Result<std::vector<SourceReport>> DsmsSimulation::Run() {
  if (ran_) return Status::FailedPrecondition("simulation already ran");
  ran_ = true;

  ServerNode server;
  for (const auto& config : configs_) {
    DKF_RETURN_IF_ERROR(server.RegisterSource(config.id, config.model));
  }
  Channel channel(
      [&server](const Message& message) { return server.OnMessage(message); },
      channel_);

  std::vector<SourceNode> nodes;
  nodes.reserve(configs_.size());
  for (const auto& config : configs_) {
    SourceNodeOptions options;
    options.source_id = config.id;
    options.model = config.model;
    options.delta = config.delta;
    options.smoothing_factor = config.smoothing_factor;
    options.smoothing_measurement_variance =
        config.smoothing_measurement_variance;
    options.energy = energy_;
    auto node_or = SourceNode::Create(options);
    if (!node_or.ok()) return node_or.status();
    nodes.push_back(std::move(node_or).value());
  }

  struct ErrorAccumulator {
    double sum = 0.0;
    double sum_sq = 0.0;
    double max = 0.0;
    int64_t count = 0;
  };
  std::vector<ErrorAccumulator> errors(configs_.size());

  size_t max_ticks = 0;
  for (const auto& config : configs_) {
    max_ticks = std::max(max_ticks, config.data.size());
  }

  for (size_t tick = 0; tick < max_ticks; ++tick) {
    // 1. Server propagates all its filters (prediction step at KF_s).
    //    Sources whose data is exhausted have stopped streaming, but the
    //    server keeps extrapolating their filters, so tick everything.
    DKF_RETURN_IF_ERROR(server.TickAll());
    DKF_RETURN_IF_ERROR(channel.BeginTick(static_cast<int64_t>(tick)));

    // 2. Each live source processes its reading and possibly transmits;
    //    deliveries correct KF_s through the channel sink.
    for (size_t s = 0; s < configs_.size(); ++s) {
      const auto& config = configs_[s];
      if (tick >= config.data.size()) continue;
      const Vector raw(config.data.Row(tick));
      auto step_or = nodes[s].ProcessReading(static_cast<int64_t>(tick), raw,
                                             &channel);
      if (!step_or.ok()) return step_or.status();
      const SourceStepResult& step = step_or.value();

      // 3. Measure the server answer against the protocol value using the
      //    paper's error metric: sum of absolute component errors.
      auto answer_or = server.Answer(config.id);
      if (!answer_or.ok()) return answer_or.status();
      const double err =
          Deviation(answer_or.value(), step.protocol_value,
                    DeviationNorm::kL1);
      ErrorAccumulator& acc = errors[s];
      acc.sum += err;
      acc.sum_sq += err * err;
      acc.max = std::max(acc.max, err);
      ++acc.count;
    }
  }

  std::vector<SourceReport> reports;
  reports.reserve(configs_.size());
  for (size_t s = 0; s < configs_.size(); ++s) {
    const auto& config = configs_[s];
    const SourceNode& node = nodes[s];
    SourceReport report;
    report.id = config.id;
    report.readings = node.readings();
    report.updates_sent = node.updates_sent();
    report.update_percentage =
        node.readings() == 0
            ? 0.0
            : 100.0 * static_cast<double>(node.updates_sent()) /
                  static_cast<double>(node.readings());
    const ErrorAccumulator& acc = errors[s];
    if (acc.count > 0) {
      report.avg_error = acc.sum / static_cast<double>(acc.count);
      report.rmse = std::sqrt(acc.sum_sq / static_cast<double>(acc.count));
      report.max_error = acc.max;
    }
    report.bytes_sent = channel.for_source(config.id).bytes;
    report.energy_spent = node.energy().total();

    // What a filterless node would have paid: one reading plus one
    // full-payload transmission per tick, no filter steps.
    Message probe;
    probe.source_id = config.id;
    probe.payload = Vector(config.data.width());
    EnergyAccount send_all(energy_);
    for (int64_t i = 0; i < node.readings(); ++i) {
      send_all.ChargeReading();
      send_all.ChargeTransmission(probe.SizeBytes());
    }
    report.energy_send_all = send_all.total();
    reports.push_back(report);
  }
  return reports;
}

}  // namespace dkf
