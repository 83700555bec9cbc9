#ifndef DKF_DSMS_SIMULATION_H_
#define DKF_DSMS_SIMULATION_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "models/state_model.h"

namespace dkf {

/// One stream source in a multi-source simulation.
struct SimulationSourceConfig {
  int id = 0;
  TimeSeries data{1};  ///< the readings the sensor will observe
  StateModel model;    ///< shared KF_m / KF_s recipe
  double delta = 1.0;  ///< max-abs precision width (SourceNodeOptions)
  std::optional<double> smoothing_factor;  ///< KF_c factor F, if smoothing
  double smoothing_measurement_variance = 1.0;
};

/// Per-source outcome of a simulation run.
struct SourceReport {
  int id = 0;
  int64_t readings = 0;
  int64_t updates_sent = 0;
  double update_percentage = 0.0;

  /// Error of the server answer against the protocol value (the smoothed
  /// reading when KF_c is active), summed over components per the paper's
  /// metric and averaged over ticks.
  double avg_error = 0.0;
  double max_error = 0.0;
  double rmse = 0.0;

  int64_t bytes_sent = 0;
  /// Sensor energy actually spent (instruction equivalents).
  double energy_spent = 0.0;
  /// Energy a filterless send-every-reading sensor would have spent —
  /// the denominator for the paper's power-saving argument (§1).
  double energy_send_all = 0.0;
};

/// Drives SourceNodes, the Channel, and the ServerNode tick by tick over
/// the configured datasets and gathers per-source reports. This is the
/// end-to-end path of Figure 1: user query -> precision width installed at
/// both filters -> suppressed stream -> server-side answers.
class DsmsSimulation {
 public:
  /// Validates the configuration. Source ids must be unique; every data
  /// series width must match its model's measurement width. `channel`
  /// configures uplink lossiness (loss-free by default).
  static Result<DsmsSimulation> Create(
      std::vector<SimulationSourceConfig> sources,
      const EnergyModelOptions& energy = EnergyModelOptions(),
      const ChannelOptions& channel = ChannelOptions());

  /// Runs all sources to the end of their data and reports. Can be called
  /// once per instance.
  Result<std::vector<SourceReport>> Run();

 private:
  DsmsSimulation(std::vector<SimulationSourceConfig> sources,
                 const EnergyModelOptions& energy,
                 const ChannelOptions& channel)
      : configs_(std::move(sources)), energy_(energy), channel_(channel) {}

  std::vector<SimulationSourceConfig> configs_;
  EnergyModelOptions energy_;
  ChannelOptions channel_;
  bool ran_ = false;
};

}  // namespace dkf

#endif  // DKF_DSMS_SIMULATION_H_
