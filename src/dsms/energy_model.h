#ifndef DKF_DSMS_ENERGY_MODEL_H_
#define DKF_DSMS_ENERGY_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace dkf {

/// Sensor-node energy accounting in *instruction equivalents*: the paper
/// motivates source-side filtering with the measured ratio of
/// energy-per-transmitted-bit to energy-per-instruction of 220-2900 across
/// architectures (§1, [26, 27]). Expressing everything in instructions
/// makes the trade — spend a few hundred instructions on a filter step to
/// avoid shipping a multi-byte message — directly visible.
struct EnergyModelOptions {
  /// Energy of transmitting one bit, in instruction equivalents. The paper
  /// cites 220-2900; default sits mid-range.
  double instructions_per_bit = 1000.0;

  /// Cost of one mirror-filter predict + suppression test. A 4-state KF
  /// step is a handful of small matrix products.
  double instructions_per_filter_step = 400.0;

  /// Cost of taking one sensor reading.
  double instructions_per_reading = 50.0;
};

/// Accumulates a node's energy spend.
class EnergyAccount {
 public:
  explicit EnergyAccount(const EnergyModelOptions& options)
      : options_(options) {}

  void ChargeTransmission(size_t bytes) {
    transmission_ += TransmissionCost(options_, bytes);
  }
  /// What ChargeTransmission adds for `bytes` on the air.
  static double TransmissionCost(const EnergyModelOptions& options,
                                 size_t bytes) {
    return static_cast<double>(bytes) * 8.0 * options.instructions_per_bit;
  }
  void ChargeFilterStep() { compute_ += options_.instructions_per_filter_step; }
  void ChargeReading() { sensing_ += options_.instructions_per_reading; }

  double transmission() const { return transmission_; }
  double compute() const { return compute_; }
  double sensing() const { return sensing_; }
  double total() const { return transmission_ + compute_ + sensing_; }

  const EnergyModelOptions& options() const { return options_; }

  /// Overwrites the accumulated totals — the restore half of a checkpoint.
  /// Charging rules stay whatever this account was constructed with.
  void RestoreTotals(double transmission, double compute, double sensing) {
    transmission_ = transmission;
    compute_ = compute;
    sensing_ = sensing;
  }

 private:
  EnergyModelOptions options_;
  double transmission_ = 0.0;
  double compute_ = 0.0;
  double sensing_ = 0.0;
};

}  // namespace dkf

#endif  // DKF_DSMS_ENERGY_MODEL_H_
