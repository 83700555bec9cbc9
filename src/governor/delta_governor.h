#ifndef DKF_GOVERNOR_DELTA_GOVERNOR_H_
#define DKF_GOVERNOR_DELTA_GOVERNOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dkf {

/// Tuning knobs for the fleet-wide delta governor (docs/governor.md).
///
/// The governor's contract is a bytes-on-wire budget: every
/// `epoch_ticks` ticks it re-allocates per-source precision widths so
/// the fleet's uplink spend tracks `budget_bytes_per_tick`, preferring
/// the tightest deltas the budget affords. Every knob below exists for
/// robustness, not performance: floors/ceilings bound the allocation,
/// the slew ratio bounds per-epoch movement, and the dead band keeps
/// the controller from thrashing lanes over noise.
struct GovernorOptions {
  /// Master switch. When false the engine never constructs a governor.
  bool enabled = false;

  /// Allocation period, in engine ticks. Longer epochs average more
  /// traffic per measurement (smoother) but react slower.
  int64_t epoch_ticks = 16;

  /// The fleet-wide uplink budget, in message bytes per tick, that the
  /// governor steers total spend toward. Must be positive when enabled.
  double budget_bytes_per_tick = 0.0;

  /// Hard bounds on any installed delta. The floor caps how much
  /// traffic a tight allocation may invite; the ceiling caps how much
  /// precision an overloaded fleet may shed.
  double delta_floor = 1e-4;
  double delta_ceiling = 1e9;

  /// Per-epoch multiplicative slew limit: a source's delta moves at
  /// most by this factor (up or down) per epoch. Must exceed 1.
  double max_step_ratio = 2.0;

  /// Relative dead band: a proposed delta within this fraction of the
  /// installed one is held as-is — no reconfigure, no lane spill.
  double dead_band = 0.10;

  /// EWMA smoothing weight on per-epoch byte/update rates (0, 1].
  /// 1.0 means "latest epoch only".
  double ewma_alpha = 0.30;

  /// Kalman noise intensities for the per-source sensitivity fit, both
  /// relative (scale-free): process noise grows the state variance by
  /// `process_noise * level^2` per epoch, and a measurement weighs in
  /// with variance `measurement_noise * x^2` (state-relative, so high
  /// and low reads get the same gain and the fit stays unbiased).
  double process_noise = 0.05;
  double measurement_noise = 0.25;
};

/// One source's observed activity over an epoch, as sampled by the
/// engine: cumulative uplink counters (the governor differences them
/// itself), the currently installed delta, and the health bit that
/// triggers the freeze rule.
struct GovernorSourceSample {
  int source_id = 0;
  int64_t bytes = 0;    // cumulative uplink bytes for this source
  int64_t updates = 0;  // cumulative updates sent by this source
  double delta = 0.0;   // installed precision width
  bool unhealthy = false;  // resync pending or serving degraded
};

/// One installed-delta change the governor wants applied.
struct DeltaChange {
  int source_id = 0;
  double delta = 0.0;     // new value to install
  double previous = 0.0;  // what was installed when planned
};

/// Everything one allocation epoch decided, in deterministic order
/// (changes and freezes ascend by source id).
struct GovernorEpochResult {
  int64_t epoch = 0;       // 0-based epoch index
  double budget = 0.0;     // bytes/tick budget in force
  double spend = 0.0;      // EWMA-estimated fleet bytes/tick
  double overshoot = 0.0;  // max(0, spend/budget - 1)
  int64_t frozen = 0;      // sources excluded + held this epoch
  std::vector<DeltaChange> changes;
  std::vector<int> newly_frozen;  // entered the frozen state this epoch
};

/// Fleet-wide bandwidth/precision controller (docs/governor.md).
///
/// Pure and deterministic: `PlanEpoch` maps sampled per-source uplink
/// counters to a delta schedule with no dependence on shard layout,
/// wall clock, or iteration races — the engine owns sampling and
/// installation. Per epoch it (1) differences cumulative counters into
/// EWMA rates, (2) Kalman-updates each healthy stream's send intensity
/// x (estimated bytes/tick at delta = 1, from the event-triggered
/// scaling rate ~ x / delta^2) using the self-correcting measurement
/// z = ewma_bytes * delta^2, (3) water-fills deltas to minimize their
/// sum subject to sum(x_i / delta_i^2) <= budget with per-source
/// floor/ceiling/slew clamps resolved iteratively, and (4) applies the
/// dead band so near-noise moves install nothing. Unhealthy sources
/// are frozen: excluded from the fit, held at their last delta, their
/// held spend reserved off the top of the budget (anti-windup).
class DeltaGovernor {
 public:
  /// Per-source controller state. Public so checkpoints can move it
  /// verbatim and metrics can read the EWMA rates.
  struct SourceState {
    double ewma_bytes = 0.0;    // bytes/tick, EWMA over epochs
    double ewma_updates = 0.0;  // updates/tick, EWMA over epochs
    int64_t last_bytes = 0;     // cumulative counters at last sample
    int64_t last_updates = 0;
    double intensity = 0.0;  // KF state x: est. bytes/tick at delta=1
    double variance = 1.0;   // KF covariance on x
    bool measured = false;   // saw at least one healthy epoch
    bool frozen = false;     // excluded + held (unhealthy)
    double held_delta = 0.0;  // installed delta after the last epoch

    friend bool operator==(const SourceState&, const SourceState&) = default;
  };

  explicit DeltaGovernor(const GovernorOptions& options)
      : options_(options) {}

  /// Rejects out-of-range knobs. Run lazily by PlanEpoch so a
  /// misconfigured governor fails the tick, not the constructor.
  static Status Validate(const GovernorOptions& options);

  const GovernorOptions& options() const { return options_; }
  int64_t epochs() const { return epochs_; }

  /// Runs one allocation epoch. `samples` must ascend strictly by
  /// source id (the engine iterates its ordered registry) and should
  /// cover every registered source — a source absent from one epoch's
  /// samples simply keeps its state untouched.
  Result<GovernorEpochResult> PlanEpoch(
      const std::vector<GovernorSourceSample>& samples);

  /// Controller state keyed by source id, for metrics + checkpointing.
  const std::map<int, SourceState>& states() const { return states_; }

  /// Restores controller state captured by `states()` (checkpoints).
  void ImportState(int64_t epochs, std::map<int, SourceState> states) {
    epochs_ = epochs;
    states_ = std::move(states);
  }

 private:
  GovernorOptions options_;
  int64_t epochs_ = 0;
  std::map<int, SourceState> states_;
};

}  // namespace dkf

#endif  // DKF_GOVERNOR_DELTA_GOVERNOR_H_
