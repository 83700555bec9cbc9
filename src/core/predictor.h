#ifndef DKF_CORE_PREDICTOR_H_
#define DKF_CORE_PREDICTOR_H_

#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "models/state_model.h"
#include "obs/trace_sink.h"

namespace dkf {

/// The prediction procedure the server caches for one stream source.
///
/// The DKF protocol (and its baselines) only need three operations from a
/// prediction scheme: advance one time step, report the value the server
/// would answer right now, and incorporate a transmitted measurement. Both
/// endpoints of a dual link run *identical* Predictor instances fed
/// identical inputs, which is what makes server-side prediction possible
/// without communication.
///
/// Implementations must be deterministic: equal call sequences on equal
/// initial states must produce bit-identical states (see StateEquals).
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Display name used in experiment tables.
  virtual std::string name() const = 0;

  /// Width of the values this predictor consumes and produces.
  virtual size_t dim() const = 0;

  /// Advances the internal model by one time step (the prediction half of
  /// the prediction-correction loop). Called exactly once per stream tick.
  virtual Status Tick() = 0;

  /// The value the server would answer for the current tick.
  virtual Vector Predicted() const = 0;

  /// Incorporates a measurement transmitted from the source (the
  /// correction half). Called only on ticks whose reading was sent.
  virtual Status Update(const Vector& value) = 0;

  /// Uncertainty of Predicted() — the state covariance projected through
  /// the measurement map (H P H^T) — when the scheme tracks one.
  /// std::nullopt for point predictors like the cached-value baseline.
  /// Lets the server attach confidence intervals to its answers.
  virtual std::optional<Matrix> PredictedCovariance() const {
    return std::nullopt;
  }

  /// Component 0 of Predicted(). When `variance` is non-null it receives
  /// entry (0, 0) of PredictedCovariance(), or std::nullopt when the
  /// scheme tracks none. Bit-identical to reading both off the full
  /// answer; schemes override it to skip the vector and matrix
  /// temporaries (the serving layer reads every watched source this way
  /// each tick).
  virtual double PredictedScalar(std::optional<double>* variance) const {
    if (variance != nullptr) {
      const std::optional<Matrix> covariance = PredictedCovariance();
      *variance = covariance.has_value()
                      ? std::optional<double>((*covariance)(0, 0))
                      : std::nullopt;
    }
    return Predicted()[0];
  }

  /// A full snapshot of the predictor's internal state — the payload of a
  /// dual-link resync message.
  struct Snapshot {
    Vector state;
    Matrix covariance;
    int64_t step = 0;
  };

  /// Exports the internal state for a resync. Unimplemented by default;
  /// schemes that support the hardened protocol override both ends.
  virtual Result<Snapshot> ExportState() const {
    return Status::Unimplemented("predictor does not support state export");
  }

  /// Overwrites the internal state with a peer's snapshot, bit-exact —
  /// applying the mirror's export re-locks the two filters by
  /// construction.
  virtual Status ImportState(const Snapshot& snapshot) {
    (void)snapshot;
    return Status::Unimplemented("predictor does not support state import");
  }

  /// The *complete* running state, including the steady-state fast-path
  /// freeze cycle that the resync-oriented ExportState deliberately omits.
  /// Checkpoint/restore uses this pair so a restored predictor continues
  /// bit-identically (docs/checkpoint.md). Unimplemented by default.
  virtual Result<KalmanFilter::FullState> ExportFullState() const {
    return Status::Unimplemented(
        "predictor does not support full-state export");
  }

  virtual Status ImportFullState(const KalmanFilter::FullState& full) {
    (void)full;
    return Status::Unimplemented(
        "predictor does not support full-state import");
  }

  /// The underlying KalmanFilter when the scheme has one that online
  /// noise adaptation (filter/adaptive_noise.h) may retune, else nullptr.
  /// Point predictors and schemes with no tunable noise opt out by
  /// default, which disables adaptation on their links.
  virtual KalmanFilter* AdaptableFilter() { return nullptr; }

  /// Deep copy. A link clones its prototype once for the server filter and
  /// once for the source-side mirror.
  virtual std::unique_ptr<Predictor> Clone() const = 0;

  /// True when `other` is the same concrete type with bit-identical
  /// internal state — the mirror-consistency predicate.
  virtual bool StateEquals(const Predictor& other) const = 0;

  /// Wires an observability sink into the scheme's internals, stamping
  /// emitted events with (source_id, actor). Observation only — must not
  /// change any prediction. Default: nothing to observe.
  virtual void SetTrace(TraceSink* sink, int32_t source_id,
                        TraceActor actor) {
    (void)sink;
    (void)source_id;
    (void)actor;
  }
};

/// Kalman-filter predictor (the paper's proposal): wraps a KalmanFilter
/// built from a StateModel recipe. Tick = Predict, Update = Correct.
class KalmanPredictor : public Predictor {
 public:
  /// Builds the predictor from a model recipe; errors when the recipe is
  /// invalid.
  static Result<KalmanPredictor> Create(const StateModel& model);

  std::string name() const override { return name_; }
  size_t dim() const override { return filter_.measurement_dim(); }
  Status Tick() override { return filter_.Predict(); }
  Vector Predicted() const override { return filter_.PredictedMeasurement(); }
  Status Update(const Vector& value) override {
    return filter_.Correct(value);
  }
  std::optional<Matrix> PredictedCovariance() const override {
    return filter_.AnswerCovariance();
  }
  double PredictedScalar(std::optional<double>* variance) const override {
    if (variance != nullptr) *variance = filter_.AnswerVariance0();
    return filter_.PredictedMeasurement0();
  }
  Result<Snapshot> ExportState() const override {
    return Snapshot{filter_.state(), filter_.covariance(), filter_.step()};
  }
  Status ImportState(const Snapshot& snapshot) override {
    return filter_.ImportState(snapshot.state, snapshot.covariance,
                               snapshot.step);
  }
  Result<KalmanFilter::FullState> ExportFullState() const override {
    return filter_.ExportFullState();
  }
  Status ImportFullState(const KalmanFilter::FullState& full) override {
    return filter_.ImportFullState(full);
  }
  KalmanFilter* AdaptableFilter() override { return &filter_; }
  std::unique_ptr<Predictor> Clone() const override {
    return std::make_unique<KalmanPredictor>(*this);
  }
  bool StateEquals(const Predictor& other) const override;
  void SetTrace(TraceSink* sink, int32_t source_id,
                TraceActor actor) override {
    filter_.set_trace(sink, source_id, actor);
  }

  /// Access to the underlying filter (innovation statistics, covariance).
  const KalmanFilter& filter() const { return filter_; }
  KalmanFilter& mutable_filter() { return filter_; }

 private:
  KalmanPredictor(std::string name, KalmanFilter filter)
      : name_(std::move(name)), filter_(std::move(filter)) {}

  std::string name_;
  KalmanFilter filter_;
};

/// The cached-approximation baseline of Olston et al. [23, 25] as used in
/// the paper's evaluation (§5): the server caches the last transmitted
/// value; the "prediction" never moves between updates.
///
/// In bound form the scheme keeps [L, H] = [V - delta, V + delta] around
/// the cached value V and transmits when a reading exits the bound; the
/// deviation test |v - V| > delta applied by the link is exactly that
/// bound check, so this class only needs to remember V. No dynamic bound
/// growing/shrinking (the paper disables it too).
class CachedValuePredictor : public Predictor {
 public:
  /// A cache for `dim`-wide values, initially all-zero (the first real
  /// reading virtually always deviates and forces the initial update).
  static Result<CachedValuePredictor> Create(size_t dim);

  std::string name() const override { return "caching"; }
  size_t dim() const override { return cached_.size(); }
  Status Tick() override { return Status::OK(); }
  Vector Predicted() const override { return cached_; }
  Status Update(const Vector& value) override;
  std::unique_ptr<Predictor> Clone() const override {
    return std::make_unique<CachedValuePredictor>(*this);
  }
  bool StateEquals(const Predictor& other) const override;

 private:
  explicit CachedValuePredictor(size_t dim) : cached_(dim) {}
  Vector cached_;
};

}  // namespace dkf

#endif  // DKF_CORE_PREDICTOR_H_
