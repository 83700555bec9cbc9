#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_engine.h"
#include "linalg/matrix.h"
#include "models/state_model.h"
#include "runtime/sharded_engine.h"
#include "serve/subscription.h"

namespace perfbench {

class Oracle;
class SpanRecorder;

/// The three stream models the workloads mix.
enum class ModelKind { kConstant, kLinear1, kLinear2 };

/// Everything that defines one workload. Sizes and rates are constants of
/// the benchmark: a later change is measured against the same load.
struct WorkloadSpec {
  std::string name;
  int sources = 0;  // plain sources
  int fusion_groups = 0;
  int members_per_group = 0;
  int subscriptions = 0;  // standing subscriptions, all kinds
  int aggregates = 0;     // SUM queries over 8 sources each
  bool batched_fleet = false;
  bool faults = false;
  bool governor = false;
  bool checkpoint = false;  // one Save -> Restore at mid-window
  int shards = 4;
  double delta = 4.0;
  double fused_delta = 2.0;
  /// Open-loop tick rate: about half of the seed's measured capacity.
  double ticks_per_second = 0.0;
  int warmup_ticks = 64;
  double governor_budget_bytes_per_tick = 0.0;
  /// Model mix: the rest of the plain sources use the 1-axis linear model.
  double share_constant = 0.0;
  double share_linear2 = 0.0;
  /// Projected resident bytes per source of one engine, for the memory
  /// pre-flight (measured on the seed, with headroom).
  double projected_bytes_per_source = 0.0;

  int total_sources() const {
    return sources + fusion_groups * members_per_group;
  }
};

/// The named workloads; `tiny` shrinks every size for the self-test.
/// Returns false for an unknown name.
bool SpecFor(const std::string& name, bool tiny, WorkloadSpec* spec);

dkf::StateModel ModelFor(ModelKind kind);

/// The seeded inputs of one workload: per-source signal parameters, the
/// subscription layout, fusion groups, and the oracle's sample. Readings
/// are a cheap function of (source, tick), so the driver rewrites a tick's
/// batch between ticks without touching the clock it measures.
class Inputs {
 public:
  static Inputs Generate(const WorkloadSpec& spec, uint64_t seed);

  /// A batch with every source and member id, in ascending id order.
  dkf::ReadingBatch MakeBatch() const;

  /// Rewrites `batch` (from MakeBatch) with tick `tick`'s readings.
  void Fill(int64_t tick, dkf::ReadingBatch* batch) const;

  /// The reading of batch entry `index` at `tick`.
  void ReadingAt(size_t index, int64_t tick, dkf::Vector* out) const;

  struct Source {
    int id = 0;
    ModelKind model = ModelKind::kLinear1;
    size_t dim = 1;
    double base = 0.0;
    double amplitude = 0.0;
    double noise = 0.0;
    uint32_t phase = 0;
    uint32_t speed = 1;
    uint32_t salt = 0;
    int64_t event_offset = 0;
  };

  struct Group {
    int group_id = 0;
    std::vector<int> member_ids;
  };

  const std::vector<Source>& entries() const { return entries_; }
  size_t num_plain() const { return num_plain_; }
  const std::vector<Group>& groups() const { return groups_; }
  const std::vector<dkf::Subscription>& subscriptions() const {
    return subscriptions_;
  }
  const std::vector<dkf::AggregateQuery>& aggregates() const {
    return aggregates_;
  }
  /// Batch indexes of the plain sources the oracle checks every tick.
  const std::vector<size_t>& sample() const { return sample_; }

 private:
  double Value(const Source& source, int64_t tick, size_t axis) const;

  int signal_ = 0;  // which signal family (per workload)
  std::vector<Source> entries_;  // plain sources then members, by id
  size_t num_plain_ = 0;
  std::vector<Group> groups_;
  std::vector<dkf::Subscription> subscriptions_;
  std::vector<dkf::AggregateQuery> aggregates_;
  std::vector<size_t> sample_;
  std::vector<double> sine_;
  std::vector<double> noise_;
};

/// Engine options for a workload at `shards` shards.
dkf::ShardedStreamEngineOptions EngineOptions(const WorkloadSpec& spec,
                                              uint64_t seed, int shards);

struct SetupTimes {
  double register_seconds = 0.0;  // RegisterSource + SubmitQuery
  double subscribe_seconds = 0.0;
};

/// Registers sources, queries, fusion groups, aggregates, and (when
/// `with_subscriptions`) the standing subscriptions. Every call's Status
/// goes to `oracle`; `spans` and `times` may be null.
std::unique_ptr<dkf::ShardedStreamEngine> BuildEngine(
    const WorkloadSpec& spec, const Inputs& inputs, uint64_t seed, int shards,
    bool with_subscriptions, Oracle* oracle, SpanRecorder* spans,
    SetupTimes* times);

/// Runs ticks [first, last) closed loop, draining notifications after
/// each into `oracle`'s notification digest.
void RunTicks(dkf::ShardedStreamEngine* engine, const Inputs& inputs,
              dkf::ReadingBatch* batch, int64_t first, int64_t last,
              Oracle* oracle);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
