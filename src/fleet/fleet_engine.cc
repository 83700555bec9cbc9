#include "fleet/fleet_engine.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/string_util.h"
#include "core/suppression.h"
#include "linalg/kernels.h"

namespace dkf {

namespace {

/// True when two filters of one model shape hold bit-identical Q and R
/// — `==` on doubles would treat -0.0 == 0.0 and NaN != NaN, either of
/// which could let a lane drift from the per-source arithmetic by one
/// representation.
bool SameNoise(const KalmanFilter& a, const KalmanFilter& b) {
  const size_t n = a.state_dim();
  const size_t m = a.measurement_dim();
  return std::memcmp(a.process_noise_data(), b.process_noise_data(),
                     n * n * sizeof(double)) == 0 &&
         std::memcmp(a.measurement_noise_data(), b.measurement_noise_data(),
                     m * m * sizeof(double)) == 0;
}

/// The KalmanFilter behind one end of a link. Every tracked source runs
/// a KalmanPredictor at both ends (SourceNode::Create,
/// ServerNode::RegisterSource).
const KalmanFilter* FilterOf(const Predictor& predictor) {
  const auto* kalman = dynamic_cast<const KalmanPredictor*>(&predictor);
  return kalman != nullptr ? &kalman->filter() : nullptr;
}

/// Canonical byte key of everything that makes two models interchangeable
/// for batching purposes: lanes in one group share coefficients and the
/// replay filter, so any field that could alter arithmetic or
/// trace behavior must be part of the key.
///
/// The key also covers every field the snapshot's Walk<StateModel>
/// encodes (src/checkpoint/snapshot_io.cc), and a checkpoint relies on
/// it: CheckpointAccess::Capture writes a resident source's recipe from
/// its nominal group's model, which encodes to the registered model's
/// bytes only because no two models that encode differently share a key.
/// FleetMemory.ModelsDifferingInOneEncodedFieldGetTheirOwnGroup pins it.
std::string ModelKey(const StateModel& model) {
  const KalmanFilterOptions& o = model.options;
  std::string key = model.name;
  key.push_back('\0');
  auto append = [&key](const void* p, size_t bytes) {
    key.append(static_cast<const char*>(p), bytes);
  };
  const char fast = o.steady_state_fast_path ? 1 : 0;
  append(&model.measurement_dim, sizeof(model.measurement_dim));
  append(&fast, sizeof(fast));
  append(&o.steady_state_tolerance, sizeof(double));
  for (const Matrix* m : {&o.transition, &o.measurement, &o.process_noise,
                          &o.measurement_noise, &o.initial_covariance}) {
    const size_t shape[] = {m->rows(), m->cols()};
    append(shape, sizeof(shape));
    append(m->data(), m->rows() * m->cols() * sizeof(double));
  }
  const size_t n = o.initial_state.size();
  append(&n, sizeof(n));
  append(o.initial_state.data(), n * sizeof(double));
  return key;
}

/// A cold record (FleetEngine::ColdTable) keeps its six int32 scalars in
/// this many leading doubles.
constexpr size_t kColdScalarSlots = 3;

/// The cold record of `f`: its six int32 scalars, then its cold segment.
void PackColdRecord(const KalmanFilter::FullState& f,
                    const KalmanStateLayout& layout, double* record) {
  const int32_t scalars[] = {f.ss_streak1,        f.ss_streak2,
                             f.ss_have_prev,      f.ss_period,
                             f.ss_pending_priors, f.ss_capture_idx};
  static_assert(sizeof(scalars) == kColdScalarSlots * sizeof(double));
  std::memcpy(record, scalars, sizeof(scalars));
  KalmanFilter::PackCold(f, layout, record + kColdScalarSlots);
}

/// The inverse of PackColdRecord.
void UnpackColdRecord(const double* record, const KalmanStateLayout& layout,
                      KalmanFilter::FullState* f) {
  int32_t scalars[6];
  std::memcpy(scalars, record, sizeof(scalars));
  f->ss_streak1 = scalars[0];
  f->ss_streak2 = scalars[1];
  f->ss_have_prev = scalars[2];
  f->ss_period = scalars[3];
  f->ss_pending_priors = scalars[4];
  f->ss_capture_idx = scalars[5];
  KalmanFilter::UnpackCold(record + kColdScalarSlots, layout, f);
}

/// The n x n matrix at state offset `offset` (one of the layout's cold
/// segments) of a cold record.
const double* ColdSegment(const double* record,
                          const KalmanStateLayout& layout, size_t offset) {
  return record + kColdScalarSlots + (offset - layout.q);
}

}  // namespace

int64_t FleetCounters::spill_total() const {
  int64_t total = 0;
  for (int64_t count : spills) total += count;
  return total;
}

FleetCounters& FleetCounters::operator+=(const FleetCounters& other) {
  for (size_t i = 0; i < spills.size(); ++i) spills[i] += other.spills[i];
  for (size_t i = 0; i < absorb_rejects.size(); ++i) {
    absorb_rejects[i] += other.absorb_rejects[i];
  }
  return *this;
}

FleetFootprint& FleetFootprint::operator+=(const FleetFootprint& other) {
  nodes_live += other.nodes_live;
  lane_groups += other.lane_groups;
  cold_records += other.cold_records;
  cold_refs += other.cold_refs;
  cold_bytes += other.cold_bytes;
  return *this;
}

size_t FleetEngine::ColdTable::Hash(const double* record) const {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(record), stride_ * sizeof(double)));
}

int32_t FleetEngine::ColdTable::Acquire(const double* record) {
  const size_t bytes = stride_ * sizeof(double);
  const size_t hash = Hash(record);
  auto [it, end] = by_hash_.equal_range(hash);
  for (; it != end; ++it) {
    if (std::memcmp((*this)[it->second], record, bytes) == 0) {
      ++refs_[static_cast<size_t>(it->second)];
      return it->second;
    }
  }
  int32_t index;
  if (free_.empty()) {
    index = static_cast<int32_t>(refs_.size());
    records_.resize(records_.size() + stride_);
    refs_.push_back(1);
  } else {
    index = free_.back();
    free_.pop_back();
    refs_[static_cast<size_t>(index)] = 1;
  }
  std::memcpy(records_.data() + static_cast<size_t>(index) * stride_, record,
              bytes);
  by_hash_.emplace(hash, index);
  return index;
}

void FleetEngine::ColdTable::Release(int32_t index) {
  if (--refs_[static_cast<size_t>(index)] > 0) return;
  auto [it, end] = by_hash_.equal_range(Hash((*this)[index]));
  for (; it != end; ++it) {
    if (it->second == index) {
      by_hash_.erase(it);
      break;
    }
  }
  free_.push_back(index);
}

int64_t FleetEngine::ColdTable::references() const {
  int64_t total = 0;
  for (const auto& [hash, index] : by_hash_) {
    total += refs_[static_cast<size_t>(index)];
  }
  return total;
}

int64_t FleetEngine::ColdTable::bytes() const {
  // A hash node is its link plus its (hash, index) pair.
  constexpr size_t kNodeBytes =
      sizeof(void*) + sizeof(std::pair<const size_t, int32_t>);
  return static_cast<int64_t>(
      records_.capacity() * sizeof(double) +
      (refs_.capacity() + free_.capacity()) * sizeof(int32_t) +
      by_hash_.bucket_count() * sizeof(void*) +
      by_hash_.size() * kNodeBytes);
}

FleetEngine::Group::Group(const StateModel& recipe)
    : model(recipe),
      n(recipe.options.initial_state.size()),
      m(recipe.options.measurement.rows()),
      layout(n, m),
      cold_table(kColdScalarSlots + layout.cold_size()),
      cold_scratch(cold_table.stride()) {}

FleetEngine::FleetEngine(ServerNode* server, Channel* channel,
                         const ProtocolOptions& protocol,
                         const EnergyModelOptions& energy)
    : server_(server), channel_(channel), protocol_(protocol),
      energy_(energy) {}

Result<int> FleetEngine::GroupFor(const StateModel& model) {
  if (model.options.transition_fn) return -1;  // no constant phi to share
  std::string key = ModelKey(model);
  auto it = group_by_key_.find(key);
  if (it != group_by_key_.end()) return it->second;

  auto group = std::make_unique<Group>(model);
  DKF_ASSIGN_OR_RETURN(KalmanPredictor replay, KalmanPredictor::Create(model));
  group->replay = std::move(replay);
  const KalmanFilterOptions& o = model.options;
  const size_t n = group->n;
  group->phi.assign(o.transition.data(), o.transition.data() + n * n);
  group->h.assign(o.measurement.data(), o.measurement.data() + group->m * n);
  group->q.assign(o.process_noise.data(), o.process_noise.data() + n * n);
  group->sx.resize(n);
  group->sp1.resize(n * n);
  group->sp2.resize(n * n);
  const int index = static_cast<int>(groups_.size());
  groups_.push_back(std::move(group));
  group_by_key_[std::move(key)] = index;
  return index;
}

Status FleetEngine::Track(int source_id, const StateModel& model,
                          std::unique_ptr<SourceNode>* slot) {
  DKF_ASSIGN_OR_RETURN(int group_index, GroupFor(model));
  if (group_index >= 0 && groups_[group_index]->prototype == nullptr) {
    // Built the way the shard builds the source's own node; delta and
    // every other per-source field are overwritten by the spill's import.
    SourceNodeOptions options;
    options.model = model;
    options.energy = energy_;
    options.protocol = protocol_;
    DKF_ASSIGN_OR_RETURN(SourceNode prototype, SourceNode::Create(options));
    groups_[group_index]->prototype =
        std::make_unique<SourceNode>(std::move(prototype));
  }
  TickEntry entry;
  entry.slot = slot;
  entry.id = source_id;
  entry.nominal_group = group_index;
  pending_.push_back(entry);
  return Status::OK();
}

const FleetEngine::TickEntry* FleetEngine::FindEntry(int source_id) const {
  auto it = std::lower_bound(
      order_.begin(), order_.end(), source_id,
      [](const TickEntry& entry, int id) { return entry.id < id; });
  return it != order_.end() && it->id == source_id ? &*it : nullptr;
}

bool FleetEngine::resident(int source_id) const {
  const TickEntry* entry = FindEntry(source_id);
  return entry != nullptr && entry->group >= 0;
}

size_t FleetEngine::resident_count() const {
  size_t total = 0;
  for (const auto& group : groups_) total += group->ids.size();
  return total;
}

FleetFootprint FleetEngine::footprint() const {
  FleetFootprint footprint;
  for (const std::vector<TickEntry>* entries : {&order_, &pending_}) {
    for (const TickEntry& entry : *entries) {
      if (*entry.slot != nullptr) ++footprint.nodes_live;
    }
  }
  for (const auto& group : groups_) {
    if (!group->ids.empty()) ++footprint.lane_groups;
    footprint.cold_records += static_cast<int64_t>(group->cold_table.size());
    footprint.cold_refs += group->cold_table.references();
    footprint.cold_bytes += group->cold_table.bytes();
  }
  return footprint;
}

std::optional<FleetEngine::ResidentSource> FleetEngine::FindResident(
    int source_id) const {
  const TickEntry* entry = FindEntry(source_id);
  if (entry == nullptr || entry->group < 0) return std::nullopt;
  const Group& g = *groups_[entry->group];
  const size_t lane = static_cast<size_t>(entry->lane);
  const NodeRecord& record = g.node_records[lane];
  ResidentSource source;
  source.delta = g.delta[lane];
  source.updates_sent = record.updates_sent;
  source.readings = g.readings[lane];
  source.energy = g.energy_transmission[lane] + g.energy_compute[lane] +
                  g.energy_sensing[lane];
  source.measurement_dim = g.m;
  source.model = &groups_[entry->nominal_group]->model;
  source.noise_adapter = record.adapter != nullptr
                             ? record.adapter.get()
                             : &PrototypeFor(*entry).noise_adapter();
  source.group = entry->group;
  source.lane = entry->lane;
  return source;
}

void FleetEngine::MergeResidentFaults(ProtocolFaultStats* merged) const {
  for (const auto& group : groups_) {
    for (const NodeRecord& record : group->node_records) {
      merged->MergeFrom(record.faults);
    }
  }
}

KalmanFilter::FullState FleetEngine::LaneFullState(const Group& g,
                                                   size_t lane,
                                                   End end) const {
  const EndColumns& e = g.ends[end];
  KalmanFilter::FullState f;
  UnpackColdRecord(g.cold_table[e.cold_idx[lane]], g.layout, &f);
  if (e.has_innovation[lane]) {
    f.last_innovation = Vector(g.m);
    std::memcpy(f.last_innovation.data(), &e.innovation[lane * g.m],
                g.m * sizeof(double));
  }
  const size_t n = g.n;
  f.x = Vector(n);
  std::memcpy(f.x.data(), &g.x[lane * n], n * sizeof(double));
  f.p = Matrix(n, n);
  std::memcpy(f.p.MutableRowData(0), LaneCovariance(g, lane, end),
              n * n * sizeof(double));
  f.step = g.step[lane];
  f.predicts_since_correct =
      g.psc[lane] + (end == kServerEnd ? g.server_psc_skew[lane] : 0);
  f.phase = g.phase[lane];
  f.ss_mode = g.ss_mode[lane];
  f.ss_idx = g.ss_idx[lane];
  return f;
}

const double* FleetEngine::LaneCovariance(const Group& g, size_t lane,
                                          End end) {
  if (!g.p_stale[lane]) return &g.p[lane * g.n * g.n];
  // The filter's own fast path assigns p <- ss_prior_p[ss_idx] eagerly.
  return ColdSegment(g.cold_table[g.ends[end].cold_idx[lane]], g.layout,
                     g.layout.prior_p[g.ss_idx[lane]]);
}

const double* FleetEngine::ServerNoise(const Group& g, size_t lane) {
  return ColdSegment(g.cold_table[g.ends[kServerEnd].cold_idx[lane]],
                     g.layout, g.layout.r);
}

void FleetEngine::SetCold(Group& g, size_t lane) {
  // Acquire before release: a lane re-storing its own record must not
  // free it in between.
  for (EndColumns& e : g.ends) {
    const int32_t index = g.cold_table.Acquire(g.cold_scratch.data());
    g.cold_table.Release(e.cold_idx[lane]);
    e.cold_idx[lane] = index;
  }
}

SourceNode::CheckpointState FleetEngine::SynthesizeForLane(
    const Group& g, size_t lane) const {
  const TickEntry& entry = order_[g.order_pos[lane]];
  const NodeRecord& record = g.node_records[lane];
  SourceNode::CheckpointState state;
  state.delta = g.delta[lane];
  // Absorption admitted only the prototype's KF_c variance, no smoothing
  // (so no smoother state) and no resync episode (pending = false,
  // first_resync_sequence = resync_attempts = 0: the defaults).
  state.smoothing_measurement_variance =
      PrototypeFor(entry).smoothing_measurement_variance();
  state.mirror = LaneFullState(g, lane, kMirrorEnd);
  state.energy_transmission = g.energy_transmission[lane];
  state.energy_compute = g.energy_compute[lane];
  state.energy_sensing = g.energy_sensing[lane];
  state.readings = g.readings[lane];
  state.updates_sent = record.updates_sent;
  state.next_sequence = record.next_sequence;
  state.pending_since = record.pending_since;
  state.last_resync_tick = record.last_resync_tick;
  state.last_send_tick = g.last_send_tick[lane];
  state.faults = record.faults;
  if (record.adapter != nullptr) state.adapt = record.adapter->ExportState();
  return state;
}

ServerNode::LinkSnapshot FleetEngine::SynthesizeLinkForLane(
    const Group& g, size_t lane) const {
  ServerNode::LinkSnapshot link;
  link.last_sequence = g.link_last_sequence[lane];
  link.last_valid_tick = g.link_last_valid_tick[lane];
  link.last_resync_tick = g.link_last_resync_tick[lane];
  link.last_update_tick = g.link_last_update_tick[lane];
  // The lane's hot state is the predictor's, and its server end holds
  // the bookkeeping a resync reset on the server only. The noise servo
  // needs no server copy: absorption required the two adapter states
  // bit-equal, and corrections — the only thing that moves them — never
  // happen on a resident lane, so the record's copy stands in for the
  // server's.
  link.predictor = LaneFullState(g, lane, kServerEnd);
  const NodeRecord& record = g.node_records[lane];
  if (record.adapter != nullptr) link.adapt = record.adapter->ExportState();
  return link;
}

size_t FleetEngine::AddLane(Group& g, int32_t order_pos,
                            const SourceNode::CheckpointState& state,
                            const ServerNode::LinkSnapshot& link,
                            const NoiseAdapter& adapter) {
  const size_t lane = g.ids.size();
  const size_t n = g.n;
  const KalmanFilter::FullState& m = state.mirror;
  g.ids.push_back(order_[order_pos].id);
  g.x.insert(g.x.end(), m.x.data(), m.x.data() + n);
  g.p.insert(g.p.end(), m.p.RowData(0), m.p.RowData(0) + n * n);
  g.step.push_back(m.step);
  g.psc.push_back(m.predicts_since_correct);
  g.phase.push_back(m.phase);
  g.ss_mode.push_back(m.ss_mode);
  g.ss_idx.push_back(m.ss_idx);
  g.p_stale.push_back(0);
  g.delta.push_back(state.delta);
  g.last_send_tick.push_back(state.last_send_tick);
  g.readings.push_back(state.readings);
  g.energy_transmission.push_back(state.energy_transmission);
  g.energy_compute.push_back(state.energy_compute);
  g.energy_sensing.push_back(state.energy_sensing);
  g.link_last_sequence.push_back(link.last_sequence);
  g.link_last_valid_tick.push_back(link.last_valid_tick);
  g.link_last_resync_tick.push_back(link.last_resync_tick);
  g.link_last_update_tick.push_back(link.last_update_tick);
  g.delivered.push_back(0);
  g.server_psc_skew.push_back(link.predictor.predicts_since_correct -
                              m.predicts_since_correct);
  g.ss_period.push_back(m.ss_period);
  g.order_pos.push_back(order_pos);
  g.value_ptrs.push_back(nullptr);
  for (const End end : {kMirrorEnd, kServerEnd}) {
    const KalmanFilter::FullState& f =
        end == kMirrorEnd ? state.mirror : link.predictor;
    EndColumns& e = g.ends[end];
    PackColdRecord(f, g.layout, g.cold_scratch.data());
    e.cold_idx.push_back(g.cold_table.Acquire(g.cold_scratch.data()));
    e.has_innovation.push_back(f.last_innovation.size() != 0 ? 1 : 0);
    e.innovation.resize(e.innovation.size() + g.m, 0.0);
    if (e.has_innovation[lane]) {
      std::memcpy(&e.innovation[lane * g.m], f.last_innovation.data(),
                  g.m * sizeof(double));
    }
  }
  NodeRecord record;
  record.updates_sent = state.updates_sent;
  record.pending_since = state.pending_since;
  record.last_resync_tick = state.last_resync_tick;
  record.next_sequence = state.next_sequence;
  record.faults = state.faults;
  if (adapter.enabled()) {
    record.adapter = std::make_unique<NoiseAdapter>(adapter);
  }
  g.node_records.push_back(std::move(record));
  return lane;
}

void FleetEngine::RemoveLane(Group& g, size_t lane) {
  const size_t last = g.ids.size() - 1;
  const size_t n = g.n;
  const size_t m = g.m;
  for (EndColumns& e : g.ends) {
    g.cold_table.Release(e.cold_idx[lane]);
    if (lane != last) {
      e.cold_idx[lane] = e.cold_idx[last];
      std::memcpy(&e.innovation[lane * m], &e.innovation[last * m],
                  m * sizeof(double));
      e.has_innovation[lane] = e.has_innovation[last];
    }
    e.cold_idx.pop_back();
    e.innovation.resize(e.innovation.size() - m);
    e.has_innovation.pop_back();
  }
  if (lane != last) {
    g.ids[lane] = g.ids[last];
    std::memcpy(&g.x[lane * n], &g.x[last * n], n * sizeof(double));
    std::memcpy(&g.p[lane * n * n], &g.p[last * n * n],
                n * n * sizeof(double));
    g.step[lane] = g.step[last];
    g.psc[lane] = g.psc[last];
    g.phase[lane] = g.phase[last];
    g.ss_mode[lane] = g.ss_mode[last];
    g.ss_idx[lane] = g.ss_idx[last];
    g.p_stale[lane] = g.p_stale[last];
    g.delta[lane] = g.delta[last];
    g.last_send_tick[lane] = g.last_send_tick[last];
    g.readings[lane] = g.readings[last];
    g.energy_transmission[lane] = g.energy_transmission[last];
    g.energy_compute[lane] = g.energy_compute[last];
    g.energy_sensing[lane] = g.energy_sensing[last];
    g.link_last_sequence[lane] = g.link_last_sequence[last];
    g.link_last_valid_tick[lane] = g.link_last_valid_tick[last];
    g.link_last_resync_tick[lane] = g.link_last_resync_tick[last];
    g.link_last_update_tick[lane] = g.link_last_update_tick[last];
    g.delivered[lane] = g.delivered[last];
    g.server_psc_skew[lane] = g.server_psc_skew[last];
    g.ss_period[lane] = g.ss_period[last];
    g.order_pos[lane] = g.order_pos[last];
    g.value_ptrs[lane] = g.value_ptrs[last];
    g.node_records[lane] = std::move(g.node_records[last]);
    order_[g.order_pos[lane]].lane = static_cast<int32_t>(lane);
  }
  g.ids.pop_back();
  g.x.resize(g.x.size() - n);
  g.p.resize(g.p.size() - n * n);
  g.step.pop_back();
  g.psc.pop_back();
  g.phase.pop_back();
  g.ss_mode.pop_back();
  g.ss_idx.pop_back();
  g.p_stale.pop_back();
  g.delta.pop_back();
  g.last_send_tick.pop_back();
  g.readings.pop_back();
  g.energy_transmission.pop_back();
  g.energy_compute.pop_back();
  g.energy_sensing.pop_back();
  g.link_last_sequence.pop_back();
  g.link_last_valid_tick.pop_back();
  g.link_last_resync_tick.pop_back();
  g.link_last_update_tick.pop_back();
  g.delivered.pop_back();
  g.server_psc_skew.pop_back();
  g.ss_period.pop_back();
  g.order_pos.pop_back();
  g.value_ptrs.pop_back();
  g.node_records.pop_back();
}

Status FleetEngine::SpillLane(int group_index, size_t lane, int64_t tick,
                              const Vector* reading,
                              FleetSpillReason reason) {
  Group& g = *groups_[group_index];
  TickEntry& entry = order_[g.order_pos[lane]];
  const int id = entry.id;
  // Rebuild both ends from the source's *nominal* group prototype, not
  // the (possibly adapted) lane group: the server's NoiseAdapter is
  // relative to the registration model, and the imports below overwrite
  // the filters with the lane's full state, so the prototype's Q/R never
  // reach either filter.
  const SourceNode& prototype = PrototypeFor(entry);
  std::unique_ptr<SourceNode> node = prototype.CloneAs(id);
  node->set_trace_sink(obs_sink_);
  DKF_RETURN_IF_ERROR(node->ImportCheckpoint(SynthesizeForLane(g, lane)));
  DKF_RETURN_IF_ERROR(server_->RegisterSourceLike(id, prototype.mirror(),
                                                  prototype.noise_adapter()));
  DKF_RETURN_IF_ERROR(server_->RestoreLink(id, SynthesizeLinkForLane(g, lane)));
  *entry.slot = std::move(node);

  RemoveLane(g, lane);
  entry.group = -1;
  ++counters_.spills[static_cast<size_t>(reason)];

  if (reading != nullptr) {
    // Mid-tick spill: the server's TickAll already ran without this id,
    // so the freshly re-registered predictor replays the predict it
    // missed, then the verbatim per-source code takes the tick over.
    DKF_RETURN_IF_ERROR(server_->TickSource(id));
    auto step_or = (*entry.slot)->ProcessReading(tick, *reading, channel_);
    if (!step_or.ok()) return step_or.status();
  }
  return Status::OK();
}

Status FleetEngine::SpillForReconfigure(int source_id) {
  const TickEntry* entry = FindEntry(source_id);
  if (entry == nullptr || entry->group < 0) return Status::OK();
  return SpillLane(entry->group, static_cast<size_t>(entry->lane),
                   /*tick=*/0, /*reading=*/nullptr,
                   FleetSpillReason::kReconfigure);
}

Status FleetEngine::SetDelta(int source_id, double delta) {
  const TickEntry* entry = FindEntry(source_id);
  if (entry == nullptr || entry->group < 0) {
    return Status::NotFound(StrFormat("source %d not resident", source_id));
  }
  DKF_RETURN_IF_ERROR(SourceNode::ValidateDelta(delta));
  groups_[entry->group]->delta[entry->lane] = delta;
  return Status::OK();
}

Status FleetEngine::OnMessage(const Message& message) {
  const TickEntry* entry = FindEntry(message.source_id);
  if (entry == nullptr || entry->group < 0) {
    return Status::NotFound(
        StrFormat("source %d not resident", message.source_id));
  }
  if (message.type != MessageType::kHeartbeat) {
    return Status::Internal(
        StrFormat("non-heartbeat message for resident source %d",
                  message.source_id));
  }
  Group& g = *groups_[entry->group];
  const size_t lane = static_cast<size_t>(entry->lane);
  if (message.tick < server_->ticks() - 1) {
    // Delivered from the channel's delay queue: its deferred ACK, if
    // any, surfaces for the lane's tick. On the per-source path TickAll
    // ran the server filter's coasting break before this delivery, so
    // its event goes out first.
    g.delivered[lane] |= kAckDue;
    deliveries_pending_ = true;
    if (CoastingBreakDue(g, lane) && !(g.delivered[lane] & kServerDisarmed)) {
      DKF_TRACE(obs_sink_, g.step[lane], g.ids[lane],
                TraceEventKind::kFastPathDisarm, TraceActor::kServerFilter,
                static_cast<double>(g.ss_period[lane]));
      g.delivered[lane] |= kServerDisarmed;
    }
  }
  server_->Admit(message, &g.link_last_sequence[lane],
                 &g.link_last_valid_tick[lane]);
  return Status::OK();
}

void FleetEngine::RebuildOrder() {
  // Both sides ascend by id once the newcomers are sorted, so one merge
  // keeps every existing entry (residency included) and slots the
  // newcomers in, spilled.
  auto by_id = [](const TickEntry& a, const TickEntry& b) {
    return a.id < b.id;
  };
  std::sort(pending_.begin(), pending_.end(), by_id);
  std::vector<TickEntry> merged(order_.size() + pending_.size());
  std::merge(order_.begin(), order_.end(), pending_.begin(), pending_.end(),
             merged.begin(), by_id);
  order_.swap(merged);
  pending_.clear();
  for (size_t i = 0; i < order_.size(); ++i) {
    const TickEntry& entry = order_[i];
    if (entry.group >= 0) {
      groups_[entry.group]->order_pos[entry.lane] = static_cast<int32_t>(i);
    }
  }
}

void FleetEngine::ResolveReadings(const std::vector<Vector>& values,
                                  const std::vector<uint32_t>& positions) {
  // Ascending id, like RunSourceTick's staging pass.
  staged_spilled_.clear();
  for (size_t i = 0; i < order_.size(); ++i) {
    const TickEntry& entry = order_[i];
    const Vector* value = &values[positions[i]];
    if (entry.group >= 0) {
      groups_[entry.group]->value_ptrs[entry.lane] = value;
    } else {
      staged_spilled_.emplace_back(entry.slot->get(), value);
    }
  }
}

int64_t FleetEngine::LaneOverdueTicks(const Group& g, size_t lane) const {
  return DegradedOverdueTicks(protocol_, server_->ticks() - 1,
                              g.link_last_valid_tick[lane],
                              g.link_last_resync_tick[lane]);
}

void FleetEngine::AccountDegradedLanes() {
  // ServerNode::TickAll's degraded-service account for the lanes the
  // server no longer sees, behind the same cheap guard so a fault-free
  // run pays nothing. Must run before TickAll: the account is for the
  // tick that just completed.
  if (server_->ticks() <= 0 ||
      (protocol_.staleness_budget <= 0 &&
       server_->fault_stats().resyncs_applied == 0)) {
    return;
  }
  const int64_t now = server_->ticks() - 1;
  for (const auto& group : groups_) {
    const Group& g = *group;
    for (size_t i = 0; i < g.ids.size(); ++i) {
      AccountDegradedTick(LaneOverdueTicks(g, i), now, g.ids[i],
                          &degraded_ticks_, obs_sink_);
    }
  }
}

Status FleetEngine::ReplayArmPending(Group& g, size_t lane, const Vector& z,
                                     double* deviation,
                                     std::optional<FleetSpillReason>* spill) {
  // First a silent replay decides suppress-vs-spill without touching
  // the lane; then, if suppressed, one traced replay per actor emits
  // exactly what the server filter (TickAll) and the mirror
  // (ProcessReading) would have, in that order.
  const int id = g.ids[lane];
  const size_t n = g.n;
  KalmanPredictor& replay = *g.replay;
  // Arm-pending lanes have equal ends, so the mirror's state is both.
  const KalmanFilter::FullState pre = LaneFullState(g, lane, kMirrorEnd);
  replay.SetTrace(nullptr, 0, TraceActor::kSourceFilter);
  DKF_RETURN_IF_ERROR(replay.ImportFullState(pre));
  if (!replay.Tick().ok()) {
    // The predict left the finite range: the per-source filter reports
    // it, exactly as the per-source engine would.
    *spill = FleetSpillReason::kNonFinite;
    return Status::OK();
  }
  *deviation = Deviation(replay.Predicted(), z, DeviationNorm::kMaxAbs);
  if (*deviation > g.delta[lane]) {
    *spill = FleetSpillReason::kArmPending;
    return Status::OK();
  }
  DKF_RETURN_IF_ERROR(replay.ImportFullState(pre));
  replay.SetTrace(obs_sink_, id, TraceActor::kServerFilter);
  DKF_RETURN_IF_ERROR(replay.Tick());
  DKF_RETURN_IF_ERROR(replay.ImportFullState(pre));
  replay.SetTrace(obs_sink_, id, TraceActor::kSourceFilter);
  DKF_RETURN_IF_ERROR(replay.Tick());
  replay.SetTrace(nullptr, 0, TraceActor::kSourceFilter);
  DKF_ASSIGN_OR_RETURN(KalmanFilter::FullState post,
                       replay.ExportFullState());
  // A predict leaves last_innovation alone; the cold fields may have
  // captured or armed the frozen cycle.
  PackColdRecord(post, g.layout, g.cold_scratch.data());
  SetCold(g, lane);
  std::memcpy(&g.x[lane * n], post.x.data(), n * sizeof(double));
  std::memcpy(&g.p[lane * n * n], post.p.RowData(0), n * n * sizeof(double));
  g.p_stale[lane] = 0;
  g.step[lane] = post.step;
  g.psc[lane] = post.predicts_since_correct;
  g.phase[lane] = post.phase;
  g.ss_mode[lane] = post.ss_mode;
  g.ss_idx[lane] = post.ss_idx;
  return Status::OK();
}

void FleetEngine::DisarmLane(Group& g, size_t lane,
                             bool server_event_emitted) {
  // Both halves of the dual link disarm at the same step; the server
  // filter's event lands first because TickAll runs before the source
  // loop. Armed lanes have equal ends, so one cold record serves both.
  const int id = g.ids[lane];
  const size_t n = g.n;
  const double period = static_cast<double>(g.ss_period[lane]);
  if (!server_event_emitted) {
    DKF_TRACE(obs_sink_, g.step[lane], id, TraceEventKind::kFastPathDisarm,
              TraceActor::kServerFilter, period);
  }
  DKF_TRACE(obs_sink_, g.step[lane], id, TraceEventKind::kFastPathDisarm,
            TraceActor::kSourceFilter, period);
  g.ss_mode[lane] = kSsTracking;
  if (g.p_stale[lane]) {
    std::memcpy(&g.p[lane * n * n], LaneCovariance(g, lane, kMirrorEnd),
                n * n * sizeof(double));
    g.p_stale[lane] = 0;
  }
  const double* record = g.cold_table[g.ends[kMirrorEnd].cold_idx[lane]];
  // DisarmSteadyState's reset: ss_streak1, ss_streak2 and ss_have_prev,
  // the record's first three scalars.
  std::memcpy(g.cold_scratch.data(), record,
              g.cold_table.stride() * sizeof(double));
  std::memset(g.cold_scratch.data(), 0, 3 * sizeof(int32_t));
  SetCold(g, lane);
}

Status FleetEngine::SendHeartbeat(Group& g, size_t lane, int64_t tick) {
  NodeRecord& record = g.node_records[lane];
  const Message beacon = MakeHeartbeat(
      g.ids[lane], tick,
      CountHeartbeatSent(g.ids[lane], tick, &record.next_sequence,
                         &g.last_send_tick[lane], &record.faults, obs_sink_));
  g.energy_transmission[lane] +=
      EnergyAccount::TransmissionCost(energy_, beacon.SizeBytes());
  // The shard's sink hands a prompt delivery straight back to OnMessage.
  return channel_->Send(beacon).status();
}

Status FleetEngine::TickGroupLanes(int group_index, int64_t tick) {
  Group& g = *groups_[group_index];
  const size_t n = g.n;
  const size_t m = g.m;
  const double* phi = g.phi.data();
  const double* h = g.h.data();
  const double* q = g.q.data();
  double* sx = g.sx.data();
  double* sp1 = g.sp1.data();
  double* sp2 = g.sp2.data();

  size_t lane = 0;
  while (lane < g.ids.size()) {
    const Vector& z = *g.value_ptrs[lane];
    bool server_disarmed = false;
    if (deliveries_pending_ && g.delivered[lane] != 0) {
      // A delayed message landed this tick: collect its deferred ACK as
      // ProcessReading does. A lane is never in a resync episode, so
      // the ACK itself changes nothing.
      server_disarmed = (g.delivered[lane] & kServerDisarmed) != 0;
      g.delivered[lane] = 0;
      if (channel_->has_deferred_acks()) (void)channel_->TakeAcks(g.ids[lane]);
    }
    std::optional<FleetSpillReason> spill;
    double deviation = 0.0;
    if (g.ss_mode[lane] == kSsArmPending) {
      // The rare arm-pending predict runs through the real filter so the
      // capture/arm/freeze transition stays bit-exact, trace included.
      DKF_RETURN_IF_ERROR(ReplayArmPending(g, lane, z, &deviation, &spill));
    } else {
      // The two common cases: the armed frozen-gain predict (corrected
      // last tick: x <- phi x, the covariance snaps along the frozen
      // cycle), or the tracking-mode slow predict (the steady regime of
      // a long-suppressed lane, which disarms after two uncorrected
      // predicts). Nothing is committed unless the prediction is finite
      // and inside delta.
      // Coasting break: a second Predict without a Correct leaves the
      // frozen cycle (KalmanFilter::DisarmSteadyState).
      if (CoastingBreakDue(g, lane)) DisarmLane(g, lane, server_disarmed);
      const bool armed = g.ss_mode[lane] == kSsArmed;
      MultiplyVectorInto(phi, n, n, &g.x[lane * n], sx);
      bool finite = AllFinite(sx, n);
      if (!armed) {
        PredictCovarianceInto(phi, &g.p[lane * n * n], q, n, sp1, sp2);
        finite = finite && AllFinite(sp2, n * n);
      }
      deviation = finite ? MaxAbsDeviation(h, sx, z.data(), n, m) : 0.0;
      if (!finite) {
        spill = FleetSpillReason::kNonFinite;
      } else if (deviation > g.delta[lane]) {
        spill = FleetSpillReason::kDeviation;
      } else {
        std::memcpy(&g.x[lane * n], sx, n * sizeof(double));
        if (armed) {
          // (ss_idx + 1) % period without the integer divide: ss_idx is
          // 0 or 1 and period 1 or 2 (ImportFullState enforces both).
          const int32_t next_idx = g.ss_idx[lane] + 1;
          g.ss_idx[lane] = next_idx >= g.ss_period[lane] ? 0 : next_idx;
          // Defer the p <- ss_prior_p[ss_idx] copy: LaneCovariance reads
          // it in place, and the coasting break materializes it.
          g.p_stale[lane] = 1;
        } else {
          std::memcpy(&g.p[lane * n * n], sp2, n * n * sizeof(double));
        }
        ++g.step[lane];
        ++g.psc[lane];
        g.phase[lane] = kPhasePredicted;
      }
    }
    if (spill.has_value()) {
      // The spill swap-removed this lane: the moved lane (if any) now
      // sits at the same index and still needs its tick.
      DKF_RETURN_IF_ERROR(SpillLane(group_index, lane, tick, &z, *spill));
      continue;
    }
    // Suppressed-tick bookkeeping, exactly what ProcessReading accrues on
    // this path: one reading charge, one mirror filter step, one suppress
    // event carrying (deviation, delta), then the heartbeat if one is due.
    g.energy_sensing[lane] += energy_.instructions_per_reading;
    g.readings[lane] += 1;
    g.energy_compute[lane] += energy_.instructions_per_filter_step;
    DKF_TRACE(obs_sink_, tick, g.ids[lane], TraceEventKind::kSuppress,
              TraceActor::kSource, deviation, g.delta[lane]);
    if (HeartbeatDue(protocol_, tick, g.last_send_tick[lane])) {
      DKF_RETURN_IF_ERROR(SendHeartbeat(g, lane, tick));
    }
    ++lane;
  }
  return Status::OK();
}

Result<int> FleetEngine::AbsorbTarget(const TickEntry& entry) {
  auto reject = [this](FleetAbsorbReject reason) {
    ++counters_.absorb_rejects[static_cast<size_t>(reason)];
    return -1;
  };
  const SourceNode& node = **entry.slot;
  // A pending resync or any channel residue (an in-flight message or an
  // uncollected deferred ACK) can still mutate this link asymmetrically.
  if (node.resync_pending()) {
    return reject(FleetAbsorbReject::kResyncPending);
  }
  if (std::binary_search(residual_scratch_.begin(), residual_scratch_.end(),
                         entry.id)) {
    return reject(FleetAbsorbReject::kChannelResidue);
  }
  // The lane's node record keeps none of these; a spill rebuilds them
  // from the prototype's values.
  if (node.resync_attempts() != 0 || node.first_resync_sequence() != 0 ||
      node.smoothing_factor().has_value() ||
      node.smoothing_measurement_variance() !=
          PrototypeFor(entry).smoothing_measurement_variance()) {
    return reject(FleetAbsorbReject::kNodePending);
  }
  const NoiseAdapter& adapter = node.noise_adapter();
  if (adapter.enabled()) {
    // Adaptive links only fold once the servo has locked (the scales
    // stopped moving) AND both ends' servo state is bit-identical —
    // otherwise the next correction would move noise matrices a lane
    // cannot represent, and convergence gating also keeps the number
    // of per-(Q,R) groups bounded by the number of settled regimes.
    DKF_ASSIGN_OR_RETURN(const NoiseAdapter* server_adapter,
                         server_->noise_adapter(entry.id));
    if (!adapter.Converged() || !adapter.StateBitEqual(*server_adapter)) {
      return reject(FleetAbsorbReject::kServoUnsettled);
    }
  }
  // The equivalence contract: fold only when mirror and predictor agree
  // bit for bit on everything a suppressed predict reads (all of it
  // outside tracking mode), compared in place — exporting both full
  // states first would cost more than every other check. What a resync
  // reset on the server end only is kept per end (EndColumns).
  DKF_ASSIGN_OR_RETURN(const Predictor* server_predictor,
                       server_->predictor(entry.id));
  const KalmanFilter* mirror = FilterOf(node.mirror());
  const KalmanFilter* predictor = FilterOf(*server_predictor);
  if (mirror == nullptr || predictor == nullptr) {
    return Status::Unimplemented(
        "predictor does not support full-state export");
  }
  if (!mirror->PredictStateBitEquals(*predictor)) {
    return reject(FleetAbsorbReject::kFullStateMismatch);
  }
  // The lane must also run the group's cached coefficients.
  const Group& nominal = *groups_[entry.nominal_group];
  if (SameNoise(nominal.replay->filter(), *mirror)) {
    return entry.nominal_group;
  }
  // Off the nominal noise. Only the servo moves Q/R on a healthy link;
  // anything else (a reconfigured Q/R) cannot fold.
  if (!adapter.enabled()) {
    return reject(FleetAbsorbReject::kFullStateMismatch);
  }
  // Fold into a group keyed by the adapted (Q, R), whose coefficients
  // are these very bits. The entry keeps its nominal group so spills
  // re-register the nominal model.
  StateModel adapted = nominal.model;
  adapted.options.process_noise = mirror->process_noise();
  adapted.options.measurement_noise = mirror->measurement_noise();
  return GroupFor(adapted);
}

Status FleetEngine::TryAbsorbAll() {
  if (resident_count() == order_.size()) return Status::OK();
  // One channel pass for the whole scan: probing has_residual_for per
  // spilled source walks the in-flight queue each time, which turns a
  // convergence-phase fleet (everything spilled, everything in flight)
  // into a quadratic stall.
  residual_scratch_.clear();
  channel_->AppendResidualSources(&residual_scratch_);
  std::sort(residual_scratch_.begin(), residual_scratch_.end());
  for (size_t i = 0; i < order_.size(); ++i) {
    TickEntry& entry = order_[i];
    if (entry.group >= 0 || entry.nominal_group < 0) continue;
    DKF_ASSIGN_OR_RETURN(int target, AbsorbTarget(entry));
    if (target < 0) continue;
    const SourceNode& node = **entry.slot;
    DKF_ASSIGN_OR_RETURN(SourceNode::CheckpointState state,
                         node.ExportCheckpoint());
    DKF_ASSIGN_OR_RETURN(ServerNode::LinkSnapshot link,
                         server_->ExportLink(entry.id));
    const size_t lane = AddLane(*groups_[target], static_cast<int32_t>(i),
                                state, link, node.noise_adapter());
    DKF_RETURN_IF_ERROR(server_->UnregisterSource(entry.id));
    // The lane is now the only copy of the link.
    entry.slot->reset();
    entry.group = target;
    entry.lane = static_cast<int32_t>(lane);
  }
  return Status::OK();
}

Status FleetEngine::ProcessTick(int64_t tick, const std::vector<Vector>& values,
                                const std::vector<uint32_t>& positions) {
  if (!pending_.empty()) RebuildOrder();
  ResolveReadings(values, positions);
  // Same phase order as RunSourceTick: degraded accounting for the
  // completed tick (lanes here, spilled links inside TickAll), server
  // predicts, channel drain, then the sources — spilled first through the
  // verbatim path, lanes through the flat kernel.
  AccountDegradedLanes();
  DKF_RETURN_IF_ERROR(server_->TickAll());
  DKF_RETURN_IF_ERROR(channel_->BeginTick(tick));
  for (auto& [node, reading] : staged_spilled_) {
    auto step_or = node->ProcessReading(tick, *reading, channel_);
    if (!step_or.ok()) return step_or.status();
  }
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    DKF_RETURN_IF_ERROR(TickGroupLanes(static_cast<int>(gi), tick));
  }
  deliveries_pending_ = false;  // every lane has read and cleared its flags
  return TryAbsorbAll();
}

Vector FleetEngine::Answer(const ResidentSource& source) const {
  const Group& g = *groups_[source.group];
  const size_t lane = static_cast<size_t>(source.lane);
  Vector value(g.m);
  KalmanFilter::PredictedMeasurementInto(g.h.data(), &g.x[lane * g.n], g.n,
                                         g.m, value.data());
  return value;
}

ServerNode::ConfidentAnswer FleetEngine::AnswerWithConfidence(
    const ResidentSource& source) const {
  const Group& g = *groups_[source.group];
  const size_t lane = static_cast<size_t>(source.lane);
  ServerNode::ConfidentAnswer answer;
  answer.value = Answer(source);
  Matrix covariance(g.m, g.m);
  Matrix ph(g.n, g.m);
  KalmanFilter::AnswerCovarianceInto(
      g.h.data(), LaneCovariance(g, lane, kServerEnd), ServerNoise(g, lane),
      g.n, g.m, ph.data(), covariance.data());
  const int64_t overdue = LaneOverdueTicks(g, lane);
  if (overdue > 0) {
    answer.degraded = true;
    InflateDegraded(protocol_, overdue, &covariance);
  }
  answer.covariance = std::move(covariance);
  return answer;
}

double FleetEngine::AnswerScalar(const ResidentSource& source,
                                 double* variance) const {
  const Group& g = *groups_[source.group];
  const size_t lane = static_cast<size_t>(source.lane);
  if (variance != nullptr) {
    *variance = KalmanFilter::AnswerVariance0(
        g.h.data(), LaneCovariance(g, lane, kServerEnd), ServerNoise(g, lane),
        g.n);
    const int64_t overdue = LaneOverdueTicks(g, lane);
    if (overdue > 0) *variance *= DegradedScale(protocol_, overdue);
  }
  double value = 0.0;
  KalmanFilter::PredictedMeasurementInto(g.h.data(), &g.x[lane * g.n], g.n, 1,
                                         &value);
  return value;
}

bool FleetEngine::answer_degraded(const ResidentSource& source) const {
  return LaneOverdueTicks(*groups_[source.group],
                          static_cast<size_t>(source.lane)) > 0;
}

}  // namespace dkf
