#include "dsms/tick_step.h"

#include "common/string_util.h"

namespace dkf {

Status RunSourceTick(int64_t tick, ServerNode& server,
                     const std::vector<SourceStep>& steps, Channel& channel) {
  // Server-side prediction step for every stream, then the channel's
  // in-flight (delayed) messages due this tick, then the sources — so a
  // message delayed d ticks reaches the server after it has ticked past
  // the send tick, and its deferred ACK is visible to the sender when it
  // processes this tick's reading.
  DKF_RETURN_IF_ERROR(server.TickAll());
  DKF_RETURN_IF_ERROR(channel.BeginTick(tick));
  for (const auto& [node, reading] : steps) {
    auto step_or = node->ProcessReading(tick, *reading, &channel);
    if (!step_or.ok()) return step_or.status();
  }
  return Status::OK();
}

Status RunSourceTick(int64_t tick, ServerNode& server,
                     std::map<int, std::unique_ptr<SourceNode>>& sources,
                     const std::map<int, Vector>& readings,
                     Channel& channel) {
  // Resolve every reading up front so a malformed batch is rejected
  // before any filter state moves (a half-ticked link set would break
  // mirror consistency). The staging vector is thread-local so repeated
  // calls reuse its capacity.
  static thread_local std::vector<SourceStep> steps;
  steps.clear();
  steps.reserve(sources.size());
  for (auto& [id, node] : sources) {
    auto it = readings.find(id);
    if (it == readings.end()) {
      return Status::InvalidArgument(
          StrFormat("missing reading for source %d", id));
    }
    steps.emplace_back(node.get(), &it->second);
  }
  return RunSourceTick(tick, server, steps, channel);
}

EffectiveConfig ResolveEffectiveConfig(const QueryRegistry& registry,
                                       double default_delta, int source_id) {
  EffectiveConfig config;
  auto delta_or = registry.EffectiveDelta(source_id);
  config.delta = delta_or.ok() ? delta_or.value() : default_delta;
  auto smoothing_or = registry.EffectiveSmoothing(source_id);
  if (smoothing_or.ok()) config.smoothing = smoothing_or.value();
  return config;
}

}  // namespace dkf
