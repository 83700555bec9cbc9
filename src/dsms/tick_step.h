#ifndef DKF_DSMS_TICK_STEP_H_
#define DKF_DSMS_TICK_STEP_H_

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dsms/channel.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "query/registry.h"

namespace dkf {

/// One source's input to a protocol tick: its node and this tick's
/// reading.
using SourceStep = std::pair<SourceNode*, const Vector*>;

/// The protocol tick over one set of dual links, as every shard of the
/// engine (src/runtime/) drives it: the server side predicts every
/// stream, then each source processes its reading, suppressing or
/// transmitting through `channel`.
///
/// `steps` holds every source of `server` in ascending id order with its
/// reading, already resolved by the caller — a shard resolves its slice
/// of the tick batch once per batch layout, so a tick does no lookups.
Status RunSourceTick(int64_t tick, ServerNode& server,
                     const std::vector<SourceStep>& steps, Channel& channel);

/// The id-keyed form: resolves `readings` for every node in `sources`
/// (extras are ignored; a missing reading is an error raised before any
/// filter state moves), then runs the tick above.
Status RunSourceTick(int64_t tick, ServerNode& server,
                     std::map<int, std::unique_ptr<SourceNode>>& sources,
                     const std::map<int, Vector>& readings,
                     Channel& channel);

/// The registry's current effective delta (`default_delta` when no query
/// sets one) and KF_c smoothing factor for `source_id` — the body of a
/// reconfiguration control message. The shard installs them, skipping
/// what its node already has so an unrelated reconfiguration neither
/// restarts the smoother nor sends a control message.
struct EffectiveConfig {
  double delta = 0.0;
  std::optional<double> smoothing;
};
EffectiveConfig ResolveEffectiveConfig(const QueryRegistry& registry,
                                       double default_delta, int source_id);

}  // namespace dkf

#endif  // DKF_DSMS_TICK_STEP_H_
