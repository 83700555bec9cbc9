#ifndef DKF_CHECKPOINT_SNAPSHOT_IO_H_
#define DKF_CHECKPOINT_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>

#include "checkpoint/snapshot.h"
#include "common/result.h"

namespace dkf {

/// Binary snapshot codec (wire format in docs/checkpoint.md).
///
/// File = 8-byte magic "DKFSNAP1" + u32 version + u64 FNV-1a-64 checksum
/// of the payload + u64 payload length + payload, all little-endian.
/// There is one format version, kSnapshotVersion; a file stamped with
/// any other is refused. Doubles travel as raw IEEE-754 bits, so
/// corrupted in-flight payloads round-trip bit-exactly; model recipes
/// and filter states are finite-checked on both paths (shared with the
/// synopsis codec via core/synopsis_io.h) so a damaged file can never
/// smuggle a non-finite value into a running filter.
///
/// Error taxonomy: wrong magic / any version but kSnapshotVersion /
/// checksum / trailing garbage -> InvalidArgument; truncation ->
/// OutOfRange; missing file -> NotFound; a model with a time-varying
/// transition_fn -> Unimplemented (arbitrary functions do not serialize
/// — same rule as SaveSynopsis).

inline constexpr char kSnapshotMagic[] = "DKFSNAP1";  // 8 bytes on the wire
/// The only format this build reads or writes. Any change to the
/// payload layout bumps it, and files of every other version are
/// rejected.
inline constexpr uint32_t kSnapshotVersion = 5;

/// Serializes a snapshot to the full file image (header + payload).
Result<std::string> EncodeSnapshot(const EngineSnapshot& snapshot);

/// Parses and validates a full file image.
Result<EngineSnapshot> DecodeSnapshot(const std::string& bytes);

/// Encode + atomic write (via a .tmp rename, see common/binary_io.h).
Status SaveSnapshotFile(const EngineSnapshot& snapshot,
                        const std::string& path);

/// Read + decode.
Result<EngineSnapshot> LoadSnapshotFile(const std::string& path);

}  // namespace dkf

#endif  // DKF_CHECKPOINT_SNAPSHOT_IO_H_
