#ifndef HLM_COMMON_SNAPSHOT_H_
#define HLM_COMMON_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/status.h"

namespace hlm {

/// Versioned, self-describing container every model snapshot shares.
/// Layout (text header, byte-exact payload):
///
///   hlm-snapshot 1
///   kind <kind>
///   kind_version <int>
///   bytes <payload size in bytes>
///   checksum fnv1a64:<16 hex digits over the payload>
///   <payload, exactly `bytes` bytes; file ends here>
///
/// The container layer rejects wrong magic/version, corrupt headers,
/// checksum mismatches, truncated payloads, and trailing bytes after the
/// payload — so a torn or doctored file fails with a clear Status before
/// any model parser runs. Within the payload, model parsers call
/// Finish() to reject well-formed-prefix files with unread garbage.

/// FNV-1a 64-bit checksum of a byte string.
uint64_t Fnv1a64(const std::string& bytes);

/// Accumulates a payload in memory, then commits header + payload to
/// disk atomically (AtomicFileWriter: temp file + rename; an interrupted
/// save never corrupts an existing snapshot).
class SnapshotWriter {
 public:
  SnapshotWriter(std::string kind, int kind_version);

  /// Payload stream; doubles round-trip losslessly (precision 17).
  std::ostream& payload() { return payload_; }

  /// Writes the container to `path` atomically.
  Status CommitToFile(const std::string& path) const;

 private:
  std::string kind_;
  int kind_version_;
  std::ostringstream payload_;
};

/// Opens and validates a snapshot container: header syntax, payload
/// byte count, checksum, and absence of trailing bytes are all checked
/// in Open. Model parsers then read from payload().
class SnapshotReader {
 public:
  static Result<SnapshotReader> Open(const std::string& path);

  const std::string& kind() const { return kind_; }
  int kind_version() const { return kind_version_; }

  /// Error unless the snapshot carries `kind` at `kind_version`.
  Status ExpectKind(const std::string& kind, int kind_version) const;

  std::istream& payload() { return stream_; }

  /// DataLoss unless a `rows` x `cols` block of text values parsed from
  /// the payload can fit in it: every value takes at least one byte, and
  /// so does every row (its newline), so neither count nor their product
  /// may exceed the payload's byte count. Overflow-safe; loaders call it
  /// on parsed counts before allocating from them.
  Status CheckShape(size_t rows, size_t cols) const;

  /// Call after parsing: the payload must be fully consumed (only
  /// trailing whitespace allowed) and the stream must not have failed.
  /// Rejects snapshots whose payload is a well-formed prefix followed
  /// by garbage the parser never read.
  Status Finish();

 private:
  SnapshotReader() = default;

  std::string path_;
  std::string kind_;
  int kind_version_ = 0;
  std::string payload_;
  std::istringstream stream_;
};

}  // namespace hlm

#endif  // HLM_COMMON_SNAPSHOT_H_
