#include "common/snapshot.h"

#include <fstream>
#include <utility>

#include "common/atomic_file.h"
#include "common/errors.h"

// Every error return in the container layer is wrapped in
// TrackError("snapshot", ...), so corrupt or mismatched snapshots
// surface as hlm.snapshot.errors.<code>_total counters and error
// events, not just as a Status the caller may swallow. The counting
// sink is installed by the obs layer (common/errors.h inversion);
// without it the Status still reaches the caller.

namespace hlm {

namespace {

constexpr char kMagic[] = "hlm-snapshot";
constexpr int kContainerVersion = 1;

std::string ChecksumString(uint64_t checksum) {
  static const char kHex[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<size_t>(i)] = kHex[checksum & 0xf];
    checksum >>= 4;
  }
  return "fnv1a64:" + hex;
}

/// Reads one '\n'-terminated header line out of `content` starting at
/// `*pos`; false when no newline remains.
bool NextLine(const std::string& content, size_t* pos, std::string* line) {
  size_t end = content.find('\n', *pos);
  if (end == std::string::npos) return false;
  *line = content.substr(*pos, end - *pos);
  *pos = end + 1;
  return true;
}

}  // namespace

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

SnapshotWriter::SnapshotWriter(std::string kind, int kind_version)
    : kind_(std::move(kind)), kind_version_(kind_version) {
  payload_.precision(17);
}

Status SnapshotWriter::CommitToFile(const std::string& path) const {
  const std::string payload = payload_.str();
  AtomicFileWriter writer(path);
  if (!writer.ok()) {
    return TrackError(
        "snapshot",
        Status::Internal("cannot open for write: " + writer.temp_path()));
  }
  writer.stream() << kMagic << ' ' << kContainerVersion << '\n'
                  << "kind " << kind_ << '\n'
                  << "kind_version " << kind_version_ << '\n'
                  << "bytes " << payload.size() << '\n'
                  << "checksum " << ChecksumString(Fnv1a64(payload)) << '\n'
                  << payload;
  return TrackError("snapshot", writer.Commit());
}

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) {
    return TrackError("snapshot",
                           Status::NotFound("cannot open: " + path));
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) {
    return TrackError("snapshot",
                           Status::Internal("read error: " + path));
  }

  size_t pos = 0;
  std::string line;
  if (!NextLine(content, &pos, &line) ||
      line != std::string(kMagic) + " " + std::to_string(kContainerVersion)) {
    return TrackError(
        "snapshot",
        Status::DataLoss("not an hlm-snapshot v" +
                         std::to_string(kContainerVersion) + " file: " +
                         path));
  }

  SnapshotReader reader;
  reader.path_ = path;
  size_t payload_bytes = 0;
  std::string checksum;
  bool have_kind = false, have_version = false, have_bytes = false,
       have_checksum = false;
  while (!have_checksum) {
    if (!NextLine(content, &pos, &line)) {
      return TrackError(
          "snapshot",
          Status::DataLoss("truncated snapshot header: " + path));
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "kind") {
      fields >> reader.kind_;
      have_kind = fields.good() || fields.eof();
      have_kind = have_kind && !reader.kind_.empty();
    } else if (key == "kind_version") {
      fields >> reader.kind_version_;
      have_version = !fields.fail() && reader.kind_version_ > 0;
    } else if (key == "bytes") {
      fields >> payload_bytes;
      have_bytes = !fields.fail();
    } else if (key == "checksum") {
      fields >> checksum;
      have_checksum = !checksum.empty();
    } else {
      return TrackError(
          "snapshot", Status::DataLoss("unknown snapshot header field '" +
                                       key + "': " + path));
    }
  }
  if (!have_kind || !have_version || !have_bytes) {
    return TrackError(
        "snapshot", Status::DataLoss("incomplete snapshot header: " + path));
  }
  if (content.size() - pos < payload_bytes) {
    return TrackError(
        "snapshot",
        Status::DataLoss("truncated snapshot payload (" +
                         std::to_string(content.size() - pos) + " of " +
                         std::to_string(payload_bytes) + " bytes): " + path));
  }
  if (content.size() - pos > payload_bytes) {
    return TrackError(
        "snapshot",
        Status::DataLoss("trailing bytes after snapshot payload: " + path));
  }
  reader.payload_ = content.substr(pos, payload_bytes);
  if (ChecksumString(Fnv1a64(reader.payload_)) != checksum) {
    return TrackError(
        "snapshot", Status::DataLoss("snapshot checksum mismatch: " + path));
  }
  reader.stream_.str(reader.payload_);
  return reader;
}

Status SnapshotReader::ExpectKind(const std::string& kind,
                                  int kind_version) const {
  if (kind_ != kind) {
    return TrackError(
        "snapshot",
        Status::InvalidArgument("snapshot holds kind '" + kind_ +
                                "', expected '" + kind + "': " + path_));
  }
  if (kind_version_ != kind_version) {
    return TrackError(
        "snapshot",
        Status::InvalidArgument("snapshot kind '" + kind_ + "' at version " +
                                std::to_string(kind_version_) +
                                ", expected " +
                                std::to_string(kind_version) + ": " + path_));
  }
  return Status::OK();
}

Status SnapshotReader::CheckShape(size_t rows, size_t cols) const {
  const size_t bytes = payload_.size();
  if (rows > bytes || cols > bytes || (rows != 0 && cols > bytes / rows)) {
    return TrackError(
        "snapshot",
        Status::DataLoss("snapshot shape " + std::to_string(rows) + " x " +
                         std::to_string(cols) + " does not fit its " +
                         std::to_string(bytes) + "-byte payload: " + path_));
  }
  return Status::OK();
}

Status SnapshotReader::Finish() {
  if (stream_.fail()) {
    return TrackError(
        "snapshot", Status::DataLoss("corrupt snapshot payload: " + path_));
  }
  stream_ >> std::ws;
  if (!stream_.eof() && stream_.peek() != EOF) {
    return TrackError(
        "snapshot",
        Status::DataLoss("trailing garbage after snapshot payload: " +
                         path_));
  }
  return Status::OK();
}

}  // namespace hlm
