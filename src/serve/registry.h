#ifndef HLM_SERVE_REGISTRY_H_
#define HLM_SERVE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/lda.h"

namespace hlm::serve {

/// Snapshot kinds the registry can hold: the two a server loads. String
/// names are the on-disk manifest vocabulary and match each snapshot's
/// `kind` header field. A kind is added together with a consumer that
/// loads it.
enum class ModelKind {
  kLda,
  kRepresentation,
};

const char* ModelKindName(ModelKind kind);
Result<ModelKind> ParseModelKind(const std::string& name);

/// One registry row as reported by List().
struct RegistryEntry {
  std::string name;
  ModelKind kind = ModelKind::kLda;
  std::string path;
  bool loaded = false;
};

/// Maps model names to snapshots and lazily materializes them: train
/// once, snapshot, then serve every later process start from the
/// artifact. Accessors load (and container-verify: header, byte count,
/// checksum) on first use and return a stable pointer afterwards.
/// Loads record hlm.serve.* metrics and trace spans.
///
/// Not thread-safe; confine a registry to one serving thread or guard
/// it externally (the loaded models themselves are immutable and safe
/// to share once returned).
class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;
  ModelRegistry(ModelRegistry&&) noexcept = default;
  ModelRegistry& operator=(ModelRegistry&&) noexcept = default;

  /// Registers a name -> (kind, snapshot path) mapping without loading.
  /// Names and paths must be non-empty and space-free (the manifest is
  /// whitespace-separated); duplicate names are an error.
  Status Register(const std::string& name, ModelKind kind, std::string path);

  /// Reads a manifest written by SaveManifest. Relative snapshot paths
  /// resolve against the manifest's directory, so a snapshot directory
  /// can be moved wholesale.
  static Result<ModelRegistry> FromManifest(const std::string& manifest_path);

  /// Writes the manifest atomically. Registered paths are stored as-is.
  Status SaveManifest(const std::string& manifest_path) const;

  /// All entries, sorted by name.
  std::vector<RegistryEntry> List() const;

  /// Container-level verification of one entry's snapshot: opens the
  /// file, checks header syntax, payload byte count, checksum, and that
  /// the snapshot kind matches the registered kind — without running the
  /// model parser or caching anything.
  Status Verify(const std::string& name) const;

  /// Typed accessors: lazy load on first call, cached pointer after.
  /// Asking for a name under the wrong kind is an InvalidArgument.
  Result<const models::LdaModel*> Lda(const std::string& name);
  Result<const std::vector<std::vector<double>>*> Representation(
      const std::string& name);

  size_t size() const { return entries_.size(); }

  /// Entries whose snapshot has been materialized (what /healthz
  /// reports as models_loaded).
  size_t loaded_count() const { return NumLoaded(); }

  /// Monotone process-wide manifest-load ordinal, stamped by
  /// FromManifest (the Nth manifest loaded in this process has
  /// generation N). 0 for registries built ad hoc via Register. The
  /// latest generation is published as the hlm.serve.registry_generation
  /// gauge plus serve.registry.* meta, so Statusz shows which model set
  /// a process is serving.
  int generation() const { return generation_; }

 private:
  struct Entry {
    ModelKind kind = ModelKind::kLda;
    std::string path;
    // At most one engaged, matching `kind`, null until first access.
    std::unique_ptr<models::LdaModel> lda;
    std::unique_ptr<std::vector<std::vector<double>>> representation;
    bool IsLoaded() const;
  };

  /// Looks up `name` and checks it is registered under `kind`.
  Result<Entry*> Resolve(const std::string& name, ModelKind kind);

  /// Runs one lazy load inside a serve.load trace span, recording the
  /// hlm.serve.* load metrics and the models_loaded gauge.
  Status TimedLoad(const std::string& name, ModelKind kind,
                   const std::function<Status()>& load);

  size_t NumLoaded() const;

  std::map<std::string, Entry> entries_;
  int generation_ = 0;
};

}  // namespace hlm::serve

#endif  // HLM_SERVE_REGISTRY_H_
