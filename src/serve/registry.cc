#include "serve/registry.h"

#include <atomic>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/snapshot.h"
#include "common/string_util.h"
#include "obs/errors.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repr/representation.h"

namespace hlm::serve {

namespace {

constexpr char kManifestMagic[] = "hlm-registry";
constexpr int kManifestVersion = 1;

// Process-wide manifest-load ordinal behind ModelRegistry::generation().
std::atomic<int> g_registry_generation{0};

/// Directory prefix of `path` including the trailing '/', or "" when
/// the path has no directory component.
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

bool HasWhitespace(const std::string& s) {
  return s.find_first_of(" \t\n\r") != std::string::npos;
}

}  // namespace

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLda:
      return "lda";
    case ModelKind::kRepresentation:
      return "repr";
  }
  return "unknown";
}

Result<ModelKind> ParseModelKind(const std::string& name) {
  for (ModelKind kind : {ModelKind::kLda, ModelKind::kRepresentation}) {
    if (name == ModelKindName(kind)) return kind;
  }
  return obs::TrackError(
      "serve", Status::InvalidArgument("unknown model kind: " + name));
}

bool ModelRegistry::Entry::IsLoaded() const {
  return lda != nullptr || representation != nullptr;
}

Status ModelRegistry::Register(const std::string& name, ModelKind kind,
                               std::string path) {
  if (name.empty() || HasWhitespace(name)) {
    return obs::TrackError(
        "serve", Status::InvalidArgument("model name must be non-empty and "
                                         "space-free: '" + name + "'"));
  }
  if (path.empty() || HasWhitespace(path)) {
    return obs::TrackError(
        "serve", Status::InvalidArgument("snapshot path must be non-empty "
                                         "and space-free: '" + path + "'"));
  }
  auto [it, inserted] = entries_.try_emplace(name);
  if (!inserted) {
    return obs::TrackError(
        "serve", Status::AlreadyExists("model already registered: " + name));
  }
  it->second.kind = kind;
  it->second.path = std::move(path);
  return Status::OK();
}

Result<ModelRegistry> ModelRegistry::FromManifest(
    const std::string& manifest_path) {
  std::ifstream in(manifest_path);
  if (!in) {
    return obs::TrackError(
        "serve", Status::NotFound("cannot open manifest: " + manifest_path));
  }
  std::string header;
  std::getline(in, header);
  {
    std::istringstream header_in(header);
    std::string magic, extra;
    int version = 0;
    if (!(header_in >> magic >> version) || (header_in >> extra) ||
        magic != kManifestMagic || version != kManifestVersion) {
      return obs::TrackError(
          "serve", Status::DataLoss("not an hlm-registry v" +
                                    std::to_string(kManifestVersion) +
                                    " manifest: " + manifest_path));
    }
  }
  const std::string dir = DirName(manifest_path);
  ModelRegistry registry;
  // Line-by-line parse: every record line must carry exactly the three
  // `name kind path` fields. A stream-level `in >> a >> b >> c` loop
  // would set fail+eof together on a final partial record ("name kind"
  // with no path) and load "successfully" while silently dropping the
  // entry — the truncated-manifest bug.
  std::string line;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;  // trailing newline only
    std::istringstream row(line);
    std::string name, kind_name, path, extra;
    if (!(row >> name >> kind_name >> path) || (row >> extra)) {
      return obs::TrackError(
          "serve",
          Status::DataLoss("corrupt manifest entry at line " +
                           std::to_string(line_number) + " ('" + line +
                           "'): " + manifest_path));
    }
    Result<ModelKind> kind = ParseModelKind(kind_name);
    if (!kind.ok()) {
      // ParseModelKind has already counted the error; say where it is.
      return Status::InvalidArgument(kind.status().message() + " at line " +
                                     std::to_string(line_number) + ": " +
                                     manifest_path);
    }
    if (path[0] != '/') path = dir + path;
    HLM_RETURN_IF_ERROR(registry.Register(name, *kind, std::move(path)));
  }
  if (in.bad()) {
    return obs::TrackError(
        "serve", Status::DataLoss("read error: " + manifest_path));
  }

  // Stamp and publish the generation, so Statusz (and any metrics
  // snapshot) shows which model set this process is serving.
  registry.generation_ =
      g_registry_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("hlm.serve.registry_generation")
      ->Set(static_cast<double>(registry.generation_));
  metrics.SetMeta("serve.registry.generation",
                  std::to_string(registry.generation_));
  metrics.SetMeta("serve.registry.manifest", manifest_path);
  std::string models;
  for (const auto& [entry_name, entry] : registry.entries_) {
    if (!models.empty()) models += ",";
    models += entry_name + ":" + ModelKindName(entry.kind);
  }
  metrics.SetMeta("serve.registry.models", models);
  HLM_EVENT("serve.registry.loaded",
            {{"manifest", manifest_path},
             {"models", static_cast<long long>(registry.size())},
             {"generation", registry.generation_}});
  return registry;
}

Status ModelRegistry::SaveManifest(const std::string& manifest_path) const {
  AtomicFileWriter writer(manifest_path);
  if (!writer.ok()) {
    return obs::TrackError(
        "serve",
        Status::Internal("cannot open for write: " + writer.temp_path()));
  }
  writer.stream() << kManifestMagic << ' ' << kManifestVersion << '\n';
  for (const auto& [name, entry] : entries_) {
    writer.stream() << name << ' ' << ModelKindName(entry.kind) << ' '
                    << entry.path << '\n';
  }
  return obs::TrackError("serve", writer.Commit());
}

std::vector<RegistryEntry> ModelRegistry::List() const {
  std::vector<RegistryEntry> rows;
  rows.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    rows.push_back(
        RegistryEntry{name, entry.kind, entry.path, entry.IsLoaded()});
  }
  return rows;
}

Status ModelRegistry::Verify(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return obs::TrackError(
        "serve", Status::NotFound("model not registered: " + name));
  }
  obs::MetricsRegistry::Global()
      .GetCounter("hlm.serve.verify_total")
      ->Increment();
  // Verify walks the whole payload (checksum); its latency distribution
  // matters for startup gating just like the load path's.
  obs::ScopedTimer timer(obs::MetricsRegistry::Global().GetHistogram(
      "hlm.serve.verify_seconds"));
  HLM_ASSIGN_OR_RETURN(SnapshotReader reader,
                       SnapshotReader::Open(it->second.path));
  if (reader.kind() != ModelKindName(it->second.kind)) {
    return obs::TrackError(
        "serve",
        Status::InvalidArgument(
            "snapshot kind '" + reader.kind() + "' does not match "
            "registered kind '" + ModelKindName(it->second.kind) + "': " +
            it->second.path));
  }
  return Status::OK();
}

Result<ModelRegistry::Entry*> ModelRegistry::Resolve(const std::string& name,
                                                     ModelKind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return obs::TrackError(
        "serve", Status::NotFound("model not registered: " + name));
  }
  if (it->second.kind != kind) {
    return obs::TrackError(
        "serve", Status::InvalidArgument(
                     "model '" + name + "' is registered as kind '" +
                     ModelKindName(it->second.kind) + "', requested '" +
                     ModelKindName(kind) + "'"));
  }
  return &it->second;
}

size_t ModelRegistry::NumLoaded() const {
  size_t loaded = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.IsLoaded()) ++loaded;
  }
  return loaded;
}

Status ModelRegistry::TimedLoad(const std::string& name, ModelKind kind,
                                const std::function<Status()>& load) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("hlm.serve.loads_total")->Increment();
  Status status;
  {
    obs::TraceSpan span(std::string("serve.load.") + ModelKindName(kind),
                        metrics.GetHistogram("hlm.serve.load_seconds"));
    status = load();
  }
  if (!status.ok()) {
    metrics.GetCounter("hlm.serve.load_errors_total")->Increment();
    // Model-parser failures originate outside serve/ (models/, repr/);
    // tracking the boundary here gives every failed load a serve-area
    // error count and event regardless of origin.
    return obs::TrackError("serve", std::move(status));
  }
  metrics.GetGauge("hlm.serve.models_loaded")
      ->Set(static_cast<double>(NumLoaded()));
  HLM_EVENT("serve.model.loaded",
            {{"name", name}, {"kind", ModelKindName(kind)}});
  HLM_LOG(Info) << "serve: loaded " << ModelKindName(kind) << " model '"
                << name << "' from snapshot";
  return status;
}

Result<const models::LdaModel*> ModelRegistry::Lda(const std::string& name) {
  HLM_ASSIGN_OR_RETURN(Entry* entry, Resolve(name, ModelKind::kLda));
  if (entry->lda == nullptr) {
    HLM_RETURN_IF_ERROR(TimedLoad(name, entry->kind, [entry]() -> Status {
      HLM_ASSIGN_OR_RETURN(models::LdaModel model,
                           models::LdaModel::LoadFromFile(entry->path));
      entry->lda = std::make_unique<models::LdaModel>(std::move(model));
      return Status::OK();
    }));
  }
  return static_cast<const models::LdaModel*>(entry->lda.get());
}

Result<const std::vector<std::vector<double>>*> ModelRegistry::Representation(
    const std::string& name) {
  HLM_ASSIGN_OR_RETURN(Entry* entry,
                       Resolve(name, ModelKind::kRepresentation));
  if (entry->representation == nullptr) {
    HLM_RETURN_IF_ERROR(TimedLoad(name, entry->kind, [entry]() -> Status {
      HLM_ASSIGN_OR_RETURN(std::vector<std::vector<double>> rows,
                           repr::LoadRepresentation(entry->path));
      entry->representation =
          std::make_unique<std::vector<std::vector<double>>>(std::move(rows));
      return Status::OK();
    }));
  }
  return static_cast<const std::vector<std::vector<double>>*>(
      entry->representation.get());
}

}  // namespace hlm::serve
