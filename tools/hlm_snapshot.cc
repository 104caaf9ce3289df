// Snapshot/registry CLI: train-once, serve-many operations on a
// snapshot directory described by a registry manifest.
//
//   hlm_snapshot save   --dir DIR [--companies N] [--seed S]
//       Trains LDA on a generated corpus and writes the snapshot set
//       hlm_serve reads: the LDA model ("lda"), its company topic
//       mixtures ("lda-repr"), and DIR/manifest.txt (paths stored
//       relative, so the directory can be moved wholesale).
//   hlm_snapshot verify --manifest PATH [--name NAME]
//       Container-level check of every (or one named) snapshot: header,
//       payload byte count, checksum, registered kind. No model parse.
//   hlm_snapshot ls     --manifest PATH
//       Lists registry entries.
//   hlm_snapshot load   --manifest PATH [--name NAME]
//       Fully loads every (or one named) model through the registry,
//       exercising the same code path a serving process uses.
//
// Exit status is non-zero when any requested operation fails, so
// scripts/tier1.sh can gate on `hlm_snapshot verify`.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "corpus/generator.h"
#include "models/lda.h"
#include "repr/representation.h"
#include "serve/registry.h"

namespace {

using hlm::Result;
using hlm::Status;

struct SaveOptions {
  std::string dir;
  long long companies = 300;
  long long seed = 7;
};

Status RunSave(const SaveOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot directory '" +
                            options.dir + "': " + ec.message());
  }
  const std::string dir = options.dir + "/";

  std::printf("generating corpus: %lld companies (seed %lld)\n",
              options.companies, options.seed);
  hlm::corpus::GeneratedCorpus world = hlm::corpus::GenerateDefaultCorpus(
      static_cast<int>(options.companies),
      static_cast<uint64_t>(options.seed));
  const hlm::corpus::Corpus& corpus = world.corpus;
  const std::vector<hlm::models::TokenSequence> sequences =
      corpus.Sequences();
  const int vocab = corpus.num_categories();

  // Register bare file names; FromManifest re-anchors them to the
  // manifest's directory at load time.
  hlm::serve::ModelRegistry registry;

  std::printf("training lda...\n");
  hlm::models::LdaConfig lda_config;
  lda_config.num_topics = 4;
  hlm::models::LdaModel lda(vocab, lda_config);
  HLM_RETURN_IF_ERROR(lda.Train(sequences));
  HLM_RETURN_IF_ERROR(lda.SaveToFile(dir + "lda.snap"));
  HLM_RETURN_IF_ERROR(
      registry.Register("lda", hlm::serve::ModelKind::kLda, "lda.snap"));

  std::printf("building lda representation...\n");
  HLM_RETURN_IF_ERROR(hlm::repr::SaveRepresentation(
      hlm::repr::LdaRepresentation(lda, corpus), dir + "lda_repr.snap"));
  HLM_RETURN_IF_ERROR(registry.Register(
      "lda-repr", hlm::serve::ModelKind::kRepresentation, "lda_repr.snap"));

  const std::string manifest = dir + "manifest.txt";
  HLM_RETURN_IF_ERROR(registry.SaveManifest(manifest));
  std::printf("wrote %zu snapshots + %s\n", registry.size(),
              manifest.c_str());
  return Status::OK();
}

/// Entries to operate on: all of them, or just --name.
Result<std::vector<hlm::serve::RegistryEntry>> SelectEntries(
    const hlm::serve::ModelRegistry& registry, const std::string& name) {
  std::vector<hlm::serve::RegistryEntry> entries = registry.List();
  if (name.empty()) return entries;
  for (const hlm::serve::RegistryEntry& entry : entries) {
    if (entry.name == name) {
      return std::vector<hlm::serve::RegistryEntry>{entry};
    }
  }
  return Status::NotFound("model not registered: " + name);
}

Status RunVerify(const std::string& manifest, const std::string& name) {
  HLM_ASSIGN_OR_RETURN(hlm::serve::ModelRegistry registry,
                       hlm::serve::ModelRegistry::FromManifest(manifest));
  HLM_ASSIGN_OR_RETURN(auto entries, SelectEntries(registry, name));
  Status failure = Status::OK();
  for (const hlm::serve::RegistryEntry& entry : entries) {
    Status status = registry.Verify(entry.name);
    std::printf("%-12s %-8s %s  %s\n", entry.name.c_str(),
                hlm::serve::ModelKindName(entry.kind),
                status.ok() ? "OK  " : "FAIL", entry.path.c_str());
    if (!status.ok()) {
      std::printf("    %s\n", status.ToString().c_str());
      failure = status;
    }
  }
  return failure;
}

Status RunLs(const std::string& manifest) {
  HLM_ASSIGN_OR_RETURN(hlm::serve::ModelRegistry registry,
                       hlm::serve::ModelRegistry::FromManifest(manifest));
  for (const hlm::serve::RegistryEntry& entry : registry.List()) {
    std::printf("%-12s %-8s %s\n", entry.name.c_str(),
                hlm::serve::ModelKindName(entry.kind), entry.path.c_str());
  }
  return Status::OK();
}

/// Full load of one entry through the registry's typed accessors.
Status LoadEntry(hlm::serve::ModelRegistry& registry,
                 const hlm::serve::RegistryEntry& entry) {
  switch (entry.kind) {
    case hlm::serve::ModelKind::kLda:
      return registry.Lda(entry.name).status();
    case hlm::serve::ModelKind::kRepresentation:
      return registry.Representation(entry.name).status();
  }
  return Status::Internal("unhandled model kind");
}

Status RunLoad(const std::string& manifest, const std::string& name) {
  HLM_ASSIGN_OR_RETURN(hlm::serve::ModelRegistry registry,
                       hlm::serve::ModelRegistry::FromManifest(manifest));
  HLM_ASSIGN_OR_RETURN(auto entries, SelectEntries(registry, name));
  Status failure = Status::OK();
  for (const hlm::serve::RegistryEntry& entry : entries) {
    Status status = LoadEntry(registry, entry);
    std::printf("%-12s %-8s %s\n", entry.name.c_str(),
                hlm::serve::ModelKindName(entry.kind),
                status.ok() ? "loaded" : status.ToString().c_str());
    if (!status.ok()) failure = status;
  }
  return failure;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hlm_snapshot save   --dir DIR [--companies N] "
               "[--seed S]\n"
               "       hlm_snapshot verify --manifest PATH [--name NAME]\n"
               "       hlm_snapshot ls     --manifest PATH\n"
               "       hlm_snapshot load   --manifest PATH [--name NAME]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  SaveOptions save_options;
  std::string manifest;
  std::string name;

  hlm::FlagSet flags;
  flags.AddString("dir", &save_options.dir, "snapshot output directory");
  flags.AddInt64("companies", &save_options.companies,
                 "corpus size for save");
  flags.AddInt64("seed", &save_options.seed, "corpus seed for save");
  flags.AddString("manifest", &manifest, "registry manifest path");
  flags.AddString("name", &name, "restrict to one registry entry");
  Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  Status status = Status::OK();
  if (command == "save") {
    if (save_options.dir.empty()) return Usage();
    status = RunSave(save_options);
  } else if (command == "verify") {
    if (manifest.empty()) return Usage();
    status = RunVerify(manifest, name);
  } else if (command == "ls") {
    if (manifest.empty()) return Usage();
    status = RunLs(manifest);
  } else if (command == "load") {
    if (manifest.empty()) return Usage();
    status = RunLoad(manifest, name);
  } else {
    return Usage();
  }

  if (!status.ok()) {
    std::fprintf(stderr, "hlm_snapshot %s: %s\n", command.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
