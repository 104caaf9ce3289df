#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/snapshot.h"
#include "corpus/generator.h"
#include "models/lda.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "repr/representation.h"
#include "serve/registry.h"

namespace hlm::serve {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// ---------------------------------------------------------------------
// AtomicFileWriter

TEST(AtomicFileWriterTest, CommitReplacesTargetAtomically) {
  std::string path = TempPath("atomic_commit.txt");
  WriteAll(path, "old contents");
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.stream() << "new contents";
    // Until Commit, the target still holds the old snapshot.
    EXPECT_EQ(ReadAll(path), "old contents");
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(ReadAll(path), "new contents");
  std::remove(path.c_str());
}

TEST(AtomicFileWriterTest, AbortedWriteLeavesOldFileIntact) {
  std::string path = TempPath("atomic_abort.txt");
  WriteAll(path, "precious");
  std::string temp_path;
  {
    // Mid-write failure: writer dies without Commit (crash stand-in).
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.ok());
    temp_path = writer.temp_path();
    writer.stream() << "half-writ";
  }
  EXPECT_EQ(ReadAll(path), "precious");
  // The temp file was cleaned up, not leaked.
  std::ifstream leftover(temp_path);
  EXPECT_FALSE(leftover.good());
  std::remove(path.c_str());
}

TEST(AtomicFileWriterTest, DoubleCommitFails) {
  std::string path = TempPath("atomic_double.txt");
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.ok());
  writer.stream() << "x";
  EXPECT_TRUE(writer.Commit().ok());
  EXPECT_FALSE(writer.Commit().ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Snapshot container

TEST(SnapshotTest, RoundTripPreservesPayloadAndKind) {
  std::string path = TempPath("snap_roundtrip.snap");
  SnapshotWriter writer("demo", 3);
  writer.payload() << "42 hello\n";
  ASSERT_TRUE(writer.CommitToFile(path).ok());

  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->kind(), "demo");
  EXPECT_EQ(reader->kind_version(), 3);
  EXPECT_TRUE(reader->ExpectKind("demo", 3).ok());
  EXPECT_FALSE(reader->ExpectKind("demo", 4).ok());
  EXPECT_FALSE(reader->ExpectKind("other", 3).ok());
  int value = 0;
  std::string word;
  reader->payload() >> value >> word;
  EXPECT_EQ(value, 42);
  EXPECT_EQ(word, "hello");
  EXPECT_TRUE(reader->Finish().ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsWrongMagicTruncationChecksumAndTrailingBytes) {
  std::string path = TempPath("snap_corrupt.snap");
  SnapshotWriter writer("demo", 1);
  writer.payload() << "payload data\n";
  ASSERT_TRUE(writer.CommitToFile(path).ok());
  const std::string good = ReadAll(path);

  // Wrong magic.
  WriteAll(path, "hlm-other 1\n" + good.substr(good.find('\n') + 1));
  EXPECT_FALSE(SnapshotReader::Open(path).ok());

  // Truncated payload.
  WriteAll(path, good.substr(0, good.size() - 4));
  auto truncated = SnapshotReader::Open(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated"),
            std::string::npos);

  // Trailing bytes after the payload.
  WriteAll(path, good + "junk");
  auto trailing = SnapshotReader::Open(path);
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing"),
            std::string::npos);

  // Flipped payload byte: checksum mismatch.
  std::string flipped = good;
  flipped[flipped.size() - 2] ^= 0x20;
  WriteAll(path, flipped);
  auto corrupted = SnapshotReader::Open(path);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_NE(corrupted.status().message().find("checksum"),
            std::string::npos);

  std::remove(path.c_str());
}

TEST(SnapshotTest, FinishRejectsUnreadPayloadGarbage) {
  std::string path = TempPath("snap_garbage.snap");
  SnapshotWriter writer("demo", 1);
  writer.payload() << "1 2 3\nunexpected trailing garbage\n";
  ASSERT_TRUE(writer.CommitToFile(path).ok());

  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());  // container itself is intact
  int a = 0, b = 0, c = 0;
  reader->payload() >> a >> b >> c;
  Status finish = reader->Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_NE(finish.message().find("trailing garbage"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotTest, Fnv1a64MatchesReferenceVectors) {
  // Reference values for the 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ---------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistryTest, RegisterValidatesNamesAndRejectsDuplicates) {
  ModelRegistry registry;
  EXPECT_TRUE(registry.Register("lda", ModelKind::kLda, "lda.snap").ok());
  EXPECT_FALSE(registry.Register("lda", ModelKind::kLda, "x.snap").ok());
  EXPECT_FALSE(registry.Register("", ModelKind::kLda, "x.snap").ok());
  EXPECT_FALSE(registry.Register("bad name", ModelKind::kLda, "x.snap").ok());
  EXPECT_FALSE(registry.Register("ok", ModelKind::kLda, "bad path").ok());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistryTest, ManifestRoundTripResolvesRelativePaths) {
  std::string manifest = TempPath("registry_manifest.txt");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("a", ModelKind::kLda, "a.snap").ok());
  ASSERT_TRUE(
      registry.Register("b", ModelKind::kRepresentation, "/abs/b.snap").ok());
  ASSERT_TRUE(registry.SaveManifest(manifest).ok());

  auto restored = ModelRegistry::FromManifest(manifest);
  ASSERT_TRUE(restored.ok());
  std::vector<RegistryEntry> entries = restored->List();
  ASSERT_EQ(entries.size(), 2u);
  // Relative paths re-anchor to the manifest's directory; absolute stay.
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[0].path, ::testing::TempDir() + "/a.snap");
  EXPECT_EQ(entries[1].path, "/abs/b.snap");
  EXPECT_FALSE(entries[0].loaded);
  std::remove(manifest.c_str());
}

TEST(ModelRegistryTest, FromManifestRejectsCorruptManifests) {
  EXPECT_FALSE(ModelRegistry::FromManifest("/nonexistent").ok());
  std::string manifest = TempPath("bad_manifest.txt");
  WriteAll(manifest, "not-a-registry 1\n");
  EXPECT_FALSE(ModelRegistry::FromManifest(manifest).ok());
  WriteAll(manifest, "hlm-registry 1\nname unknown-kind path\n");
  EXPECT_FALSE(ModelRegistry::FromManifest(manifest).ok());
  std::remove(manifest.c_str());
}

/// Trains a small LDA model on a generated corpus.
models::LdaModel TrainSmallLda(int companies, uint64_t seed) {
  auto world = corpus::GenerateDefaultCorpus(companies, seed);
  models::LdaConfig config;
  config.num_topics = 3;
  config.burn_in_iterations = 20;
  config.post_burn_in_samples = 4;
  models::LdaModel lda(world.corpus.num_categories(), config);
  EXPECT_TRUE(lda.Train(world.corpus.Sequences()).ok());
  return lda;
}

TEST(ModelRegistryTest, LazyLoadVerifyAndKindMismatch) {
  obs::MetricsRegistry::Global().Reset();
  // Real snapshots: a trained LDA model and a representation matrix.
  models::LdaModel lda = TrainSmallLda(80, 11);
  std::string lda_path = TempPath("registry_lda.snap");
  ASSERT_TRUE(lda.SaveToFile(lda_path).ok());

  std::string repr_path = TempPath("registry_repr.snap");
  std::vector<std::vector<double>> rows = {{1.0, 2.0}, {3.0, 4.0}};
  ASSERT_TRUE(repr::SaveRepresentation(rows, repr_path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("lda", ModelKind::kLda, lda_path).ok());
  ASSERT_TRUE(
      registry.Register("repr", ModelKind::kRepresentation, repr_path).ok());

  // Verify is container-level and does not load.
  EXPECT_TRUE(registry.Verify("lda").ok());
  EXPECT_FALSE(registry.Verify("missing").ok());
  EXPECT_FALSE(registry.List()[0].loaded);

  // Wrong-kind access fails without touching the file.
  EXPECT_FALSE(registry.Representation("lda").ok());
  EXPECT_FALSE(registry.Lda("missing").ok());

  // Lazy load: first access parses, second returns the same pointer.
  auto first = registry.Lda("lda");
  ASSERT_TRUE(first.ok());
  auto second = registry.Lda("lda");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ((*first)->NextProductDistribution({0}),
            lda.NextProductDistribution({0}));

  auto loaded_rows = registry.Representation("repr");
  ASSERT_TRUE(loaded_rows.ok());
  EXPECT_EQ(**loaded_rows, rows);

  // hlm.serve.* metrics recorded the two loads.
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counters.at("hlm.serve.loads_total"), 2);
  EXPECT_EQ(snapshot.gauges.at("hlm.serve.models_loaded"), 2.0);

  // A registered-as-wrong-kind snapshot fails Verify with a kind error.
  ModelRegistry mislabeled;
  ASSERT_TRUE(
      mislabeled.Register("x", ModelKind::kRepresentation, lda_path).ok());
  Status verify = mislabeled.Verify("x");
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find("kind"), std::string::npos);

  std::remove(lda_path.c_str());
  std::remove(repr_path.c_str());
}

TEST(ModelRegistryTest, LoadErrorsAreCountedAndReported) {
  obs::MetricsRegistry::Global().Reset();
  std::string path = TempPath("registry_broken.snap");
  WriteAll(path, "broken");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("bad", ModelKind::kLda, path).ok());
  EXPECT_FALSE(registry.Verify("bad").ok());
  EXPECT_FALSE(registry.Lda("bad").ok());
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counters.at("hlm.serve.load_errors_total"), 1);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, FromManifestStampsGenerationAndMeta) {
  obs::MetricsRegistry::Global().Reset();
  std::string path = TempPath("gen_lda.snap");
  ASSERT_TRUE(TrainSmallLda(60, 17).SaveToFile(path).ok());

  ModelRegistry ad_hoc;
  ASSERT_TRUE(ad_hoc.Register("lda", ModelKind::kLda, path).ok());
  EXPECT_EQ(ad_hoc.generation(), 0) << "ad-hoc registries carry no gen";
  std::string manifest = TempPath("gen_manifest.txt");
  ASSERT_TRUE(ad_hoc.SaveManifest(manifest).ok());

  auto first = ModelRegistry::FromManifest(manifest);
  ASSERT_TRUE(first.ok());
  auto second = ModelRegistry::FromManifest(manifest);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->generation(), 0);
  EXPECT_EQ(second->generation(), first->generation() + 1)
      << "each manifest load advances the process-wide ordinal";

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.gauges.at("hlm.serve.registry_generation"),
            static_cast<double>(second->generation()));
  EXPECT_EQ(snapshot.meta.at("serve.registry.generation"),
            std::to_string(second->generation()));
  EXPECT_EQ(snapshot.meta.at("serve.registry.models"), "lda:lda");

  std::remove(path.c_str());
  std::remove(manifest.c_str());
}

TEST(ModelRegistryTest, ErrorsIncrementPerCodeCountersAndEmitEvents) {
  obs::MetricsRegistry::Global().Reset();
  obs::EventLog::Global().Clear();
  ModelRegistry registry;
  // Duplicate registration -> already_exists; missing name -> not_found.
  ASSERT_TRUE(registry.Register("m", ModelKind::kLda, "/tmp/x.snap").ok());
  EXPECT_FALSE(registry.Register("m", ModelKind::kLda, "/tmp/y.snap").ok());
  EXPECT_FALSE(registry.Lda("missing").ok());

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snapshot.counters.at("hlm.serve.errors_total"), 2);
  EXPECT_EQ(snapshot.counters.at("hlm.serve.errors.already_exists_total"),
            1);
  EXPECT_EQ(snapshot.counters.at("hlm.serve.errors.not_found_total"), 1);

  // Each tracked error also emitted a serve.error wide event.
  int serve_errors = 0;
  for (const obs::Event& event : obs::EventLog::Global().Events()) {
    if (event.name == "serve.error") ++serve_errors;
  }
  EXPECT_GE(serve_errors, 2);
}

// Regression: the temp path used to be `<path>.tmp.<pid>`, so two
// same-process writers targeting one destination shared a temp file and
// corrupted each other mid-write. The process-wide ordinal suffix keeps
// them apart.
TEST(AtomicFileWriterTest, ConcurrentSameProcessWritersDoNotCollide) {
  std::string path = TempPath("atomic_concurrent.txt");
  {
    AtomicFileWriter first(path);
    AtomicFileWriter second(path);
    EXPECT_NE(first.temp_path(), second.temp_path());
  }

  const std::string payload_a(4096, 'a');
  const std::string payload_b(4096, 'b');
  auto hammer = [&path](const std::string& payload) {
    for (int i = 0; i < 50; ++i) {
      AtomicFileWriter writer(path);
      ASSERT_TRUE(writer.ok());
      writer.stream() << payload;
      ASSERT_TRUE(writer.Commit().ok());
    }
  };
  std::thread other(  // hlm-lint: allow(no-raw-thread)
      [&] { hammer(payload_a); });
  hammer(payload_b);
  other.join();

  // Every observable state is one complete payload — never a mix, never
  // a short file.
  std::string final_contents = ReadAll(path);
  EXPECT_TRUE(final_contents == payload_a || final_contents == payload_b);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, FromManifestRejectsPartialTrailingRecord) {
  std::string manifest = TempPath("truncated_manifest.txt");
  // A write cut off mid-record (e.g. a crash with the old non-fsyncing
  // writer) leaves a name+kind row with no path. The old `>>`-loop
  // silently dropped it; now it is a DataLoss error naming the line.
  WriteAll(manifest,
           "hlm-registry 1\nfull lda full.snap\ntruncated lda\n");
  auto truncated = ModelRegistry::FromManifest(manifest);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("line 3"), std::string::npos);

  // A record with trailing junk is rejected too, not silently merged.
  WriteAll(manifest, "hlm-registry 1\nfull lda full.snap extra-token\n");
  EXPECT_FALSE(ModelRegistry::FromManifest(manifest).ok());

  // A single trailing newline after the last record stays legal.
  WriteAll(manifest, "hlm-registry 1\nfull lda full.snap\n");
  EXPECT_TRUE(ModelRegistry::FromManifest(manifest).ok());
  std::remove(manifest.c_str());
}

// Manifests name only the kinds a server loads. A row naming a kind the
// registry no longer knows fails the whole manifest, naming kind and line.
TEST(ModelRegistryTest, FromManifestRejectsRetiredKind) {
  std::string manifest = TempPath("retired_kind_manifest.txt");
  WriteAll(manifest,
           "hlm-registry 1\nlda lda lda.snap\nold ngram ngram.snap\n");
  auto loaded = ModelRegistry::FromManifest(manifest);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("ngram"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace hlm::serve
