#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/snapshot.h"
#include "corpus/generator.h"
#include "math/rng.h"
#include "models/lda.h"
#include "repr/representation.h"

namespace hlm::models {
namespace {

TEST(LdaSerializationTest, RoundTripPreservesModel) {
  auto world = corpus::GenerateDefaultCorpus(200, 3);
  LdaConfig config;
  config.num_topics = 3;
  LdaModel original(38, config);
  ASSERT_TRUE(original.Train(world.corpus.Sequences()).ok());

  std::string path = ::testing::TempDir() + "/lda_roundtrip.hlm";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  auto restored = LdaModel::LoadFromFile(path);
  ASSERT_TRUE(restored.ok());

  // phi identical (up to text round-trip precision).
  for (int t = 0; t < 3; ++t) {
    for (int w = 0; w < 38; ++w) {
      EXPECT_NEAR(restored->topic_word()[t][w], original.topic_word()[t][w],
                  1e-15);
    }
  }
  // Inference behaviour identical (same seed persisted).
  TokenSequence doc = world.corpus.record(0).install_base.Set();
  EXPECT_EQ(restored->InferTopicMixture(doc), original.InferTopicMixture(doc));
  EXPECT_EQ(restored->NextProductDistribution(doc),
            original.NextProductDistribution(doc));
  std::remove(path.c_str());
}

TEST(LdaSerializationTest, RejectsUntrainedAndCorrupt) {
  LdaModel untrained(38, LdaConfig{});
  EXPECT_FALSE(untrained.SaveToFile("/tmp/never").ok());
  EXPECT_FALSE(LdaModel::LoadFromFile("/nonexistent").ok());

  std::string path = ::testing::TempDir() + "/lda_corrupt.hlm";
  FILE* f = fopen(path.c_str(), "w");
  fputs("hlm-lda 1\n38 3 0.1", f);  // truncated header
  fclose(f);
  EXPECT_FALSE(LdaModel::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

/// Rewrites `path` with `garbage` appended *inside* the payload (byte
/// count and checksum updated to match), producing a container that is
/// valid at the transport layer but carries unread trailing data — the
/// case only the model parser's Finish() can reject.
void AppendPayloadGarbage(const std::string& path,
                          const std::string& garbage) {
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  // Header = first 5 lines (magic, kind, kind_version, bytes, checksum).
  size_t header_end = 0;
  for (int line = 0; line < 5; ++line) {
    header_end = content.find('\n', header_end) + 1;
  }
  std::string payload = content.substr(header_end) + garbage;
  std::istringstream header(content.substr(0, header_end));
  std::string magic, kind_field, kind, version_field;
  int container_version = 0, kind_version = 0;
  header >> magic >> container_version >> kind_field >> kind >>
      version_field >> kind_version;
  SnapshotWriter writer(kind, kind_version);
  writer.payload() << payload;
  ASSERT_TRUE(writer.CommitToFile(path).ok());
}

TEST(LdaSerializationTest, RejectsTrailingGarbageAfterPayload) {
  auto world = corpus::GenerateDefaultCorpus(120, 3);
  LdaConfig config;
  config.num_topics = 3;
  LdaModel model(38, config);
  ASSERT_TRUE(model.Train(world.corpus.Sequences()).ok());
  std::string path = ::testing::TempDir() + "/lda_trailing.hlm";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  ASSERT_TRUE(LdaModel::LoadFromFile(path).ok());

  AppendPayloadGarbage(path, "\n999 999 999\n");
  auto loaded = LdaModel::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing garbage"),
            std::string::npos);
  std::remove(path.c_str());
}

/// Commits `payload` as a checksum-valid snapshot of `kind` at `path`:
/// the container accepts it, so only the model parser can reject it.
void WriteSnapshot(const std::string& path, const std::string& kind,
                   const std::string& payload) {
  SnapshotWriter writer(kind, 1);
  writer.payload() << payload;
  ASSERT_TRUE(writer.CommitToFile(path).ok());
}

TEST(LdaSerializationTest, RejectsWrongKindAndTruncatedPayload) {
  std::string path = ::testing::TempDir() + "/lda_wrong_kind.hlm";
  // A valid container of the wrong kind must fail in ExpectKind.
  WriteSnapshot(path, "repr", "1 3\n0.25 0.25 0.5\n");
  auto wrong_kind = LdaModel::LoadFromFile(path);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_kind.status().message().find("kind"), std::string::npos);

  // Header promises 2 topics x 3 words; the payload stops after 4 values.
  WriteSnapshot(path, "lda", "3 2 0.1 0.01 20 30 7\n0.25 0.25 0.5\n1 0");
  auto truncated = LdaModel::LoadFromFile(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(LdaSerializationTest, HostileHeadersAreDataLoss) {
  std::string path = ::testing::TempDir() + "/lda_hostile.hlm";
  for (const char* payload : {
           // 2e9 x 2e9 topic-word matrix in a 40-byte payload.
           "2000000000 2000000000 0.1 0.01 10 10 7\n",
           // The constructor checks alpha, beta > 0; the loader must
           // refuse first.
           "1 1 0 0.01 20 30 7\n1\n",
           "1 1 0.1 -1 20 30 7\n1\n",
           // Fold-in averages over 0 samples: a NaN topic mixture.
           "1 1 0.1 0.01 20 0 7\n1\n",
           // burn_in + samples overflows int.
           "1 1 0.1 0.01 2147483647 1 7\n1\n",
       }) {
    WriteSnapshot(path, "lda", payload);
    auto loaded = LdaModel::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok()) << payload;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ReprSerializationTest, RoundTripIsBitIdenticalAndRejectsRagged) {
  std::vector<std::vector<double>> rows = {{0.125, -3.5, 1e-17},
                                           {7.25, 0.0, 2e300}};
  std::string path = ::testing::TempDir() + "/repr_roundtrip.hlm";
  ASSERT_TRUE(repr::SaveRepresentation(rows, path).ok());
  auto restored = repr::LoadRepresentation(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, rows);
  std::remove(path.c_str());

  std::vector<std::vector<double>> ragged = {{1.0, 2.0}, {3.0}};
  EXPECT_FALSE(repr::SaveRepresentation(ragged, path).ok());
}

TEST(ReprSerializationTest, RejectsWrongKindAndTruncatedPayload) {
  std::string path = ::testing::TempDir() + "/repr_wrong_kind.hlm";
  WriteSnapshot(path, "lda", "1 1 0.1 0.01 20 30 7\n1\n");
  auto wrong_kind = repr::LoadRepresentation(path);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_kind.status().message().find("kind"), std::string::npos);

  // Shape 2 x 2; the payload stops after 3 values.
  WriteSnapshot(path, "repr", "2 2\n1 2\n3");
  auto truncated = repr::LoadRepresentation(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ReprSerializationTest, HostileShapesAreDataLoss) {
  std::string path = ::testing::TempDir() + "/repr_hostile.hlm";
  for (const char* payload : {
           // rows * cols is 0, so a product-only bound would allocate
           // 2^40 empty rows.
           "1099511627776 0\n",
           // 2^63 * 2 wraps to 0 in size_t.
           "9223372036854775808 2\n",
       }) {
    WriteSnapshot(path, "repr", payload);
    auto loaded = repr::LoadRepresentation(path);
    ASSERT_FALSE(loaded.ok()) << payload;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hlm::models
