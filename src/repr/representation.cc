#include "repr/representation.h"

#include "common/parallel.h"
#include "common/snapshot.h"
#include "corpus/tfidf.h"

namespace hlm::repr {

std::vector<std::vector<double>> BinaryRepresentation(
    const corpus::Corpus& corpus) {
  return corpus.BinaryMatrix();
}

std::vector<std::vector<double>> TfidfRepresentation(
    const corpus::Corpus& corpus) {
  return corpus::TfidfModel::Fit(corpus).TransformAll(corpus);
}

std::vector<std::vector<double>> LdaRepresentation(
    const models::LdaModel& model, const corpus::Corpus& corpus) {
  // Each fold-in is seeded from its own document, so the rows are the
  // same at any thread count.
  std::vector<std::vector<double>> rows(corpus.num_companies());
  ParallelFor(0, rows.size(), /*grain=*/0, [&](size_t i) {
    rows[i] = model.InferTopicMixture(corpus.record(i).install_base.Set());
  });
  return rows;
}

std::vector<std::vector<double>> LstmRepresentation(
    const models::LstmLanguageModel& model, const corpus::Corpus& corpus) {
  std::vector<std::vector<double>> rows;
  rows.reserve(corpus.num_companies());
  for (const corpus::CompanyRecord& record : corpus.records()) {
    rows.push_back(model.CompanyEmbedding(record.install_base.Sequence()));
  }
  return rows;
}

std::vector<std::vector<double>> Word2VecRepresentation(
    const models::Word2VecModel& model, const corpus::Corpus& corpus) {
  std::vector<std::vector<double>> rows;
  rows.reserve(corpus.num_companies());
  for (const corpus::CompanyRecord& record : corpus.records()) {
    rows.push_back(model.CompanyEmbedding(record.install_base.Set()));
  }
  return rows;
}

std::vector<std::vector<double>> LsiRepresentation(
    const models::LsiModel& model, const corpus::Corpus& corpus) {
  corpus::TfidfModel tfidf = corpus::TfidfModel::Fit(corpus);
  std::vector<std::vector<double>> rows;
  rows.reserve(corpus.num_companies());
  for (const corpus::CompanyRecord& record : corpus.records()) {
    auto latent = model.Transform(tfidf.Transform(record.install_base.mask()));
    rows.push_back(latent.ok() ? *latent
                               : std::vector<double>(model.rank(), 0.0));
  }
  return rows;
}

Status SaveRepresentation(const std::vector<std::vector<double>>& rows,
                          const std::string& path) {
  const size_t cols = rows.empty() ? 0 : rows[0].size();
  for (const std::vector<double>& row : rows) {
    if (row.size() != cols) {
      return Status::InvalidArgument("ragged representation matrix");
    }
  }
  SnapshotWriter writer("repr", 1);
  std::ostream& out = writer.payload();
  out << rows.size() << ' ' << cols << '\n';
  for (const std::vector<double>& row : rows) {
    for (size_t j = 0; j < row.size(); ++j) {
      if (j > 0) out << ' ';
      out << row[j];
    }
    out << '\n';
  }
  return writer.CommitToFile(path);
}

Result<std::vector<std::vector<double>>> LoadRepresentation(
    const std::string& path) {
  HLM_ASSIGN_OR_RETURN(SnapshotReader reader,
                       SnapshotReader::Open(path));
  HLM_RETURN_IF_ERROR(reader.ExpectKind("repr", 1));
  std::istream& in = reader.payload();
  size_t rows = 0, cols = 0;
  in >> rows >> cols;
  if (!in) return Status::DataLoss("corrupt representation shape: " + path);
  HLM_RETURN_IF_ERROR(reader.CheckShape(rows, cols));
  std::vector<std::vector<double>> matrix(rows, std::vector<double>(cols));
  for (std::vector<double>& row : matrix) {
    for (double& value : row) in >> value;
  }
  HLM_RETURN_IF_ERROR(reader.Finish());
  return matrix;
}

}  // namespace hlm::repr
