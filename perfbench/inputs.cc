#include "inputs.h"

#include <cstring>
#include <sstream>

#include "io/file.h"

namespace sqe::perfbench {

namespace {

template <typename T>
void AppendList(std::string* out, const std::vector<T>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ' ';
    *out += std::to_string(values[i]);
  }
}

template <typename T>
std::vector<T> ParseList(const std::string& field) {
  std::vector<T> values;
  std::istringstream in(field);
  unsigned long long v = 0;
  while (in >> v) values.push_back(static_cast<T>(v));
  return values;
}

}  // namespace

Status WriteQueries(const std::string& path,
                    const std::vector<QueryRecord>& queries) {
  std::string out;
  for (const QueryRecord& q : queries) {
    if (q.text.find_first_of("\t\n") != std::string::npos) {
      return Status::InvalidArgument("query text contains a tab or newline");
    }
    out += q.text;
    out += '\t';
    AppendList(&out, q.nodes);
    out += q.judged ? "\t1\t" : "\t0\t";
    AppendList(&out, q.relevant);
    out += '\n';
  }
  return io::WriteStringToFile(path, out);
}

Result<std::vector<QueryRecord>> ReadQueries(const std::string& path) {
  Result<std::string> data = io::ReadFileToString(path);
  if (!data.ok()) return std::move(data).status();
  std::vector<QueryRecord> queries;
  std::istringstream in(data.value());
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    size_t begin = 0;
    for (size_t end; (end = line.find('\t', begin)) != std::string::npos;
         begin = end + 1) {
      fields.push_back(line.substr(begin, end - begin));
    }
    fields.push_back(line.substr(begin));
    if (fields.size() != 4) {
      return Status::Corruption(path + ": malformed query line");
    }
    QueryRecord q;
    q.text = fields[0];
    q.nodes = ParseList<kb::ArticleId>(fields[1]);
    q.judged = fields[2] == "1";
    q.relevant = ParseList<index::DocId>(fields[3]);
    queries.push_back(std::move(q));
  }
  if (queries.empty()) return Status::Corruption(path + ": no queries");
  return queries;
}

Status WriteDocConcepts(const std::string& path,
                        const std::vector<uint32_t>& concepts) {
  std::string out(concepts.size() * sizeof(uint32_t), '\0');
  if (!concepts.empty()) {
    std::memcpy(out.data(), concepts.data(), out.size());
  }
  return io::WriteStringToFile(path, out);
}

Result<std::vector<uint32_t>> ReadDocConcepts(const std::string& path) {
  Result<std::string> data = io::ReadFileToString(path);
  if (!data.ok()) return std::move(data).status();
  if (data->size() % sizeof(uint32_t) != 0) {
    return Status::Corruption(path + ": truncated");
  }
  std::vector<uint32_t> concepts(data->size() / sizeof(uint32_t));
  if (!concepts.empty()) {
    std::memcpy(concepts.data(), data->data(), data->size());
  }
  return concepts;
}

}  // namespace sqe::perfbench
