#include "mapreduce/dfs.hpp"

#include "common/check.hpp"

namespace clusterbft::mapreduce {

bool Dfs::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

void Dfs::write(const std::string& path, dataflow::Relation rel) {
  File f;
  // Pre-compute split boundaries: pack rows greedily into block_size_
  // chunks of canonical bytes. Deterministic, so every replica sees the
  // same splits — a precondition for comparable per-split digests. The
  // same pass records the split and file byte counts.
  f.split_starts.push_back(0);
  f.split_bytes.push_back(0);
  std::string row_buf;
  for (std::size_t i = 0; i < rel.rows().size(); ++i) {
    dataflow::serialize_tuple_into(rel.rows()[i], row_buf);
    const std::uint64_t row_bytes = row_buf.size();
    if (f.split_bytes.back() > 0 &&
        f.split_bytes.back() + row_bytes > block_size_) {
      f.split_starts.push_back(i);
      f.split_bytes.push_back(0);
    }
    f.split_bytes.back() += row_bytes;
    f.byte_size += row_bytes;
  }
  f.rel = std::move(rel);
  f.rel.set_byte_size(f.byte_size);
  metrics_.bytes_written += f.byte_size;
  files_[path] = std::move(f);
}

const Dfs::File& Dfs::file_at(const std::string& path) const {
  auto it = files_.find(path);
  CBFT_CHECK_MSG(it != files_.end(), "DFS: no such file: " + path);
  return it->second;
}

const dataflow::Relation& Dfs::read(const std::string& path) {
  const File& f = file_at(path);
  metrics_.bytes_read += f.byte_size;
  return f.rel;
}

std::uint64_t Dfs::size_of(const std::string& path) const {
  return file_at(path).byte_size;
}

std::size_t Dfs::num_splits(const std::string& path) const {
  return file_at(path).split_starts.size();
}

dataflow::Relation Dfs::read_split(const std::string& path,
                                   std::size_t index) {
  const File& f = file_at(path);
  CBFT_CHECK_MSG(index < f.split_starts.size(), "DFS: split out of range");
  const auto& rows = f.rel.rows();
  const std::size_t begin = f.split_starts[index];
  const std::size_t end = (index + 1 < f.split_starts.size())
                              ? f.split_starts[index + 1]
                              : rows.size();
  dataflow::Relation out(
      f.rel.schema(),
      std::vector<dataflow::Tuple>(
          rows.begin() + static_cast<std::ptrdiff_t>(begin),
          rows.begin() + static_cast<std::ptrdiff_t>(end)));
  out.set_byte_size(f.split_bytes[index]);
  metrics_.bytes_read += f.split_bytes[index];
  return out;
}

void Dfs::remove(const std::string& path) { files_.erase(path); }

std::vector<std::string> Dfs::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, file] : files_) out.push_back(path);
  return out;
}

}  // namespace clusterbft::mapreduce
