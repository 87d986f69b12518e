#include "dataflow/relation.hpp"

#include <algorithm>
#include <iterator>

namespace clusterbft::dataflow {

void Relation::append(Relation&& other) {
  if (bytes_ && other.bytes_) {
    *bytes_ += *other.bytes_;
  } else {
    bytes_.reset();
  }
  if (rows_.empty()) {
    rows_ = std::move(other.rows_);
  } else {
    rows_.insert(rows_.end(), std::make_move_iterator(other.rows_.begin()),
                 std::make_move_iterator(other.rows_.end()));
  }
  other.rows_.clear();
  other.bytes_ = 0;
}

std::uint64_t Relation::byte_size() const {
  if (bytes_) return *bytes_;
  std::uint64_t total = 0;
  std::string buf;
  for (const Tuple& t : rows_) {
    serialize_tuple_into(t, buf);
    total += buf.size();
  }
  return total;
}

std::vector<Tuple> Relation::sorted_rows() const {
  std::vector<std::size_t> order(rows_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) {
              return canonical_order(rows_[a], rows_[b]) < 0;
            });
  std::vector<Tuple> out;
  out.reserve(rows_.size());
  for (const std::size_t i : order) out.push_back(rows_[i]);
  return out;
}

std::string Relation::to_tsv(std::size_t max_rows) const {
  std::string out;
  const std::size_t n = std::min(max_rows, rows_.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < rows_[i].size(); ++j) {
      if (j > 0) out += "\t";
      out += rows_[i].at(j).to_string();
    }
    out += "\n";
  }
  return out;
}

}  // namespace clusterbft::dataflow
