// A materialised relation: a schema plus rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/schema.hpp"
#include "dataflow/value.hpp"

namespace clusterbft::dataflow {

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)),
        rows_(std::move(rows)),
        bytes_(std::nullopt) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  /// A moved-from relation is left empty, with a byte count of 0 to match.
  Relation(Relation&& other) noexcept
      : schema_(std::move(other.schema_)),
        rows_(std::move(other.rows_)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  Relation& operator=(Relation&& other) noexcept {
    schema_ = std::move(other.schema_);
    rows_ = std::move(other.rows_);
    bytes_ = std::exchange(other.bytes_, 0);
    return *this;
  }

  const Schema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  /// Mutable access forgets the recorded byte count (see byte_size).
  std::vector<Tuple>& rows() {
    bytes_.reset();
    return rows_;
  }

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  void add(Tuple t) {
    bytes_.reset();
    rows_.push_back(std::move(t));
  }

  /// Move `other`'s rows onto the end of this relation (the schema is left
  /// alone). The byte count stays known when both counts were known.
  void append(Relation&& other);

  /// Pre-size the row storage — shuffle/group materialisation paths know
  /// their output cardinality (or a good bound) up front.
  void reserve(std::size_t n) { rows_.reserve(n); }

  /// Total canonical-serialisation size of all rows — the "bytes" a task
  /// reading/writing this relation accounts for. Returns the count
  /// recorded by set_byte_size() when there is one and no row has been
  /// touched since; otherwise serialises every row to count.
  std::uint64_t byte_size() const;

  /// Record the canonical byte count of the current rows, for a caller
  /// that has just serialised all of them anyway (DFS splits, digests,
  /// shuffle partitioning), so later byte_size() calls need not recount.
  /// add(), append() of an uncounted relation, and mutable rows() forget it.
  void set_byte_size(std::uint64_t bytes) { bytes_ = bytes; }

  /// Rows in canonical_order (full-tuple) — the one canonical sort used
  /// by order-sensitive reduce inputs (LIMIT, the JOIN probe side) and by
  /// order-insensitive output comparison in tests. Index-sorted: tuples
  /// are deep (strings, bags), so sorting an index vector and gathering
  /// once beats moving tuples O(n log n) times inside std::sort.
  std::vector<Tuple> sorted_rows() const;

  /// Tab-separated rendering (examples; mirrors Pig's `dump`).
  std::string to_tsv(std::size_t max_rows = SIZE_MAX) const;

  /// Schema and rows; the recorded byte count is a cache, not content.
  friend bool operator==(const Relation& a, const Relation& b) {
    return a.schema_ == b.schema_ && a.rows_ == b.rows_;
  }

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
  /// Canonical bytes of rows_, when known without recounting. An empty
  /// relation's count (0) is known.
  std::optional<std::uint64_t> bytes_ = 0;
};

}  // namespace clusterbft::dataflow
