#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <variant>
#include <vector>

/// \file value.h
/// Typed tuple values for the storage engine: a small closed set of SQL
/// types (BIGINT, DOUBLE, VARCHAR) plus NULL, matching what the B2W
/// schema (Figure 14 of the paper) needs.

namespace pstore {

/// Column type tags.
enum class ColumnType { kInt64, kDouble, kString };

/// Returns a readable name, e.g. "BIGINT".
const char* ColumnTypeToString(ColumnType type);

/// \brief A single typed value; monostate represents SQL NULL.
class Value {
 public:
  Value() = default;  ///< NULL
  Value(int64_t v) : repr_(v) {}             // NOLINT(runtime/explicit)
  Value(double v) : repr_(v) {}              // NOLINT(runtime/explicit)
  Value(std::string v) : repr_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT(runtime/explicit)

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }

  /// Accessors; preconditions: matching type.
  int64_t as_int64() const { return std::get<int64_t>(repr_); }
  double as_double() const { return std::get<double>(repr_); }
  const std::string& as_string() const { return std::get<std::string>(repr_); }

  /// Approximate in-memory footprint in bytes (used to size migration
  /// chunks the way Squall reasons about kilobytes moved).
  size_t ByteSize() const;

  /// Debug rendering; NULL renders as "NULL".
  std::string ToString() const;

  bool operator==(const Value& other) const { return repr_ == other.repr_; }

 private:
  std::variant<std::monostate, int64_t, double, std::string> repr_;
};

/// \brief A tuple: one Value per column of its table's schema.
///
/// A Row is a handle to a reference-counted body: one allocation holding
/// the count, the size and the Values right after them. Copying a Row
/// shares the body, so a fragment, its backups and a procedure's result
/// can all hold the same tuple; Set and the non-const at() first clone a
/// shared body (copy-on-write), so no holder ever sees another's edit.
/// An empty Row (no columns) holds no body.
///
/// The count is not atomic: a Row and every copy of it are confined to
/// one thread. Give each thread rows of its own.
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values);
  Row(const Row& other) : body_(other.body_) {
    if (body_ != nullptr) ++body_->refs;
  }
  Row(Row&& other) noexcept : body_(std::exchange(other.body_, nullptr)) {}
  Row& operator=(const Row& other) {
    Row(other).swap(*this);
    return *this;
  }
  Row& operator=(Row&& other) noexcept {
    Row(std::move(other)).swap(*this);
    return *this;
  }
  ~Row() { Release(); }

  size_t size() const { return body_ == nullptr ? 0 : body_->size; }
  const Value& at(size_t i) const { return body_->values()[i]; }
  /// Mutable access; clones the body first if it is shared.
  Value& at(size_t i) {
    MakeUnique();
    return body_->values()[i];
  }
  /// Sets column `i`, growing the row with NULLs if it is shorter.
  void Set(size_t i, Value v);

  /// Modelled in-memory footprint in bytes: kRowHeaderBytes plus, per
  /// column, sizeof(Value) and Value::ByteSize(). Migration chunking and
  /// bucket accounting use it, so it does not follow the body's layout.
  size_t ByteSize() const;

  std::string ToString() const;

  bool operator==(const Row& other) const;

  /// Modelled per-row header bytes (what a vector-backed row occupies).
  static constexpr size_t kRowHeaderBytes = 24;

 private:
  void swap(Row& other) noexcept { std::swap(body_, other.body_); }

  struct alignas(Value) Body {
    uint32_t refs;
    uint32_t size;
    /// Raw storage of value `i`, for constructing it in place.
    void* slot(size_t i) {
      return reinterpret_cast<char*>(this + 1) + i * sizeof(Value);
    }
    /// The constructed values.
    Value* values() {
      return std::launder(reinterpret_cast<Value*>(this + 1));
    }
  };

  /// A body with room for `size` values and one reference; the caller
  /// constructs all `size` values in place before the body is used.
  static Body* Allocate(size_t size);
  /// Drops this handle's reference, freeing the body on the last one.
  void Release();
  /// Clones the body if another Row shares it.
  void MakeUnique();

  Body* body_ = nullptr;
};

}  // namespace pstore
