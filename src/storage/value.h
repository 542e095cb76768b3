#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <utility>
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

/// \brief A single typed value: SQL NULL, BIGINT, DOUBLE or VARCHAR.
///
/// Sixteen bytes, with the type tag in the last one. BIGINT and DOUBLE
/// keep their 8 bytes at offset 0. A string of up to kInlineChars bytes
/// lives inline: its bytes at offset 0, its length in byte 14. A longer
/// string lives in one heap block of exactly its length: the pointer at
/// offset 0, a 32-bit length at offset 8. Copying a long string copies
/// its block, moving one steals it, and a moved-from Value is NULL.
class Value {
 public:
  /// Longest string stored without a heap block.
  static constexpr size_t kInlineChars = 14;

  Value() { set_tag(Tag::kNull); }  ///< NULL
  Value(int64_t v) { Store(v, Tag::kInt64); }  // NOLINT(runtime/explicit)
  Value(double v) { Store(v, Tag::kDouble); }  // NOLINT(runtime/explicit)
  Value(std::string_view v) { InitString(v); }  // NOLINT(runtime/explicit)
  Value(const std::string& v)  // NOLINT(runtime/explicit)
      : Value(std::string_view(v)) {}
  Value(const char* v)  // NOLINT(runtime/explicit)
      : Value(std::string_view(v)) {}

  Value(const Value& other) {
    if (other.tag() == Tag::kLongString) {
      InitString(other.as_string());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    }
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.set_tag(Tag::kNull);
  }
  Value& operator=(const Value& other) {
    Value(other).swap(*this);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value(std::move(other)).swap(*this);
    return *this;
  }
  ~Value() {
    if (tag() == Tag::kLongString) ::operator delete(heap_data(), heap_size());
  }

  bool is_null() const { return tag() == Tag::kNull; }
  bool is_int64() const { return tag() == Tag::kInt64; }
  bool is_double() const { return tag() == Tag::kDouble; }
  bool is_string() const { return tag() >= Tag::kShortString; }

  /// Accessors; preconditions: matching type.
  int64_t as_int64() const {
    assert(is_int64());
    return Load<int64_t>(0);
  }
  double as_double() const {
    assert(is_double());
    return Load<double>(0);
  }
  /// The string's bytes; valid while this Value lives unchanged.
  std::string_view as_string() const {
    assert(is_string());
    if (tag() == Tag::kShortString) {
      return {bytes_, static_cast<unsigned char>(bytes_[kShortSizeAt])};
    }
    return {heap_data(), heap_size()};
  }

  /// Approximate in-memory footprint in bytes (used to size migration
  /// chunks the way Squall reasons about kilobytes moved).
  size_t ByteSize() const;

  /// Debug rendering; NULL renders as "NULL".
  std::string ToString() const;

  /// Same type and equal value. Doubles compare as IEEE numbers: NaN
  /// equals nothing and -0.0 equals 0.0.
  bool operator==(const Value& other) const;

 private:
  enum class Tag : unsigned char {
    kNull,
    kInt64,
    kDouble,
    kShortString,  ///< Inline, up to kInlineChars bytes.
    kLongString,   ///< One exact-size heap block.
  };
  static constexpr size_t kShortSizeAt = 14;  ///< Inline string length.
  static constexpr size_t kLongSizeAt = 8;    ///< Heap string length.
  static constexpr size_t kTagAt = 15;

  Tag tag() const { return static_cast<Tag>(bytes_[kTagAt]); }
  void set_tag(Tag tag) { bytes_[kTagAt] = static_cast<char>(tag); }

  template <typename T>
  T Load(size_t at) const {
    T v{};
    std::memcpy(&v, bytes_ + at, sizeof(T));
    return v;
  }
  template <typename T>
  void Store(T v, Tag tag) {
    std::memcpy(bytes_, &v, sizeof(T));
    set_tag(tag);
  }
  char* heap_data() const { return Load<char*>(0); }
  uint32_t heap_size() const { return Load<uint32_t>(kLongSizeAt); }

  void InitString(std::string_view s);
  void swap(Value& other) noexcept {
    char tmp[sizeof(bytes_)];
    std::memcpy(tmp, bytes_, sizeof(bytes_));
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    std::memcpy(other.bytes_, tmp, sizeof(bytes_));
  }

  alignas(8) char bytes_[16] = {};
};

static_assert(sizeof(Value) == 16, "a Value is a payload and a tag byte");

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
  /// True if this handle holds no body (no columns). Reads only the
  /// handle, never the body: RowMap probes use it to spot free slots.
  bool empty() const { return body_ == nullptr; }
  /// Hints the CPU to start loading the body into cache. Changes nothing.
  void Prefetch() const {
    if (body_ != nullptr) __builtin_prefetch(body_);
  }
  const Value& at(size_t i) const { return body_->values()[i]; }
  /// Mutable access; clones the body first if it is shared.
  Value& at(size_t i) {
    MakeUnique();
    return body_->values()[i];
  }
  /// Sets column `i`, growing the row with NULLs if it is shorter. A
  /// shared body is cloned first, minus column `i`'s old value.
  void Set(size_t i, Value v);

  /// Modelled in-memory footprint in bytes: kRowHeaderBytes plus, per
  /// column, kModelledValueBytes and Value::ByteSize(). Migration
  /// chunking, bucket accounting and move durations use it, so it follows
  /// neither the body's layout nor sizeof(Value).
  size_t ByteSize() const;

  std::string ToString() const;

  bool operator==(const Row& other) const;

  /// Modelled per-row header bytes (what a vector-backed row occupies).
  static constexpr size_t kRowHeaderBytes = 24;
  /// Modelled bytes of one column slot (a 40-byte tagged union).
  static constexpr size_t kModelledValueBytes = 40;

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
