#include "storage/value.h"

#include <cstdio>
#include <limits>
#include <stdexcept>

namespace pstore {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "BIGINT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "VARCHAR";
  }
  return "?";
}

void Value::InitString(std::string_view s) {
  if (s.size() <= kInlineChars) {
    std::memcpy(bytes_, s.data(), s.size());
    bytes_[kShortSizeAt] = static_cast<char>(s.size());
    set_tag(Tag::kShortString);
    return;
  }
  if (s.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("Value: string longer than 4 GiB");
  }
  char* data = static_cast<char*>(::operator new(s.size()));
  std::memcpy(data, s.data(), s.size());
  const auto size = static_cast<uint32_t>(s.size());
  std::memcpy(bytes_, &data, sizeof(data));
  std::memcpy(bytes_ + kLongSizeAt, &size, sizeof(size));
  set_tag(Tag::kLongString);
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_int64() || is_double()) return 8;
  return 16 + as_string().size();
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(as_int64());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", as_double());
    return buf;
  }
  std::string out = "'";
  out += as_string();
  out += "'";
  return out;
}

bool Value::operator==(const Value& other) const {
  switch (tag()) {
    case Tag::kNull:
      return other.is_null();
    case Tag::kInt64:
      return other.is_int64() && as_int64() == other.as_int64();
    case Tag::kDouble:
      return other.is_double() && as_double() == other.as_double();
    case Tag::kShortString:
    case Tag::kLongString:
      return other.is_string() && as_string() == other.as_string();
  }
  return false;
}

Row::Row(std::vector<Value> values) {
  if (values.empty()) return;
  body_ = Allocate(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    new (body_->slot(i)) Value(std::move(values[i]));
  }
}

Row::Body* Row::Allocate(size_t size) {
  assert(size > 0);  // empty() tells a row from a free RowMap slot.
  void* mem = ::operator new(sizeof(Body) + size * sizeof(Value));
  return new (mem) Body{1, static_cast<uint32_t>(size)};
}

void Row::Release() {
  if (body_ == nullptr || --body_->refs > 0) return;
  Value* values = body_->values();
  for (size_t i = 0; i < body_->size; ++i) values[i].~Value();
  body_->~Body();
  ::operator delete(body_);
  body_ = nullptr;
}

void Row::MakeUnique() {
  if (body_ == nullptr || body_->refs == 1) return;
  Body* copy = Allocate(body_->size);
  const Value* src = body_->values();
  for (size_t i = 0; i < body_->size; ++i) new (copy->slot(i)) Value(src[i]);
  Release();
  body_ = copy;
}

void Row::Set(size_t i, Value v) {
  const size_t old_size = size();
  if (i < old_size) {
    if (body_->refs == 1) {
      body_->values()[i] = std::move(v);
      return;
    }
    // Shared: clone every column but the replaced one, which would be
    // overwritten at once (a long string would be copied for nothing).
    Body* copy = Allocate(old_size);
    const Value* src = body_->values();
    for (size_t j = 0; j < old_size; ++j) {
      if (j == i) {
        new (copy->slot(j)) Value(std::move(v));
      } else {
        new (copy->slot(j)) Value(src[j]);
      }
    }
    Release();
    body_ = copy;
    return;
  }
  // Grow into a fresh body: move the values if this handle is their
  // only owner, copy them if another Row shares them, pad with NULLs.
  Body* grown = Allocate(i + 1);
  if (old_size > 0) {
    Value* src = body_->values();
    const bool shared = body_->refs > 1;
    for (size_t j = 0; j < old_size; ++j) {
      if (shared) {
        new (grown->slot(j)) Value(src[j]);
      } else {
        new (grown->slot(j)) Value(std::move(src[j]));
      }
    }
  }
  for (size_t j = old_size; j < i; ++j) new (grown->slot(j)) Value();
  new (grown->slot(i)) Value(std::move(v));
  Release();
  body_ = grown;
}

size_t Row::ByteSize() const {
  const size_t n = size();
  size_t total = kRowHeaderBytes + n * kModelledValueBytes;
  for (size_t i = 0; i < n; ++i) total += at(i).ByteSize();
  return total;
}

bool Row::operator==(const Row& other) const {
  if (body_ == other.body_) return true;
  const size_t n = size();
  if (n != other.size()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (!(at(i) == other.at(i))) return false;
  }
  return true;
}

std::string Row::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += at(i).ToString();
  }
  out += ")";
  return out;
}

}  // namespace pstore
