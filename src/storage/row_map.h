#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/murmur.h"
#include "storage/value.h"

/// \file row_map.h
/// The row index of one (table, bucket): partitioning key -> Row.

namespace pstore {

/// \brief Open-addressed hash map from partitioning key to Row, with keys
/// and rows stored inline in one slot array.
///
/// Capacity is a power of two, collisions probe linearly, and erase
/// shifts the rest of the probe run back, so no tombstones accumulate.
/// A slot whose Row handle is null (Row::empty()) is free: every stored
/// row holds at least its partitioning-key column, so a slot is just a
/// key and a Row handle (16 bytes; the values live in the row's shared
/// body), and a probe reads only the slot array, never a body. The home
/// slot comes from the high half of the key's MurmurHash64A; KeyToBucket
/// reduces the same hash modulo the bucket count, so the low bits barely
/// vary among the keys of one bucket.
///
/// Iteration visits slots in array order: a pure function of the
/// operation sequence, unrelated to key order. Any insert or erase
/// invalidates iterators. Callers must not modify a slot's key.
class RowMap {
 public:
  using Slot = std::pair<int64_t, Row>;
  static_assert(sizeof(Slot) == 16, "a slot is a key and a Row handle");

  template <bool kConst>
  class Iter {
   public:
    using SlotRef = std::conditional_t<kConst, const Slot&, Slot&>;
    using SlotPtr = std::conditional_t<kConst, const Slot*, Slot*>;

    Iter(SlotPtr slot, SlotPtr end) : slot_(slot), end_(end) { SkipFree(); }

    SlotRef operator*() const { return *slot_; }
    SlotPtr operator->() const { return slot_; }
    Iter& operator++() {
      ++slot_;
      SkipFree();
      return *this;
    }
    bool operator==(const Iter& other) const { return slot_ == other.slot_; }

   private:
    friend class RowMap;
    void SkipFree() {
      while (slot_ != end_ && IsFree(*slot_)) ++slot_;
    }
    SlotPtr slot_;
    SlotPtr end_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  RowMap() = default;
  RowMap(RowMap&& other) noexcept
      : slots_(std::move(other.slots_)),
        size_(std::exchange(other.size_, 0)),
        mask_(std::exchange(other.mask_, 0)) {}
  RowMap& operator=(RowMap&& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    mask_ = std::exchange(other.mask_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return {slots_.get(), slots_end()}; }
  iterator end() { return {slots_end(), slots_end()}; }
  const_iterator begin() const { return {slots_.get(), slots_end()}; }
  const_iterator end() const { return {slots_end(), slots_end()}; }

  iterator find(int64_t key) {
    Slot* slot = FindSlot(key);
    return slot == nullptr ? end() : iterator(slot, slots_end());
  }
  const_iterator find(int64_t key) const {
    const Slot* slot = FindSlot(key);
    return slot == nullptr ? end() : const_iterator(slot, slots_end());
  }

  /// Inserts Row(args...) under `key` unless the key is present; either
  /// way returns the key's slot and whether it was inserted. The row must
  /// not be empty. A present key returns without growing the array, and
  /// the row is built before any rehash, so `args` may name a slot of
  /// this map.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(int64_t key, Args&&... args) {
    size_t i = 0;
    if (slots_ != nullptr) {
      for (i = Home(key); !IsFree(slots_[i]); i = (i + 1) & mask_) {
        if (slots_[i].first == key) {
          return {iterator(&slots_[i], slots_end()), false};
        }
      }
    }
    Row row(std::forward<Args>(args)...);
    assert(row.size() > 0);
    if (size_ + 1 > capacity() / 4 * 3) {
      Rehash(capacity() == 0 ? kMinCapacity : capacity() * 2);
      for (i = Home(key); !IsFree(slots_[i]); i = (i + 1) & mask_) {
      }
    }
    Slot& slot = slots_[i];
    slot.first = key;
    slot.second = std::move(row);
    ++size_;
    return {iterator(&slot, slots_end()), true};
  }

  /// Removes the slot `it` points at, shifting later members of its
  /// probe run back so every key stays reachable from its home slot.
  void erase(iterator it) {
    size_t hole = static_cast<size_t>(it.slot_ - slots_.get());
    for (size_t j = (hole + 1) & mask_; !IsFree(slots_[j]);
         j = (j + 1) & mask_) {
      // Slot j may fill the hole only if its home is not cyclically in
      // (hole, j]: then it sits at least as far from home as from the hole.
      if (((j - Home(slots_[j].first)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].second = Row();
    --size_;
  }

  /// Hints the CPU to load the cache line of `key`'s home slot. Changes
  /// nothing; a no-op on an empty map.
  void PrefetchHome(int64_t key) const {
    if (size_ != 0) __builtin_prefetch(&slots_[Home(key)]);
  }
  /// Probes for `key` and hints the CPU to load its row's body. Changes
  /// nothing; worth it once PrefetchHome has pulled the probe's slots.
  void PrefetchRow(int64_t key) const {
    if (const Slot* slot = FindSlot(key)) slot->second.Prefetch();
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  static bool IsFree(const Slot& slot) { return slot.second.empty(); }

  size_t capacity() const { return slots_ == nullptr ? 0 : size_t{mask_} + 1; }
  Slot* slots_end() const { return slots_.get() + capacity(); }

  size_t Home(int64_t key) const {
    return static_cast<size_t>(MurmurHash64A(key) >> 32) & mask_;
  }

  Slot* FindSlot(int64_t key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (IsFree(slot)) return nullptr;
      if (slot.first == key) return &slot;
    }
  }

  void Rehash(size_t new_capacity) {
    const size_t old_capacity = capacity();
    std::unique_ptr<Slot[]> old = std::exchange(
        slots_, std::make_unique<Slot[]>(new_capacity));
    mask_ = static_cast<uint32_t>(new_capacity - 1);
    for (size_t o = 0; o < old_capacity; ++o) {
      if (IsFree(old[o])) continue;
      size_t i = Home(old[o].first);
      while (!IsFree(slots_[i])) i = (i + 1) & mask_;
      slots_[i] = std::move(old[o]);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  uint32_t size_ = 0;
  uint32_t mask_ = 0;  ///< capacity - 1 while slots_ is allocated.
};

}  // namespace pstore
