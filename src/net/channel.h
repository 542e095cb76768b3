#pragma once

#include <cstdint>

/// \file channel.h
/// Sequence numbering and receiver-side deduplication for a stop-and-
/// wait transfer over the unreliable NetworkModel. The sender allocates
/// strictly increasing sequence numbers and never advances past an
/// unacknowledged one; the receiver accepts each sequence number at
/// most once (duplicates — retransmissions or network duplication — are
/// suppressed and simply re-acknowledged). Together with sender-side
/// retransmission this yields exactly-once application over a channel
/// that may drop, duplicate, delay and reorder.

namespace pstore {
namespace net {

/// \brief One direction of a stop-and-wait protocol endpoint pair.
class Channel {
 public:
  /// Sender side: allocates the next sequence number (1, 2, 3, ...).
  int64_t NextSeq() { return ++last_allocated_; }

  /// Receiver side: true exactly once per sequence number. Stop-and-
  /// wait delivers in order, so a high-water mark suffices: anything at
  /// or below it has already been applied and must not be re-applied.
  bool Accept(int64_t seq) {
    if (seq <= accepted_) {
      ++duplicates_suppressed_;
      return false;
    }
    accepted_ = seq;
    return true;
  }

  /// Receiver side: the payload of `seq`, the last accepted, was lost
  /// before it was applied; its next copy is accepted again.
  void Forget(int64_t seq) {
    if (seq == accepted_) accepted_ = seq - 1;
  }

  /// Sender side: true exactly once per acknowledged sequence number;
  /// duplicate ACKs (from receiver re-acks) return false.
  bool AckReceived(int64_t seq) {
    if (seq <= acked_) {
      ++duplicate_acks_;
      return false;
    }
    acked_ = seq;
    return true;
  }

  int64_t last_allocated() const { return last_allocated_; }
  int64_t accepted() const { return accepted_; }
  int64_t acked() const { return acked_; }
  int64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  int64_t duplicate_acks() const { return duplicate_acks_; }

 private:
  int64_t last_allocated_ = 0;
  int64_t accepted_ = 0;
  int64_t acked_ = 0;
  int64_t duplicates_suppressed_ = 0;
  int64_t duplicate_acks_ = 0;
};

}  // namespace net
}  // namespace pstore
