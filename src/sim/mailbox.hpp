// Message transport between simulated ranks.
//
// Sends are eager: the payload is copied into a Message that sits in the
// destination rank's mailbox until a matching receive consumes it. Matching
// follows MPI semantics: a receive names a (source, tag) pair, either of
// which may be a wildcard; messages between one (src, dst) pair are
// non-overtaking (a named source yields its first tag match in send order);
// wildcard-source receives pick, among every source's first tag match, the
// one with the smallest (arrival, src, seq).
//
// Storage. Pending messages live in one node pool per Mailbox: a vector of
// {Message, next} nodes plus a free list threaded through `next`, so each
// source's FIFO is a singly linked list of pool indices. Each destination
// keeps an open-addressing table (linear probing, load <= 1/2) from source
// rank to the head and tail of that source's FIFO; a source is in the table
// exactly while it has pending messages. Removing a source shifts the rest of
// its probe cluster back, so the table never holds tombstones.
//
// Cost. deliver is O(1) expected: one table probe and a tail append. A
// named-source match probes once and walks that source's FIFO to the first
// tag match (the head, for in-order traffic). A wildcard-source match or
// has_match scans the destination's table, O(table size) = O(peak active
// sources since the destination last drained). purge rebuilds the table.
// No operation allocates per message beyond the payload `send` fills: once
// the pool has reached its peak, nodes come from the free list, and a table
// grows by doubling, so filling a destination from k sources costs
// O(log k) allocations, and a destination that never has more than
// kMinTable / 2 sources allocates its table once.
//
// Memory. The pool never shrinks, so it is bounded by the peak number of
// pending messages; a freed node holds no payload. When a destination
// drains, a table larger than kMinTable slots is released, so an idle
// destination holds O(1) however dense its last exchange was.
//
// Determinism. The table's slot order depends on hashing and on insertion
// history, but no result does: a named source is one FIFO, and the wildcard
// choice is a total order on (arrival, src, seq) - seq is unique - so every
// scan order picks the same message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

namespace sim {

inline constexpr int kAnySource = -1;
inline constexpr std::int64_t kAnyTag = -1;

struct Message {
  int src = 0;
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;      // global send order, for deterministic ties
  std::uint64_t flow = 0;     // causal flow id: the seq of the first
                              // transmission; retransmits and duplicates keep
                              // it, so a matched recv names its logical send
  std::uint64_t chan_seq = 0; // per-(src,dst) sequence under fault injection;
                              // 0 = outside the reliable-channel protocol
  double arrival = 0.0;       // virtual time the last byte reaches dst
  std::vector<std::byte> payload;
};

class Mailbox {
 public:
  explicit Mailbox(int nranks);

  void deliver(int dst, Message m);

  /// Remove and return the message matching (src, tag) for rank dst, or
  /// nullopt if none has been delivered yet.
  std::optional<Message> try_match(int dst, int src, std::int64_t tag) {
    return try_match_arrived(dst, src, tag,
                             std::numeric_limits<double>::infinity());
  }

  /// Like try_match, but only consumes a message whose last byte has ARRIVED
  /// (arrival <= now). Non-overtaking is preserved per source: if the first
  /// tag match from a source is still in flight, that source yields nothing
  /// rather than a later message. This is the polling primitive of the async
  /// progress engine - the CPU checks the wire without blocking.
  std::optional<Message> try_match_arrived(int dst, int src, std::int64_t tag,
                                           double now);

  /// True if some message for dst matches (src, tag) - used by probe.
  bool has_match(int dst, int src, std::int64_t tag) const;

  /// Number of undelivered messages across all ranks (leak check in tests).
  std::size_t pending_total() const;
  std::size_t pending_for(int dst) const;

  /// Drop every pending message of `dst` for which `keep` returns false
  /// (keep == nullptr drops everything). Returns the number of payload
  /// bytes discarded. Used by the recovery path to flush traffic of aborted
  /// collectives after a rank failure.
  std::size_t purge(int dst, const std::function<bool(const Message&)>& keep);

  std::uint64_t next_seq() { return seq_counter_++; }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMinTable = 8;  // kept across a drain

  struct Node {
    Message msg;
    std::uint32_t next = kNil;  // next in the source's FIFO, or free list
  };

  /// One table slot: a source with pending messages, or empty (kAnySource).
  struct Source {
    int src = kAnySource;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  struct Inbox {
    std::vector<Source> table;  // empty or a power-of-two number of slots
    std::size_t sources = 0;    // occupied slots
    std::size_t pending = 0;    // messages
  };

  static std::size_t find_slot(const Inbox& in, int src);
  static void insert(Inbox& in, const Source& s);
  static void erase_slot(Inbox& in, std::size_t slot);

  /// First node of `s`'s FIFO matching `tag` (or kNil); *prev receives its
  /// predecessor in the FIFO (kNil for the head).
  std::uint32_t find_in_source(const Source& s, std::int64_t tag,
                               std::uint32_t* prev) const;

  /// Unlink `node` (after `prev`) from the FIFO in `slot` and return its
  /// message; drops the source from the table when its FIFO empties.
  Message take(Inbox& in, std::size_t slot, std::uint32_t prev,
               std::uint32_t node);

  std::vector<Node> nodes_;  // message pool
  std::uint32_t free_ = kNil;
  std::vector<Inbox> inboxes_;  // one per destination rank
  std::uint64_t seq_counter_ = 0;
};

}  // namespace sim
