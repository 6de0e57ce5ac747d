#include "sim/mailbox.hpp"

#include <utility>

#include "support/error.hpp"

namespace sim {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// Home slot of `src` in a table of mask + 1 slots (Fibonacci hashing, so
/// strided neighbour ranks spread as well as contiguous ones).
std::size_t home(int src, std::size_t mask) {
  return static_cast<std::size_t>(
             (static_cast<std::uint64_t>(src) * 0x9E3779B97F4A7C15ull) >> 32) &
         mask;
}

/// The wildcard order: smallest (arrival, src, seq) first.
bool earlier(const Message& a, const Message& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

}  // namespace

Mailbox::Mailbox(int nranks) : inboxes_(static_cast<std::size_t>(nranks)) {}

std::size_t Mailbox::find_slot(const Inbox& in, int src) {
  if (in.table.empty()) return npos;
  const std::size_t mask = in.table.size() - 1;
  for (std::size_t i = home(src, mask);; i = (i + 1) & mask) {
    if (in.table[i].src == src) return i;
    if (in.table[i].src == kAnySource) return npos;
  }
}

void Mailbox::insert(Inbox& in, const Source& s) {
  if (2 * (in.sources + 1) > in.table.size()) {
    std::vector<Source> old = std::move(in.table);
    in.table.assign(old.empty() ? kMinTable : 2 * old.size(), Source{});
    in.sources = 0;
    for (const Source& o : old)
      if (o.src != kAnySource) insert(in, o);
  }
  const std::size_t mask = in.table.size() - 1;
  std::size_t i = home(s.src, mask);
  while (in.table[i].src != kAnySource) i = (i + 1) & mask;
  in.table[i] = s;
  ++in.sources;
}

void Mailbox::erase_slot(Inbox& in, std::size_t hole) {
  // Backward shift: walk the rest of the probe cluster and move back every
  // entry whose home slot does not lie cyclically in (hole, j].
  const std::size_t mask = in.table.size() - 1;
  for (std::size_t j = (hole + 1) & mask; in.table[j].src != kAnySource;
       j = (j + 1) & mask) {
    if (((j - home(in.table[j].src, mask)) & mask) >= ((j - hole) & mask)) {
      in.table[hole] = in.table[j];
      hole = j;
    }
  }
  in.table[hole] = Source{};
  if (--in.sources == 0 && in.table.size() > kMinTable) in.table = {};
}

std::uint32_t Mailbox::find_in_source(const Source& s, std::int64_t tag,
                                      std::uint32_t* prev) const {
  std::uint32_t p = kNil;
  for (std::uint32_t n = s.head; n != kNil; p = n, n = nodes_[n].next) {
    if (tag == kAnyTag ||
        nodes_[n].msg.tag == static_cast<std::uint64_t>(tag)) {
      *prev = p;
      return n;
    }
  }
  return kNil;
}

Message Mailbox::take(Inbox& in, std::size_t slot, std::uint32_t prev,
                      std::uint32_t node) {
  Source& s = in.table[slot];
  const std::uint32_t next = nodes_[node].next;
  if (prev == kNil) s.head = next; else nodes_[prev].next = next;
  if (s.tail == node) s.tail = prev;
  if (s.head == kNil) erase_slot(in, slot);
  --in.pending;
  Message out = std::move(nodes_[node].msg);
  nodes_[node].next = free_;
  free_ = node;
  return out;
}

void Mailbox::deliver(int dst, Message m) {
  FCS_ASSERT(dst >= 0 && static_cast<std::size_t>(dst) < inboxes_.size());
  FCS_ASSERT(m.src >= 0);
  std::uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
    nodes_[node].msg = std::move(m);
    nodes_[node].next = kNil;
  } else {
    FCS_CHECK(nodes_.size() < kNil, "mailbox: too many pending messages");
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{std::move(m), kNil});
  }
  Inbox& in = inboxes_[static_cast<std::size_t>(dst)];
  const int src = nodes_[node].msg.src;
  const std::size_t slot = find_slot(in, src);
  if (slot == npos) {
    insert(in, Source{src, node, node});
  } else {
    nodes_[in.table[slot].tail].next = node;
    in.table[slot].tail = node;
  }
  ++in.pending;
}

std::optional<Message> Mailbox::try_match_arrived(int dst, int src,
                                                  std::int64_t tag,
                                                  double now) {
  Inbox& in = inboxes_[static_cast<std::size_t>(dst)];
  std::size_t best_slot = npos;
  std::uint32_t best = kNil;
  std::uint32_t best_prev = kNil;
  auto consider = [&](std::size_t slot) {
    std::uint32_t prev = kNil;
    const std::uint32_t n = find_in_source(in.table[slot], tag, &prev);
    if (n == kNil) return;
    const Message& m = nodes_[n].msg;
    if (m.arrival > now) return;  // in flight: this source yields nothing
    if (best != kNil && !earlier(m, nodes_[best].msg)) return;
    best_slot = slot;
    best = n;
    best_prev = prev;
  };
  if (src != kAnySource) {
    const std::size_t slot = find_slot(in, src);
    if (slot != npos) consider(slot);
  } else {
    for (std::size_t slot = 0; slot < in.table.size(); ++slot)
      if (in.table[slot].src != kAnySource) consider(slot);
  }
  if (best == kNil) return std::nullopt;
  return take(in, best_slot, best_prev, best);
}

bool Mailbox::has_match(int dst, int src, std::int64_t tag) const {
  const Inbox& in = inboxes_[static_cast<std::size_t>(dst)];
  std::uint32_t prev = kNil;
  if (src != kAnySource) {
    const std::size_t slot = find_slot(in, src);
    return slot != npos && find_in_source(in.table[slot], tag, &prev) != kNil;
  }
  for (const Source& s : in.table)
    if (s.src != kAnySource && find_in_source(s, tag, &prev) != kNil)
      return true;
  return false;
}

std::size_t Mailbox::pending_total() const {
  std::size_t n = 0;
  for (const Inbox& in : inboxes_) n += in.pending;
  return n;
}

std::size_t Mailbox::pending_for(int dst) const {
  return inboxes_[static_cast<std::size_t>(dst)].pending;
}

std::size_t Mailbox::purge(int dst,
                           const std::function<bool(const Message&)>& keep) {
  Inbox& in = inboxes_[static_cast<std::size_t>(dst)];
  std::size_t dropped_bytes = 0;
  // Filter every FIFO in place, then re-insert the sources that keep a
  // message into a fresh table.
  const std::vector<Source> old = std::move(in.table);
  in.table = {};
  in.sources = 0;
  for (const Source& s : old) {
    if (s.src == kAnySource) continue;
    Source kept{s.src, kNil, kNil};
    for (std::uint32_t n = s.head; n != kNil;) {
      Node& node = nodes_[n];
      const std::uint32_t next = node.next;
      if (keep != nullptr && keep(node.msg)) {
        if (kept.head == kNil) kept.head = n; else nodes_[kept.tail].next = n;
        kept.tail = n;
        node.next = kNil;
      } else {
        dropped_bytes += node.msg.payload.size();
        node.msg = Message{};
        node.next = free_;
        free_ = n;
        --in.pending;
      }
      n = next;
    }
    if (kept.head != kNil) insert(in, kept);
  }
  return dropped_bytes;
}

}  // namespace sim
