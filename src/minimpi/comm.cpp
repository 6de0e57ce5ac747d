#include "minimpi/comm.hpp"

#include <algorithm>
#include <tuple>

#include "obs/obs.hpp"

namespace mpi {

namespace {

// Tag layout (64 bit):
//   [63:44] communicator context id (20 bits)
//   [43]    1 for internal collective traffic, 0 for user point-to-point
//   [42:16] collective sequence number (27 bits)
//   [15:8]  collective round
//   [7:0]   collective op code  -- or, for p2p, [30:0] = user tag
constexpr std::uint64_t kCollectiveBit = 1ULL << 43;
constexpr int kMaxUserTag = (1 << 30) - 1;

// Context id 0xFFFFF is reserved for the rank-failure recovery protocol
// (see recovery.cpp); 0 is the world communicator. mix_context never emits
// the reserved id so recovery traffic can always be told apart.
constexpr std::uint64_t kRecoveryContext = 0xfffff;

std::uint64_t mix_context(std::uint64_t parent, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t h = parent * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
  h ^= a + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= b + 0x94d049bb133111ebULL + (h << 6) + (h >> 2);
  // Final avalanche: without it the low bits of `b` never reach the kept
  // window, so splits with adjacent sequence numbers would share a context
  // id (sibling communicators' traffic would cross-match).
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  h &= 0xfffff;  // 20-bit context id space
  return h == kRecoveryContext ? 0x7a11e : h;
}

}  // namespace

Comm Comm::world(sim::RankCtx& ctx) {
  auto group = std::make_shared<Group>();
  group->world_ranks.resize(static_cast<std::size_t>(ctx.nranks()));
  for (int r = 0; r < ctx.nranks(); ++r)
    group->world_ranks[static_cast<std::size_t>(r)] = r;
  group->context_id = 0;
  return Comm(std::move(group), ctx.rank(), &ctx);
}

int Comm::world_rank(int r) const {
  FCS_CHECK(r >= 0 && r < size(), "rank " << r << " out of range");
  return group_->world_ranks[static_cast<std::size_t>(r)];
}

std::uint64_t Comm::p2p_tag(int user_tag) const {
  FCS_CHECK(user_tag >= 0 && user_tag <= kMaxUserTag,
            "user tag " << user_tag << " out of range");
  return (group_->context_id << 44) | static_cast<std::uint64_t>(user_tag);
}

std::uint64_t Comm::next_collective_tag(InternalOp op) const {
  const std::uint64_t seq = collective_seq_++;
  return (group_->context_id << 44) | kCollectiveBit |
         ((seq & 0x7ffffff) << 16) | static_cast<std::uint64_t>(op);
}

int Comm::comm_rank_of_world(int world) const {
  auto& index = group_->world_to_comm_sorted;
  if (index.empty()) {
    index.reserve(group_->world_ranks.size());
    for (std::size_t i = 0; i < group_->world_ranks.size(); ++i)
      index.emplace_back(group_->world_ranks[i], static_cast<int>(i));
    std::sort(index.begin(), index.end());
  }
  auto it = std::lower_bound(index.begin(), index.end(),
                             std::make_pair(world, -1));
  FCS_CHECK(it != index.end() && it->first == world,
            "engine rank " << world << " is not part of this communicator");
  return it->second;
}

void Comm::send_bytes(const void* data, std::size_t bytes, int dst,
                      int tag) const {
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    o->add("mpi.p2p.msgs", 1.0);
    o->add("mpi.p2p.bytes", static_cast<double>(bytes));
  }
  ctx_->send(world_rank(dst), p2p_tag(tag), data, bytes);
}

Status Comm::recv_bytes(void* data, std::size_t capacity, int src,
                        int tag) const {
  const int world_src = src == kAnySource ? sim::kAnySource : world_rank(src);
  const std::int64_t t =
      tag == kAnyTag ? sim::kAnyTag : static_cast<std::int64_t>(p2p_tag(tag));
  sim::RankCtx::RecvInfo info = ctx_->recv(world_src, t);
  FCS_CHECK(info.payload.size() <= capacity,
            "receive buffer too small: message has " << info.payload.size()
                << " bytes, buffer holds " << capacity);
  if (!info.payload.empty())
    std::memcpy(data, info.payload.data(), info.payload.size());
  Status st;
  st.source = src == kAnySource ? info.src : src;  // world==comm rank only for
  st.tag = static_cast<int>(info.tag & 0x7fffffff);
  st.bytes = info.payload.size();
  if (src == kAnySource) st.source = comm_rank_of_world(info.src);
  return st;
}

std::vector<std::byte> Comm::recv_bytes_vec(int src, int tag,
                                            Status* status) const {
  const int world_src = src == kAnySource ? sim::kAnySource : world_rank(src);
  const std::int64_t t =
      tag == kAnyTag ? sim::kAnyTag : static_cast<std::int64_t>(p2p_tag(tag));
  sim::RankCtx::RecvInfo info = ctx_->recv(world_src, t);
  if (status != nullptr) {
    status->tag = static_cast<int>(info.tag & 0x7fffffff);
    status->bytes = info.payload.size();
    status->source = src == kAnySource ? comm_rank_of_world(info.src) : src;
  }
  return std::move(info.payload);
}

Status Comm::wait(Request& rq) {
  FCS_CHECK(rq.valid(), "wait on an inactive request");
  return rq.wait();
}

void Comm::waitall(Request* requests, std::size_t n) {
  Request::wait_all(requests, n);
}

Comm Comm::split(int color, int key) const {
  // Gather (color, key, rank) from everyone, build my group.
  struct Entry {
    int color, key, rank;
  };
  const Entry mine{color, key, my_rank_};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  allgather(&mine, 1, all.data());

  std::vector<Entry> members;
  for (const Entry& e : all)
    if (e.color == color) members.push_back(e);
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });

  auto group = std::make_shared<Group>();
  int new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group->world_ranks.push_back(world_rank(members[i].rank));
    if (members[i].rank == my_rank_) new_rank = static_cast<int>(i);
  }
  FCS_ASSERT(new_rank >= 0);
  const std::uint64_t seq = group_->next_child_seq++;
  group->context_id = mix_context(group_->context_id,
                                  static_cast<std::uint64_t>(color) + 1, seq);
  return Comm(std::move(group), new_rank, ctx_);
}

Comm Comm::dup() const { return split(0, my_rank_); }

void partners_from_counts(const std::vector<std::size_t>& counts,
                          PartnerList& list) {
  list.clear();
  std::size_t offset = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0)
      list.push_back(Partner{static_cast<int>(i), offset, counts[i]});
    offset += counts[i];
  }
}

void counts_from_partners(const PartnerList& list, int nranks,
                          std::vector<std::size_t>& counts) {
  counts.assign(static_cast<std::size_t>(nranks), 0);
  for (const Partner& e : list) counts[static_cast<std::size_t>(e.rank)] = e.count;
}

namespace detail {

void check_partners(const PartnerList& list, int nranks, const char* op) {
  int prev = -1;
  for (const Partner& e : list) {
    FCS_CHECK(e.rank > prev && e.rank < nranks,
              op << ": partner list must name ranks of [0, " << nranks
                 << ") in ascending order, got rank " << e.rank
                 << " after " << prev);
    prev = e.rank;
  }
}

}  // namespace detail

PartnerIndex::PartnerIndex(const Comm& comm)
    : group_(*comm.group_),
      table_(group_.partner_slot),
      ranks_(group_.partner_ranks) {
  FCS_CHECK(!group_.partner_busy,
            "PartnerIndex: another index of this communicator is live");
  group_.partner_busy = true;
  if (table_.size() != group_.world_ranks.size())
    table_.assign(group_.world_ranks.size(), -1);
  ranks_.clear();
}

PartnerIndex::~PartnerIndex() {
  for (const int r : ranks_) table_[static_cast<std::size_t>(r)] = -1;
  ranks_.clear();
  group_.partner_busy = false;
}

void PartnerIndex::finish(PartnerList& list) {
  std::sort(ranks_.begin(), ranks_.end());
  for (std::size_t i = 0; i < ranks_.size(); ++i)
    table_[static_cast<std::size_t>(ranks_[i])] = static_cast<int>(i);
  // Move every entry to its rank's position; each swap places one entry
  // for good.
  for (std::size_t i = 0; i < list.size(); ++i)
    for (std::size_t to; (to = entry(list[i].rank)) != i;)
      std::swap(list[i], list[to]);
  std::size_t offset = 0;
  for (Partner& e : list) {
    e.offset = offset;
    offset += e.count;
  }
}

}  // namespace mpi
