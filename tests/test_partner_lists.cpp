// Partner-list exchange schedules (DESIGN.md, "Exchange schedules as
// partner lists").
//
// Differential tests: the sparse, dense and sparse known-sizes, async and
// neighbourhood exchanges and the ExchangePlan / FusedBatch schedules take
// rank-sorted partner lists; namespace ref below keeps the one-entry-per-rank
// implementations they replaced, copied verbatim except where a private
// minimpi member had to be reached through the public API (collective tags
// are drawn from a local sequence, and the async known-sizes exchange is a
// start/wait pair instead of a Request). Both run the same patterns at
// P in {1, 2, 3, 7, 12} on a torus, including ranks without partners,
// self-only data, all-silent ranks and duplicated ghost targets, and must
// agree on the received bytes, the receive counts, every rank's virtual
// clock and every obs counter.
//
// P-independence: this binary counts global operator new, and a
// steady-state neighbourhood exchange on a 3-D periodic grid (26 neighbours
// per rank) must allocate the same bytes per rank at P = 27 and P = 64.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "redist/conserve.hpp"
#include "redist/exchange_plan.hpp"
#include "redist/neighborhood.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sortlib/carry.hpp"

// --- counting global operator new --------------------------------------------

namespace {
bool g_count_allocs = false;
std::size_t g_alloc_bytes = 0;
std::size_t g_alloc_blocks = 0;
}  // namespace

// GCC cannot tell that these free() calls pair with the malloc() above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs) {
    g_alloc_bytes += n;
    ++g_alloc_blocks;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using redist::ExchangeKind;

namespace {

// --- references: the one-entry-per-rank implementations ----------------------

namespace ref {

const std::byte* as_bytes(const void* p) {
  return static_cast<const std::byte*>(p);
}
std::byte* as_bytes(void* p) { return static_cast<std::byte*>(p); }

// Engine tags for the reference exchanges: user point-to-point space of a
// context no communicator uses, one tag per call from a per-rank sequence
// (run_case resets it), so every rank draws the same tag for the same call.
std::vector<std::uint64_t> g_tag_seq;

std::uint64_t next_tag(const mpi::Comm& comm) {
  std::uint64_t& seq = g_tag_seq[static_cast<std::size_t>(comm.ctx().rank())];
  return (0x7eadULL << 44) | (++seq & 0x3fffffff);
}

std::vector<std::byte> sparse_alltoallv_bytes(
    const mpi::Comm& comm, const void* in,
    const std::vector<std::size_t>& send_bytes,
    std::vector<std::size_t>& recv_bytes) {
  sim::RankCtx* const ctx_ = &comm.ctx();
  obs::Span span(ctx_->obs(), "mpi.sparse_alltoallv");
  const int p = comm.size();
  const int r = comm.rank();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p,
            "sparse_alltoallv needs one send size per rank");
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    double moved = 0.0;
    double partners = 0.0;
    for (int i = 0; i < p; ++i) {
      if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
      moved += static_cast<double>(send_bytes[static_cast<std::size_t>(i)]);
      partners += 1.0;
    }
    o->add("mpi.sparse_alltoallv.calls", 1.0);
    o->add("mpi.sparse_alltoallv.bytes", moved);
    o->add("mpi.sparse_alltoallv.partners", partners);
  }
  const std::uint64_t tag = next_tag(comm);

  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i)
    send_offsets[static_cast<std::size_t>(i) + 1] =
        send_offsets[static_cast<std::size_t>(i)] + send_bytes[static_cast<std::size_t>(i)];

  recv_bytes.assign(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<std::byte>> incoming(static_cast<std::size_t>(p));
  if (send_bytes[static_cast<std::size_t>(r)] > 0) {
    incoming[static_cast<std::size_t>(r)].assign(
        as_bytes(in) + send_offsets[static_cast<std::size_t>(r)],
        as_bytes(in) + send_offsets[static_cast<std::size_t>(r) + 1]);
    recv_bytes[static_cast<std::size_t>(r)] = send_bytes[static_cast<std::size_t>(r)];
  }

  for (int i = 0; i < p; ++i) {
    if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    ctx_->send(comm.world_rank(i), tag,
               as_bytes(in) + send_offsets[static_cast<std::size_t>(i)],
               send_bytes[static_cast<std::size_t>(i)]);
  }
  comm.barrier();
  while (ctx_->can_recv(sim::kAnySource, static_cast<std::int64_t>(tag))) {
    sim::RankCtx::RecvInfo info =
        ctx_->recv(sim::kAnySource, static_cast<std::int64_t>(tag));
    const auto src = static_cast<std::size_t>(info.src);  // world comm
    FCS_CHECK(incoming[src].empty() || src == static_cast<std::size_t>(r),
              "duplicate sparse message from rank " << src);
    recv_bytes[src] = info.payload.size();
    incoming[src] = std::move(info.payload);
  }

  std::size_t total = 0;
  for (std::size_t b : recv_bytes) total += b;
  std::vector<std::byte> out(total);
  std::size_t pos = 0;
  for (int i = 0; i < p; ++i) {
    const auto& blk = incoming[static_cast<std::size_t>(i)];
    if (!blk.empty()) std::memcpy(out.data() + pos, blk.data(), blk.size());
    pos += blk.size();
  }
  return out;
}

void sparse_alltoallv_bytes_known(const mpi::Comm& comm, const void* in,
                                  const std::vector<std::size_t>& send_bytes,
                                  const std::vector<std::size_t>& recv_bytes,
                                  void* out) {
  sim::RankCtx* const ctx_ = &comm.ctx();
  obs::Span span(ctx_->obs(), "mpi.sparse_alltoallv_known");
  const int p = comm.size();
  const int r = comm.rank();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p &&
                static_cast<int>(recv_bytes.size()) == p,
            "sparse_alltoallv_known needs one send and one recv size per rank");
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    double moved = 0.0;
    double partners = 0.0;
    for (int i = 0; i < p; ++i) {
      if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
      moved += static_cast<double>(send_bytes[static_cast<std::size_t>(i)]);
      partners += 1.0;
    }
    o->add("mpi.sparse_alltoallv_known.calls", 1.0);
    o->add("mpi.sparse_alltoallv_known.bytes", moved);
    o->add("mpi.sparse_alltoallv_known.partners", partners);
  }
  const std::uint64_t tag = next_tag(comm);

  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(p) + 1, 0);
  std::vector<std::size_t> recv_offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i) {
    send_offsets[static_cast<std::size_t>(i) + 1] =
        send_offsets[static_cast<std::size_t>(i)] + send_bytes[static_cast<std::size_t>(i)];
    recv_offsets[static_cast<std::size_t>(i) + 1] =
        recv_offsets[static_cast<std::size_t>(i)] + recv_bytes[static_cast<std::size_t>(i)];
  }
  FCS_CHECK(send_bytes[static_cast<std::size_t>(r)] ==
                recv_bytes[static_cast<std::size_t>(r)],
            "sparse_alltoallv_known: self send/recv size mismatch");
  if (send_bytes[static_cast<std::size_t>(r)] > 0)
    std::memcpy(as_bytes(out) + recv_offsets[static_cast<std::size_t>(r)],
                as_bytes(in) + send_offsets[static_cast<std::size_t>(r)],
                send_bytes[static_cast<std::size_t>(r)]);

  for (int i = 0; i < p; ++i) {
    if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    ctx_->send(comm.world_rank(i), tag,
               as_bytes(in) + send_offsets[static_cast<std::size_t>(i)],
               send_bytes[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < p; ++i) {
    if (i == r || recv_bytes[static_cast<std::size_t>(i)] == 0) continue;
    sim::RankCtx::RecvInfo info =
        ctx_->recv(comm.world_rank(i), static_cast<std::int64_t>(tag));
    FCS_CHECK(info.payload.size() == recv_bytes[static_cast<std::size_t>(i)],
              "sparse_alltoallv_known data size mismatch from rank " << i);
    std::memcpy(as_bytes(out) + recv_offsets[static_cast<std::size_t>(i)],
                info.payload.data(), info.payload.size());
  }
}

void alltoallv_bytes_known(const mpi::Comm& comm, const void* in,
                           const std::vector<std::size_t>& send_bytes,
                           const std::vector<std::size_t>& recv_bytes,
                           void* out) {
  sim::RankCtx* const ctx_ = &comm.ctx();
  obs::Span span(ctx_->obs(), "mpi.alltoallv_known");
  obs::count(ctx_->obs(), "mpi.alltoallv_known.calls", 1.0);
  const int p = comm.size();
  const int r = comm.rank();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p &&
                static_cast<int>(recv_bytes.size()) == p,
            "alltoallv_known needs one send and one recv size per rank");
  const std::uint64_t tag = next_tag(comm);

  // Same fabric model as the data phase of alltoallv_bytes: the dense
  // exchange touches every pair and contends for the bisection; only the
  // counts transpose is gone because both sides already know the sizes.
  std::size_t total_send = 0;
  for (int i = 0; i < p; ++i)
    if (i != r) total_send += send_bytes[static_cast<std::size_t>(i)];
  obs::count(ctx_->obs(), "mpi.alltoallv_known.bytes",
             static_cast<double>(total_send));
  ctx_->advance(
      ctx_->config().network->dense_exchange_latency(ctx_->rank(), p) +
      static_cast<double>(total_send) *
          ctx_->config().network->dense_exchange_byte_time(p));

  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(p) + 1, 0);
  std::vector<std::size_t> recv_offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i) {
    send_offsets[static_cast<std::size_t>(i) + 1] =
        send_offsets[static_cast<std::size_t>(i)] + send_bytes[static_cast<std::size_t>(i)];
    recv_offsets[static_cast<std::size_t>(i) + 1] =
        recv_offsets[static_cast<std::size_t>(i)] + recv_bytes[static_cast<std::size_t>(i)];
  }
  FCS_CHECK(send_bytes[static_cast<std::size_t>(r)] ==
                recv_bytes[static_cast<std::size_t>(r)],
            "alltoallv_known: self send/recv size mismatch");

  if (send_bytes[static_cast<std::size_t>(r)] > 0)
    std::memcpy(as_bytes(out) + recv_offsets[static_cast<std::size_t>(r)],
                as_bytes(in) + send_offsets[static_cast<std::size_t>(r)],
                send_bytes[static_cast<std::size_t>(r)]);

  for (int i = 0; i < p; ++i) {
    if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    ctx_->send(comm.world_rank(i), tag,
               as_bytes(in) + send_offsets[static_cast<std::size_t>(i)],
               send_bytes[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < p; ++i) {
    if (i == r || recv_bytes[static_cast<std::size_t>(i)] == 0) continue;
    sim::RankCtx::RecvInfo info =
        ctx_->recv(comm.world_rank(i), static_cast<std::int64_t>(tag));
    FCS_CHECK(info.payload.size() == recv_bytes[static_cast<std::size_t>(i)],
              "alltoallv_known data size mismatch from rank " << i);
    std::memcpy(as_bytes(out) + recv_offsets[static_cast<std::size_t>(i)],
                info.payload.data(), info.payload.size());
  }
}

/// isparse_alltoallv_bytes_known as a start/wait pair: start() is the
/// request creation (self copy, async sends, pending list in ascending
/// partner order), wait() the blocking drain of Request::wait().
struct KnownAsync {
  struct Pending {
    int world_src;
    std::size_t bytes;
    std::size_t offset;
  };
  const mpi::Comm* comm = nullptr;
  std::uint64_t tag = 0;
  std::byte* out = nullptr;
  std::vector<Pending> pending;

  void wait() {
    sim::RankCtx& ctx = comm->ctx();
    for (const Pending& pd : pending) {
      sim::RankCtx::RecvInfo info =
          ctx.recv(pd.world_src, static_cast<std::int64_t>(tag));
      FCS_CHECK(info.payload.size() == pd.bytes,
                "async exchange size mismatch from world rank "
                    << pd.world_src);
      std::memcpy(out + pd.offset, info.payload.data(), info.payload.size());
    }
  }
};

KnownAsync isparse_alltoallv_bytes_known(
    const mpi::Comm& comm, const void* in,
    const std::vector<std::size_t>& send_bytes,
    const std::vector<std::size_t>& recv_bytes, void* out) {
  sim::RankCtx* const ctx_ = &comm.ctx();
  const int p = comm.size();
  const int r = comm.rank();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p &&
                static_cast<int>(recv_bytes.size()) == p,
            "isparse_alltoallv_known needs one send and one recv size per rank");
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    double moved = 0.0;
    double partners = 0.0;
    for (int i = 0; i < p; ++i) {
      if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
      moved += static_cast<double>(send_bytes[static_cast<std::size_t>(i)]);
      partners += 1.0;
    }
    o->add("mpi.isparse_alltoallv_known.calls", 1.0);
    o->add("mpi.isparse_alltoallv_known.bytes", moved);
    o->add("mpi.isparse_alltoallv_known.partners", partners);
  }
  const std::uint64_t tag = next_tag(comm);
  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(p) + 1, 0);
  std::vector<std::size_t> recv_offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i) {
    send_offsets[static_cast<std::size_t>(i) + 1] =
        send_offsets[static_cast<std::size_t>(i)] +
        send_bytes[static_cast<std::size_t>(i)];
    recv_offsets[static_cast<std::size_t>(i) + 1] =
        recv_offsets[static_cast<std::size_t>(i)] +
        recv_bytes[static_cast<std::size_t>(i)];
  }
  FCS_CHECK(send_bytes[static_cast<std::size_t>(r)] ==
                recv_bytes[static_cast<std::size_t>(r)],
            "async exchange: self send/recv size mismatch");
  KnownAsync st;
  st.comm = &comm;
  st.tag = tag;
  st.out = static_cast<std::byte*>(out);
  if (send_bytes[static_cast<std::size_t>(r)] > 0)
    std::memcpy(st.out + recv_offsets[static_cast<std::size_t>(r)],
                as_bytes(in) + send_offsets[static_cast<std::size_t>(r)],
                send_bytes[static_cast<std::size_t>(r)]);
  for (int i = 0; i < p; ++i) {
    if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    ctx_->send_async(comm.world_rank(i), tag,
                     as_bytes(in) + send_offsets[static_cast<std::size_t>(i)],
                     send_bytes[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < p; ++i) {
    if (i == r || recv_bytes[static_cast<std::size_t>(i)] == 0) continue;
    st.pending.push_back(KnownAsync::Pending{
        comm.world_rank(i), recv_bytes[static_cast<std::size_t>(i)],
        recv_offsets[static_cast<std::size_t>(i)]});
  }
  return st;
}

template <class T>
std::vector<T> neighborhood_alltoallv(const mpi::Comm& comm,
                                      const std::vector<int>& neighbors,
                                      const T* data,
                                      const std::vector<std::size_t>& send_counts,
                                      std::vector<std::size_t>& recv_counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  obs::Span span(comm.ctx().obs(), "redist.neighborhood");
  const int p = comm.size();
  const int r = comm.rank();
  FCS_CHECK(static_cast<int>(send_counts.size()) == p,
            "need one send count per rank");
  constexpr int kTag = 0x1eab;  // any fixed user tag works: BSP usage

  std::vector<char> is_neighbor(static_cast<std::size_t>(p), 0);
  for (int n : neighbors) {
    FCS_CHECK(n >= 0 && n < p && n != r, "invalid neighbor rank " << n);
    is_neighbor[static_cast<std::size_t>(n)] = 1;
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int d = 0; d < p; ++d) {
    FCS_CHECK(send_counts[static_cast<std::size_t>(d)] == 0 || d == r ||
                  is_neighbor[static_cast<std::size_t>(d)],
              "neighborhood exchange: data for non-neighbor rank " << d);
    offsets[static_cast<std::size_t>(d) + 1] =
        offsets[static_cast<std::size_t>(d)] + send_counts[static_cast<std::size_t>(d)];
  }

  if (obs::RankObs* const o = comm.ctx().obs(); o != nullptr) {
    double moved = 0.0;
    for (int n : neighbors)
      moved += static_cast<double>(send_counts[static_cast<std::size_t>(n)]);
    o->add("redist.neighborhood.calls", 1.0);
    o->add("redist.neighborhood.elements_moved", moved);
    o->add("redist.neighborhood.bytes_moved", moved * sizeof(T));
  }

  for (int n : neighbors)
    comm.send(data + offsets[static_cast<std::size_t>(n)],
              send_counts[static_cast<std::size_t>(n)], n, kTag);

  recv_counts.assign(static_cast<std::size_t>(p), 0);
  recv_counts[static_cast<std::size_t>(r)] = send_counts[static_cast<std::size_t>(r)];
  std::vector<std::vector<std::byte>> incoming(static_cast<std::size_t>(p));
  for (int n : neighbors) {
    incoming[static_cast<std::size_t>(n)] = comm.recv_bytes_vec(n, kTag, nullptr);
    const std::size_t bytes = incoming[static_cast<std::size_t>(n)].size();
    FCS_CHECK(bytes % sizeof(T) == 0,
              "neighborhood exchange: received " << bytes
                  << " bytes, not a multiple of element size " << sizeof(T));
    recv_counts[static_cast<std::size_t>(n)] = bytes / sizeof(T);
  }

  std::size_t total = 0;
  for (std::size_t c : recv_counts) total += c;
  std::vector<T> out(total);
  std::size_t at = 0;
  for (int src = 0; src < p; ++src) {
    if (src == r) {
      const std::size_t n_self = send_counts[static_cast<std::size_t>(r)];
      if (n_self > 0)
        std::memcpy(out.data() + at, data + offsets[static_cast<std::size_t>(r)],
                    n_self * sizeof(T));
      at += n_self;
    } else {
      const auto& blk = incoming[static_cast<std::size_t>(src)];
      if (!blk.empty()) std::memcpy(out.data() + at, blk.data(), blk.size());
      at += blk.size() / sizeof(T);
    }
  }
  if (redist::validation_enabled())
    redist::validate_exchange(
        comm, "neighborhood_alltoallv", offsets.back(),
        redist::content_checksum(data, offsets.back(), sizeof(T)), out.size(),
        redist::content_checksum(out.data(), out.size(), sizeof(T)));
  return out;
}

class FusedBatch;

class ExchangePlan {
 public:
  template <class DistFn>
  static ExchangePlan build(const mpi::Comm& comm, std::size_t n_items,
                            DistFn&& dist, ExchangeKind kind) {
    ExchangePlan plan;
    plan.kind_ = kind;
    plan.nranks_ = comm.size();
    plan.n_items_ = n_items;
    const int p = plan.nranks_;
    FCS_CHECK(n_items <= 0xffffffffULL, "more than 2^32 local items");
    obs::count(comm.ctx().obs(), "redist.plan.builds", 1.0);

    std::vector<int> targets;
    std::vector<int> target_of_slot;
    std::vector<std::size_t> first_slot(n_items + 1, 0);
    plan.send_counts_.assign(static_cast<std::size_t>(p), 0);
    for (std::size_t i = 0; i < n_items; ++i) {
      targets.clear();
      dist(i, targets);
      for (int t : targets) {
        FCS_CHECK(t >= 0 && t < p, "distribution function returned rank "
                      << t << " outside the communicator (size " << p << ")");
        ++plan.send_counts_[static_cast<std::size_t>(t)];
        target_of_slot.push_back(t);
      }
      first_slot[i + 1] = target_of_slot.size();
    }

    plan.send_offsets_.assign(static_cast<std::size_t>(p) + 1, 0);
    for (int d = 0; d < p; ++d)
      plan.send_offsets_[static_cast<std::size_t>(d) + 1] =
          plan.send_offsets_[static_cast<std::size_t>(d)] +
          plan.send_counts_[static_cast<std::size_t>(d)];
    plan.slot_src_.resize(target_of_slot.size());
    std::vector<std::size_t> cursor(plan.send_offsets_.begin(),
                                    plan.send_offsets_.end() - 1);
    for (std::size_t i = 0; i < n_items; ++i)
      for (std::size_t k = first_slot[i]; k < first_slot[i + 1]; ++k)
        plan.slot_src_[cursor[static_cast<std::size_t>(target_of_slot[k])]++] =
            static_cast<std::uint32_t>(i);
    return plan;
  }

  std::size_t n_items() const { return n_items_; }
  std::size_t n_send_slots() const { return slot_src_.size(); }
  bool counts_known() const { return counts_known_; }
  const std::vector<std::size_t>& recv_counts() const {
    FCS_CHECK(counts_known_, "ExchangePlan: receive counts not known yet");
    return recv_counts_;
  }
  std::size_t n_recv_total() const {
    FCS_CHECK(counts_known_, "ExchangePlan: receive counts not known yet");
    return recv_offsets_.back();
  }

  void negotiate(const mpi::Comm& comm) {
    obs::Span span(comm.ctx().obs(), "redist.exchange.negotiate");
    const int p = nranks_;
    if (kind_ == ExchangeKind::kDense) {
      std::vector<std::uint64_t> sc(send_counts_.begin(), send_counts_.end());
      std::vector<std::uint64_t> rc(static_cast<std::size_t>(p));
      comm.alltoall(sc.data(), 1, rc.data());
      set_recv_counts(std::vector<std::size_t>(rc.begin(), rc.end()));
      return;
    }
    std::vector<std::uint64_t> payload(static_cast<std::size_t>(p));
    std::vector<std::size_t> send_bytes(static_cast<std::size_t>(p), 0);
    for (int i = 0; i < p; ++i) {
      payload[static_cast<std::size_t>(i)] =
          send_counts_[static_cast<std::size_t>(i)];
      if (send_counts_[static_cast<std::size_t>(i)] > 0)
        send_bytes[static_cast<std::size_t>(i)] = sizeof(std::uint64_t);
    }
    std::vector<std::byte> dense(static_cast<std::size_t>(p) *
                                 sizeof(std::uint64_t));
    std::size_t pos = 0;
    for (int i = 0; i < p; ++i) {
      if (send_bytes[static_cast<std::size_t>(i)] == 0) continue;
      std::memcpy(dense.data() + pos, &payload[static_cast<std::size_t>(i)],
                  sizeof(std::uint64_t));
      pos += sizeof(std::uint64_t);
    }
    std::vector<std::size_t> recv_bytes;
    std::vector<std::byte> raw =
        ref::sparse_alltoallv_bytes(comm, dense.data(), send_bytes, recv_bytes);
    std::vector<std::size_t> rc(static_cast<std::size_t>(p), 0);
    pos = 0;
    for (int i = 0; i < p; ++i) {
      if (recv_bytes[static_cast<std::size_t>(i)] == 0) continue;
      FCS_CHECK(recv_bytes[static_cast<std::size_t>(i)] == sizeof(std::uint64_t),
                "ExchangePlan::negotiate: malformed count message");
      std::uint64_t c = 0;
      std::memcpy(&c, raw.data() + pos, sizeof c);
      rc[static_cast<std::size_t>(i)] = static_cast<std::size_t>(c);
      pos += sizeof(std::uint64_t);
    }
    set_recv_counts(std::move(rc));
  }

  void set_recv_counts(std::vector<std::size_t> recv_counts) {
    FCS_CHECK(static_cast<int>(recv_counts.size()) == nranks_,
              "ExchangePlan: need one receive count per rank");
    recv_counts_ = std::move(recv_counts);
    recv_offsets_.assign(static_cast<std::size_t>(nranks_) + 1, 0);
    for (int i = 0; i < nranks_; ++i)
      recv_offsets_[static_cast<std::size_t>(i) + 1] =
          recv_offsets_[static_cast<std::size_t>(i)] +
          recv_counts_[static_cast<std::size_t>(i)];
    counts_known_ = true;
  }

  template <class T>
  std::vector<T> exchange_initial(const mpi::Comm& comm, const T* data) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::RankObs* const o = comm.ctx().obs();
    obs::Span span(o, "redist.exchange.initial");
    mpi::PooledBuffer packed(comm.pool(), slot_src_.size() * sizeof(T), o);
    pack_into(data, sizeof(T), packed.data());
    scratch_counts(send_counts_, sizeof(T), send_bytes_scratch_);
    std::vector<std::size_t> recv_bytes;
    std::vector<std::byte> raw =
        kind_ == ExchangeKind::kDense
            ? comm.alltoallv_bytes(packed.data(), send_bytes_scratch_,
                                   recv_bytes)
            : ref::sparse_alltoallv_bytes(comm, packed.data(),
                                          send_bytes_scratch_, recv_bytes);
    std::vector<std::size_t> rc(recv_bytes.size());
    for (std::size_t i = 0; i < recv_bytes.size(); ++i) {
      FCS_ASSERT(recv_bytes[i] % sizeof(T) == 0);
      rc[i] = recv_bytes[i] / sizeof(T);
    }
    set_recv_counts(std::move(rc));
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  template <class T>
  std::vector<T> apply(const mpi::Comm& comm, const T* data,
                       std::size_t components = 1,
                       const std::uint32_t* placement = nullptr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    FCS_CHECK(counts_known_, "ExchangePlan::apply before counts are known");
    obs::RankObs* const o = comm.ctx().obs();
    obs::Span span(o, "redist.exchange.apply");
    const std::size_t item_bytes = components * sizeof(T);
    obs::count(o, "redist.plan.applies", 1.0);

    mpi::PooledBuffer packed(comm.pool(), slot_src_.size() * item_bytes, o);
    pack_into(data, item_bytes, packed.data());
    scratch_counts(send_counts_, item_bytes, send_bytes_scratch_);
    scratch_counts(recv_counts_, item_bytes, recv_bytes_scratch_);

    std::vector<T> out(n_recv_total() * components);
    if (placement == nullptr) {
      run_known(comm, packed.data(), reinterpret_cast<std::byte*>(out.data()));
      if (redist::validation_enabled())
        redist::validate_exchange(
            comm, "exchange_plan_apply", slot_src_.size(),
            redist::content_checksum(packed.data(), slot_src_.size(),
                                     item_bytes),
            n_recv_total(),
            redist::content_checksum(out.data(), n_recv_total(), item_bytes));
    } else {
      mpi::PooledBuffer staged(comm.pool(), n_recv_total() * item_bytes, o);
      run_known(comm, packed.data(), staged.data());
      if (redist::validation_enabled())
        redist::validate_exchange(
            comm, "exchange_plan_apply", slot_src_.size(),
            redist::content_checksum(packed.data(), slot_src_.size(),
                                     item_bytes),
            n_recv_total(),
            redist::content_checksum(staged.data(), n_recv_total(),
                                     item_bytes));
      sortlib::scatter_rows(staged.data(),
                            reinterpret_cast<std::byte*>(out.data()),
                            placement, n_recv_total(), item_bytes);
    }
    return out;
  }

 private:
  friend class FusedBatch;

  void pack_into(const void* data, std::size_t item_bytes,
                 std::byte* out) const {
    sortlib::gather_rows(static_cast<const std::byte*>(data), out,
                         slot_src_.data(), slot_src_.size(), item_bytes);
  }

  static void scratch_counts(const std::vector<std::size_t>& counts,
                             std::size_t item_bytes,
                             std::vector<std::size_t>& out) {
    out.resize(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
      out[i] = counts[i] * item_bytes;
  }

  void run_known(const mpi::Comm& comm, const std::byte* packed,
                 std::byte* out) const {
    if (kind_ == ExchangeKind::kDense)
      ref::alltoallv_bytes_known(comm, packed, send_bytes_scratch_,
                                 recv_bytes_scratch_, out);
    else
      ref::sparse_alltoallv_bytes_known(comm, packed, send_bytes_scratch_,
                                        recv_bytes_scratch_, out);
  }

  ExchangeKind kind_ = ExchangeKind::kDense;
  int nranks_ = 0;
  std::size_t n_items_ = 0;
  std::vector<std::uint32_t> slot_src_;
  std::vector<std::size_t> send_counts_;
  std::vector<std::size_t> send_offsets_;
  std::vector<std::size_t> recv_counts_;
  std::vector<std::size_t> recv_offsets_;
  bool counts_known_ = false;
  mutable std::vector<std::size_t> send_bytes_scratch_;
  mutable std::vector<std::size_t> recv_bytes_scratch_;
};

class FusedBatch {
 public:
  FusedBatch(const mpi::Comm& comm, const ExchangePlan& plan,
             const std::uint32_t* placement = nullptr)
      : comm_(&comm), plan_(&plan), placement_(placement) {}

  template <class T>
  void add(const std::vector<T>& data, std::size_t components,
           std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    FCS_CHECK(data.size() == plan_->n_items() * components,
              "FusedBatch: payload has " << data.size() << " values, expected "
                  << components << " x " << plan_->n_items());
    Segment seg;
    seg.src = reinterpret_cast<const std::byte*>(data.data());
    seg.item_bytes = components * sizeof(T);
    seg.out_vec = &out;
    seg.resize_out = [](void* vec, std::size_t n_bytes) -> std::byte* {
      auto* v = static_cast<std::vector<T>*>(vec);
      v->resize(n_bytes / sizeof(T));
      return reinterpret_cast<std::byte*>(v->data());
    };
    segments_.push_back(seg);
  }

  void execute() {
    if (segments_.empty()) return;
    const ExchangePlan& plan = *plan_;
    FCS_CHECK(plan.counts_known(),
              "FusedBatch: plan receive counts not known yet");
    const mpi::Comm& comm = *comm_;
    obs::RankObs* const o = comm.ctx().obs();
    obs::Span span(o, "redist.exchange.fused");
    const int p = plan.nranks_;
    const int r = comm.rank();
    const std::size_t nseg = segments_.size();
    FCS_CHECK(nseg <= 0xffff, "FusedBatch: too many segments");
    std::size_t payload_bytes = 0;
    for (const Segment& s : segments_) payload_bytes += s.item_bytes;

    auto msg_bytes = [&](std::size_t items) {
      return items > 0 ? sizeof(Header) + items * payload_bytes : 0;
    };
    ExchangePlan::scratch_counts(plan.send_counts_, 1, plan.send_bytes_scratch_);
    ExchangePlan::scratch_counts(plan.recv_counts_, 1, plan.recv_bytes_scratch_);
    std::size_t send_total = 0;
    std::size_t recv_total = 0;
    for (int i = 0; i < p; ++i) {
      plan.send_bytes_scratch_[static_cast<std::size_t>(i)] =
          msg_bytes(plan.send_counts_[static_cast<std::size_t>(i)]);
      plan.recv_bytes_scratch_[static_cast<std::size_t>(i)] =
          msg_bytes(plan.recv_counts_[static_cast<std::size_t>(i)]);
      send_total += plan.send_bytes_scratch_[static_cast<std::size_t>(i)];
      recv_total += plan.recv_bytes_scratch_[static_cast<std::size_t>(i)];
    }

    mpi::PooledBuffer send_buf(comm.pool(), send_total, o);
    std::uint64_t sent_sum = 0;
    const bool validate = redist::validation_enabled();
    {
      std::size_t pos = 0;
      for (int d = 0; d < p; ++d) {
        const std::size_t items = plan.send_counts_[static_cast<std::size_t>(d)];
        if (items == 0) continue;
        Header h;
        h.magic = kMagic;
        h.nseg = static_cast<std::uint16_t>(nseg);
        h.items = items;
        std::memcpy(send_buf.data() + pos, &h, sizeof h);
        pos += sizeof h;
        const std::size_t first = plan.send_offsets_[static_cast<std::size_t>(d)];
        for (const Segment& s : segments_) {
          sortlib::gather_rows(s.src, send_buf.data() + pos,
                               plan.slot_src_.data() + first, items,
                               s.item_bytes);
          if (validate)
            sent_sum += redist::content_checksum(send_buf.data() + pos, items,
                                                 s.item_bytes);
          pos += items * s.item_bytes;
        }
      }
      FCS_ASSERT(pos == send_total);
    }

    mpi::PooledBuffer recv_buf(comm.pool(), recv_total, o);
    if (plan.kind_ == ExchangeKind::kDense)
      ref::alltoallv_bytes_known(comm, send_buf.data(),
                                 plan.send_bytes_scratch_,
                                 plan.recv_bytes_scratch_, recv_buf.data());
    else
      ref::sparse_alltoallv_bytes_known(comm, send_buf.data(),
                                        plan.send_bytes_scratch_,
                                        plan.recv_bytes_scratch_,
                                        recv_buf.data());

    const std::size_t n_recv = plan.n_recv_total();
    std::vector<std::byte*> out_ptr(nseg);
    for (std::size_t s = 0; s < nseg; ++s)
      out_ptr[s] =
          segments_[s].resize_out(segments_[s].out_vec,
                                  n_recv * segments_[s].item_bytes);
    std::uint64_t recv_sum = 0;
    {
      std::size_t pos = 0;
      for (int src = 0; src < p; ++src) {
        const std::size_t items =
            plan.recv_counts_[static_cast<std::size_t>(src)];
        if (items == 0) continue;
        Header h;
        std::memcpy(&h, recv_buf.data() + pos, sizeof h);
        FCS_CHECK(h.magic == kMagic && h.nseg == nseg && h.items == items,
                  "FusedBatch: malformed fused message from rank " << src);
        pos += sizeof h;
        const std::size_t slot0 =
            plan.recv_offsets_[static_cast<std::size_t>(src)];
        for (std::size_t s = 0; s < nseg; ++s) {
          const std::size_t ib = segments_[s].item_bytes;
          if (placement_ == nullptr)
            std::memcpy(out_ptr[s] + slot0 * ib, recv_buf.data() + pos,
                        items * ib);
          else
            sortlib::scatter_rows(recv_buf.data() + pos, out_ptr[s],
                                  placement_ + slot0, items, ib);
          if (validate)
            recv_sum += redist::content_checksum(recv_buf.data() + pos, items,
                                                 ib);
          pos += items * ib;
        }
      }
      FCS_ASSERT(pos == recv_total);
    }
    if (validate)
      redist::validate_exchange(comm, "fused_exchange",
                                plan.n_send_slots() * nseg, sent_sum,
                                n_recv * nseg, recv_sum);

    if (o != nullptr) {
      std::size_t moved = 0;
      for (int i = 0; i < p; ++i)
        if (i != r) moved += plan.send_bytes_scratch_[static_cast<std::size_t>(i)];
      o->add("redist.fused.batches", 1.0);
      o->add("redist.fused.segments", static_cast<double>(nseg));
      o->add("redist.fused.elements",
             static_cast<double>(plan.n_send_slots() * nseg));
      o->add("redist.fused.bytes_moved", static_cast<double>(moved));
    }
    segments_.clear();
  }

  std::size_t async_begin(std::size_t slabs) {
    FCS_CHECK(async_ == nullptr, "FusedBatch: async run already in progress");
    if (segments_.empty()) return 0;
    const ExchangePlan& plan = *plan_;
    FCS_CHECK(plan.counts_known(),
              "FusedBatch: plan receive counts not known yet");
    const mpi::Comm& comm = *comm_;
    obs::RankObs* const o = comm.ctx().obs();
    const int p = plan.nranks_;
    const int r = comm.rank();
    FCS_CHECK(segments_.size() <= 0xffff, "FusedBatch: too many segments");

    auto run = std::make_unique<AsyncRun>();
    for (const Segment& s : segments_) run->payload_bytes += s.item_bytes;
    run->validate = redist::validation_enabled();
    run->slabs = std::max<std::size_t>(
        1, std::min(slabs, static_cast<std::size_t>(p)));
    run->slab.resize(run->slabs);

    const auto msg_bytes = [&](std::size_t items) {
      return items > 0 ? sizeof(Header) + items * run->payload_bytes : 0;
    };
    for (AsyncSlab& sl : run->slab) {
      sl.send_bytes.assign(static_cast<std::size_t>(p), 0);
      sl.recv_bytes.assign(static_cast<std::size_t>(p), 0);
    }
    for (int i = 0; i < p; ++i) {
      AsyncSlab& sl = run->slab[static_cast<std::size_t>(r + i) % run->slabs];
      const std::size_t sb =
          msg_bytes(plan.send_counts_[static_cast<std::size_t>(i)]);
      const std::size_t rb =
          msg_bytes(plan.recv_counts_[static_cast<std::size_t>(i)]);
      sl.send_bytes[static_cast<std::size_t>(i)] = sb;
      sl.recv_bytes[static_cast<std::size_t>(i)] = rb;
      sl.send_total += sb;
      sl.recv_total += rb;
    }
    for (AsyncSlab& sl : run->slab) {
      sl.send_buf =
          std::make_unique<mpi::PooledBuffer>(comm.pool(), sl.send_total, o);
      sl.recv_buf =
          std::make_unique<mpi::PooledBuffer>(comm.pool(), sl.recv_total, o);
    }
    obs::count(o, "redist.fused.async_runs", 1.0);
    obs::count(o, "redist.fused.slabs", static_cast<double>(run->slabs));
    async_ = std::move(run);
    return async_->slabs;
  }

  void async_pack(std::size_t k) {
    FCS_CHECK(async_ != nullptr && k < async_->slabs,
              "FusedBatch::async_pack: no async run / bad slab");
    const ExchangePlan& plan = *plan_;
    AsyncSlab& sl = async_->slab[k];
    FCS_CHECK(!sl.packed, "FusedBatch::async_pack: slab " << k
                              << " already packed");
    sl.packed = true;
    const int p = plan.nranks_;
    const std::size_t nseg = segments_.size();
    std::size_t pos = 0;
    for (int d = 0; d < p; ++d) {
      if (sl.send_bytes[static_cast<std::size_t>(d)] == 0) continue;
      const std::size_t items = plan.send_counts_[static_cast<std::size_t>(d)];
      Header h;
      h.magic = kMagic;
      h.nseg = static_cast<std::uint16_t>(nseg);
      h.items = items;
      std::memcpy(sl.send_buf->data() + pos, &h, sizeof h);
      pos += sizeof h;
      const std::size_t first = plan.send_offsets_[static_cast<std::size_t>(d)];
      for (const Segment& s : segments_) {
        sortlib::gather_rows(s.src, sl.send_buf->data() + pos,
                             plan.slot_src_.data() + first, items,
                             s.item_bytes);
        if (async_->validate)
          async_->sent_sum += redist::content_checksum(
              sl.send_buf->data() + pos, items, s.item_bytes);
        pos += items * s.item_bytes;
      }
    }
    FCS_ASSERT(pos == sl.send_total);
  }

  KnownAsync async_start(std::size_t k) {
    FCS_CHECK(async_ != nullptr && k < async_->slabs,
              "FusedBatch::async_start: no async run / bad slab");
    const ExchangePlan& plan = *plan_;
    AsyncSlab& sl = async_->slab[k];
    FCS_CHECK(sl.packed, "FusedBatch::async_start: slab " << k
                             << " not packed yet");
    const mpi::Comm& comm = *comm_;
    if (plan.kind_ == ExchangeKind::kDense && k == 0) {
      const sim::NetworkModel& net = *comm.ctx().config().network;
      std::size_t total_send = 0;
      for (const AsyncSlab& s : async_->slab) total_send += s.send_total;
      comm.ctx().charge_nic(
          net.dense_exchange_latency(comm.ctx().rank(), comm.size()) +
          static_cast<double>(total_send) *
              net.dense_exchange_byte_time(comm.size()));
    }
    return ref::isparse_alltoallv_bytes_known(comm, sl.send_buf->data(),
                                              sl.send_bytes, sl.recv_bytes,
                                              sl.recv_buf->data());
  }

  void async_finish() {
    FCS_CHECK(async_ != nullptr, "FusedBatch::async_finish: no async run");
    const ExchangePlan& plan = *plan_;
    const mpi::Comm& comm = *comm_;
    obs::RankObs* const o = comm.ctx().obs();
    const int p = plan.nranks_;
    const int r = comm.rank();
    const std::size_t nseg = segments_.size();

    const std::size_t n_recv = plan.n_recv_total();
    std::vector<std::byte*> out_ptr(nseg);
    for (std::size_t s = 0; s < nseg; ++s)
      out_ptr[s] = segments_[s].resize_out(segments_[s].out_vec,
                                           n_recv * segments_[s].item_bytes);
    std::uint64_t recv_sum = 0;
    for (AsyncSlab& sl : async_->slab) {
      std::size_t pos = 0;
      for (int src = 0; src < p; ++src) {
        if (sl.recv_bytes[static_cast<std::size_t>(src)] == 0) continue;
        const std::size_t items =
            plan.recv_counts_[static_cast<std::size_t>(src)];
        Header h;
        std::memcpy(&h, sl.recv_buf->data() + pos, sizeof h);
        FCS_CHECK(h.magic == kMagic && h.nseg == nseg && h.items == items,
                  "FusedBatch: malformed fused message from rank " << src);
        pos += sizeof h;
        const std::size_t slot0 =
            plan.recv_offsets_[static_cast<std::size_t>(src)];
        for (std::size_t s = 0; s < nseg; ++s) {
          const std::size_t ib = segments_[s].item_bytes;
          if (placement_ == nullptr)
            std::memcpy(out_ptr[s] + slot0 * ib, sl.recv_buf->data() + pos,
                        items * ib);
          else
            sortlib::scatter_rows(sl.recv_buf->data() + pos, out_ptr[s],
                                  placement_ + slot0, items, ib);
          if (async_->validate)
            recv_sum += redist::content_checksum(sl.recv_buf->data() + pos,
                                                 items, ib);
          pos += items * ib;
        }
      }
      FCS_ASSERT(pos == sl.recv_total);
    }
    if (async_->validate)
      redist::validate_exchange(comm, "fused_exchange",
                                plan.n_send_slots() * nseg, async_->sent_sum,
                                n_recv * nseg, recv_sum);

    if (o != nullptr) {
      std::size_t moved = 0;
      for (const AsyncSlab& sl : async_->slab)
        for (int i = 0; i < p; ++i)
          if (i != r) moved += sl.send_bytes[static_cast<std::size_t>(i)];
      o->add("redist.fused.batches", 1.0);
      o->add("redist.fused.segments", static_cast<double>(nseg));
      o->add("redist.fused.elements",
             static_cast<double>(plan.n_send_slots() * nseg));
      o->add("redist.fused.bytes_moved", static_cast<double>(moved));
    }
    segments_.clear();
    async_.reset();
  }

 private:
  struct Segment {
    const std::byte* src = nullptr;
    std::size_t item_bytes = 0;
    void* out_vec = nullptr;
    std::byte* (*resize_out)(void* vec, std::size_t n_bytes) = nullptr;
  };
  struct Header {
    std::uint32_t magic = 0;
    std::uint16_t nseg = 0;
    std::uint16_t reserved = 0;
    std::uint64_t items = 0;
  };
  static constexpr std::uint32_t kMagic = 0x46555345;  // "FUSE"
  struct AsyncSlab {
    std::vector<std::size_t> send_bytes, recv_bytes;
    std::unique_ptr<mpi::PooledBuffer> send_buf, recv_buf;
    std::size_t send_total = 0, recv_total = 0;
    bool packed = false;
  };
  struct AsyncRun {
    std::size_t slabs = 0;
    std::size_t payload_bytes = 0;
    std::uint64_t sent_sum = 0;
    bool validate = false;
    std::vector<AsyncSlab> slab;
  };

  const mpi::Comm* comm_;
  const ExchangePlan* plan_;
  const std::uint32_t* placement_;
  std::vector<Segment> segments_;
  std::unique_ptr<AsyncRun> async_;
};

}  // namespace ref

// --- harness -------------------------------------------------------------------

/// What one rank hands back for comparison.
struct RankResult {
  std::vector<std::byte> bytes;     // every received payload, concatenated
  std::vector<std::size_t> counts;  // every receive-count vector, concatenated

  template <class T>
  void add(const std::vector<T>& v) {
    const auto* b = reinterpret_cast<const std::byte*>(v.data());
    bytes.insert(bytes.end(), b, b + v.size() * sizeof(T));
  }
  void add_counts(const std::vector<std::size_t>& c) {
    counts.insert(counts.end(), c.begin(), c.end());
  }
  void add_counts(const mpi::PartnerList& list, int nranks) {
    std::vector<std::size_t> c;
    mpi::counts_from_partners(list, nranks, c);
    add_counts(c);
  }
};

struct Outcome {
  std::vector<RankResult> ranks;
  std::vector<double> clocks;
  std::map<std::string, std::vector<double>> counters;  // name -> per rank
};

/// Run `body` on P ranks of a torus (hop-dependent costs, so any change in
/// message order or size moves the clocks) with a counter recorder.
Outcome run_case(int p,
                 const std::function<void(const mpi::Comm&, RankResult&)>& body) {
  Outcome out;
  ref::g_tag_seq.assign(static_cast<std::size_t>(p), 0);
  out.ranks.resize(static_cast<std::size_t>(p));
  out.clocks.resize(static_cast<std::size_t>(p));
  auto rec = std::make_shared<obs::Recorder>(/*record_spans=*/false);
  sim::EngineConfig cfg;
  cfg.nranks = p;
  cfg.recorder = rec;
  cfg.network = std::make_shared<sim::TorusNetwork>(
      sim::TorusNetwork::balanced_dims(p, 3));
  sim::run_spmd(cfg, [&](sim::RankCtx& ctx) {
    const mpi::Comm comm = mpi::Comm::world(ctx);
    body(comm, out.ranks[static_cast<std::size_t>(ctx.rank())]);
    out.clocks[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  for (int r = 0; r < p; ++r)
    for (const auto& [id, counter] : rec->rank(r).counters()) {
      std::vector<double>& v = out.counters[rec->name_of(id)];
      v.resize(static_cast<std::size_t>(p), 0.0);
      v[static_cast<std::size_t>(r)] = counter.total();
    }
  return out;
}

void expect_same(const Outcome& want, const Outcome& got) {
  ASSERT_EQ(want.ranks.size(), got.ranks.size());
  for (std::size_t r = 0; r < want.ranks.size(); ++r) {
    EXPECT_EQ(want.ranks[r].bytes, got.ranks[r].bytes) << "rank " << r;
    EXPECT_EQ(want.ranks[r].counts, got.ranks[r].counts) << "rank " << r;
  }
  EXPECT_EQ(want.clocks, got.clocks);  // bit-identical virtual time
  EXPECT_EQ(want.counters, got.counters);
}

// Patterns: who sends how much to whom.
enum class Pattern { kMixed, kSelfOnly, kSilent };

/// Units rank `r` sends to each rank under `pat` (one entry per rank). In
/// the mixed pattern every third rank has no partners at all and some
/// ranks keep a self block.
std::vector<std::size_t> send_units(int p, int r, Pattern pat) {
  std::vector<std::size_t> c(static_cast<std::size_t>(p), 0);
  if (pat == Pattern::kSelfOnly) c[static_cast<std::size_t>(r)] = 5 + r % 3;
  if (pat != Pattern::kMixed || r % 3 == 1) return c;
  for (int d = 0; d < p; ++d)
    if ((r * 7 + d * 3) % 4 == 0 || d == (r + 1) % p)
      c[static_cast<std::size_t>(d)] = 1 + static_cast<std::size_t>(
                                                (r * 13 + d * 5) % 37);
  return c;
}

/// Units rank `r` receives from each source under `pat`.
std::vector<std::size_t> recv_units(int p, int r, Pattern pat) {
  std::vector<std::size_t> c(static_cast<std::size_t>(p), 0);
  for (int s = 0; s < p; ++s)
    c[static_cast<std::size_t>(s)] =
        send_units(p, s, pat)[static_cast<std::size_t>(r)];
  return c;
}

std::vector<std::byte> payload_bytes(int r, std::size_t n) {
  std::vector<std::byte> in(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = static_cast<std::byte>(31 * r + 7 * i + 3);
  return in;
}

std::size_t total(const std::vector<std::size_t>& c) {
  std::size_t t = 0;
  for (std::size_t v : c) t += v;
  return t;
}

class PartnerDiff
    : public ::testing::TestWithParam<std::tuple<int, Pattern>> {};

INSTANTIATE_TEST_SUITE_P(
    RanksAndPatterns, PartnerDiff,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 12),
                       ::testing::Values(Pattern::kMixed, Pattern::kSelfOnly,
                                         Pattern::kSilent)),
    [](const ::testing::TestParamInfo<std::tuple<int, Pattern>>& info) {
      const Pattern pat = std::get<1>(info.param);
      std::string name = "P";
      name += std::to_string(std::get<0>(info.param));
      name += pat == Pattern::kMixed      ? "_mixed"
              : pat == Pattern::kSelfOnly ? "_self_only"
                                          : "_silent";
      return name;
    });

TEST_P(PartnerDiff, SparseExchangeMatchesRankIndexedReference) {
  const auto [p, pat] = GetParam();
  const auto body = [p = p, pat = pat](bool reference, bool adapter) {
    return [=](const mpi::Comm& c, RankResult& res) {
      const std::vector<std::size_t> send = send_units(p, c.rank(), pat);
      const std::vector<std::byte> in = payload_bytes(c.rank(), total(send));
      for (int round = 0; round < 2; ++round) {
        std::vector<std::size_t> recv;
        std::vector<std::byte> out;
        if (reference) {
          out = ref::sparse_alltoallv_bytes(c, in.data(), send, recv);
        } else if (adapter) {
          out = c.sparse_alltoallv_bytes(in.data(), send, recv);
        } else {
          mpi::PartnerList sends;
          mpi::PartnerList recvs;
          mpi::partners_from_counts(send, sends);
          c.sparse_alltoallv_bytes(in.data(), sends, recvs, out);
          mpi::counts_from_partners(recvs, p, recv);
        }
        res.add(out);
        res.add_counts(recv);
      }
    };
  };
  const Outcome want = run_case(p, body(true, false));
  expect_same(want, run_case(p, body(false, false)));
  expect_same(want, run_case(p, body(false, true)));
}

TEST_P(PartnerDiff, KnownSizeExchangesMatchRankIndexedReference) {
  const auto [p, pat] = GetParam();
  const auto body = [p = p, pat = pat](bool reference) {
    return [=](const mpi::Comm& c, RankResult& res) {
      const std::vector<std::size_t> send = send_units(p, c.rank(), pat);
      const std::vector<std::size_t> recv = recv_units(p, c.rank(), pat);
      const std::vector<std::byte> in = payload_bytes(c.rank(), total(send));
      std::vector<std::byte> out(total(recv));
      std::vector<std::byte> async_out(total(recv));
      mpi::PartnerList sends;
      mpi::PartnerList recvs;
      mpi::partners_from_counts(send, sends);
      mpi::partners_from_counts(recv, recvs);
      if (reference) {
        ref::sparse_alltoallv_bytes_known(c, in.data(), send, recv,
                                          out.data());
        ref::KnownAsync rq = ref::isparse_alltoallv_bytes_known(
            c, in.data(), send, recv, async_out.data());
        c.ctx().advance(2.0e-6);  // compute overlapping the flight
        rq.wait();
      } else {
        c.sparse_alltoallv_bytes_known(in.data(), sends, recvs, out.data());
        mpi::Request rq = c.isparse_alltoallv_bytes_known(
            in.data(), sends, recvs, async_out.data());
        c.ctx().advance(2.0e-6);
        rq.wait();
      }
      res.add(out);
      res.add(async_out);
    };
  };
  expect_same(run_case(p, body(true)), run_case(p, body(false)));
}

struct Rec {
  std::uint32_t a;
  std::uint16_t b;
  std::uint16_t c;
  std::uint32_t d;
};

TEST_P(PartnerDiff, NeighborhoodExchangeMatchesRankIndexedReference) {
  const auto [p, pat] = GetParam();
  const auto body = [p = p, pat = pat](bool reference) {
    return [=](const mpi::Comm& c, RankResult& res) {
      const int r = c.rank();
      mpi::CartComm cart(c, mpi::dims_create(p, 3), {true, true, true});
      const std::vector<int> neighbors = cart.neighbors(1);
      std::vector<std::size_t> send(static_cast<std::size_t>(p), 0);
      if (pat == Pattern::kSelfOnly) send[static_cast<std::size_t>(r)] = 3;
      if (pat == Pattern::kMixed && r % 3 != 1) {
        send[static_cast<std::size_t>(r)] = static_cast<std::size_t>(r % 2);
        for (int n : neighbors)
          send[static_cast<std::size_t>(n)] =
              static_cast<std::size_t>((r + 2 * n) % 4);
      }
      std::vector<Rec> data(total(send));
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = Rec{static_cast<std::uint32_t>(r), 7,
                      static_cast<std::uint16_t>(i),
                      static_cast<std::uint32_t>(i * 977)};
      for (int round = 0; round < 2; ++round) {
        std::vector<std::size_t> recv;
        std::vector<Rec> out;
        if (reference) {
          out = ref::neighborhood_alltoallv(c, neighbors, data.data(), send,
                                            recv);
        } else {
          mpi::PartnerList sends;
          mpi::PartnerList recvs;
          mpi::partners_from_counts(send, sends);
          out = redist::neighborhood_alltoallv(c, neighbors, data.data(),
                                               sends, recvs);
          mpi::counts_from_partners(recvs, p, recv);
        }
        res.add(out);
        res.add_counts(recv);
      }
    };
  };
  expect_same(run_case(p, body(true)), run_case(p, body(false)));
}

/// Distribution under `pat`: mixed items go to (r + i) % p, every fifth one
/// also to a ghost target and every seventh one to the same target twice
/// (duplicated ghost targets); every third rank holds no items.
struct Dist {
  int p;
  int r;
  Pattern pat;
  std::size_t n_items() const {
    if (pat == Pattern::kSilent || (pat == Pattern::kMixed && r % 3 == 1))
      return 0;
    return pat == Pattern::kSelfOnly ? 4 : 23 + static_cast<std::size_t>(r);
  }
  void operator()(std::size_t i, std::vector<int>& t) const {
    if (pat == Pattern::kSelfOnly) {
      t.push_back(r);
      return;
    }
    const int first = static_cast<int>((static_cast<std::size_t>(r) + i) %
                                       static_cast<std::size_t>(p));
    t.push_back(first);
    if (i % 5 == 0)
      t.push_back(static_cast<int>((static_cast<std::size_t>(r) + 2 * i + 1) %
                                   static_cast<std::size_t>(p)));
    if (i % 7 == 0) t.push_back(first);
  }
};

template <class Plan>
std::vector<std::size_t> plan_recv_counts(const Plan& plan, int p) {
  if constexpr (std::is_same_v<Plan, ref::ExchangePlan>) {
    (void)p;
    return plan.recv_counts();
  } else {
    std::vector<std::size_t> c;
    mpi::counts_from_partners(plan.recv_partners(), p, c);
    return c;
  }
}

/// Build, initial exchange, apply (plain and placed), negotiate on a second
/// plan, and fused batches synchronously and in 1-3 async slabs: the whole
/// plan surface, for either implementation.
template <class Plan, class Batch>
void plan_workout(const mpi::Comm& c, RankResult& res, Pattern pat,
                  ExchangeKind kind) {
  const int p = c.size();
  const Dist dist{p, c.rank(), pat};
  const std::size_t n = dist.n_items();
  std::vector<std::uint64_t> ids(n);
  std::vector<double> vel(3 * n);
  std::vector<std::uint32_t> tags(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = (static_cast<std::uint64_t>(c.rank()) << 32) | i;
    for (int k = 0; k < 3; ++k) vel[3 * i + k] = 0.25 * c.rank() + i + 0.125 * k;
    tags[i] = static_cast<std::uint32_t>(1000 * c.rank() + i);
  }

  Plan plan = Plan::build(c, n, dist, kind);
  res.add(plan.exchange_initial(c, ids.data()));
  res.add_counts(plan_recv_counts(plan, p));
  res.add(plan.apply(c, vel.data(), 3));
  const std::size_t n_recv = plan.n_recv_total();
  std::vector<std::uint32_t> reversed(n_recv);
  for (std::size_t k = 0; k < n_recv; ++k)
    reversed[k] = static_cast<std::uint32_t>(n_recv - 1 - k);
  res.add(plan.apply(c, tags.data(), 1, reversed.data()));

  Plan negotiated = Plan::build(c, n, dist, kind);
  negotiated.negotiate(c);
  res.add_counts(plan_recv_counts(negotiated, p));
  res.add(negotiated.apply(c, ids.data()));

  for (const std::uint32_t* placement :
       {static_cast<const std::uint32_t*>(nullptr),
        static_cast<const std::uint32_t*>(reversed.data())}) {
    std::vector<double> v_out;
    std::vector<std::uint32_t> t_out;
    Batch batch(c, plan, placement);
    batch.add(vel, 3, v_out);
    batch.add(tags, 1, t_out);
    batch.execute();
    res.add(v_out);
    res.add(t_out);
    for (std::size_t slabs = 1; slabs <= 3; ++slabs) {
      Batch ab(c, plan, placement);
      ab.add(vel, 3, v_out);
      ab.add(tags, 1, t_out);
      const std::size_t ns = ab.async_begin(slabs);
      for (std::size_t k = 0; k < ns; ++k) ab.async_pack(k);
      std::vector<decltype(ab.async_start(0))> rq;
      for (std::size_t k = 0; k < ns; ++k) rq.push_back(ab.async_start(k));
      c.ctx().advance(1.0e-6);
      for (auto& q : rq) q.wait();
      if (ns > 0) ab.async_finish();
      res.add(v_out);
      res.add(t_out);
    }
  }
}

TEST_P(PartnerDiff, ExchangePlanAndFusedBatchMatchRankIndexedReference) {
  const auto [p, pat] = GetParam();
  for (const ExchangeKind kind : {ExchangeKind::kDense, ExchangeKind::kSparse}) {
    const Outcome want = run_case(p, [pat = pat, kind](const mpi::Comm& c,
                                                       RankResult& res) {
      plan_workout<ref::ExchangePlan, ref::FusedBatch>(c, res, pat, kind);
    });
    const Outcome got = run_case(p, [pat = pat, kind](const mpi::Comm& c,
                                                      RankResult& res) {
      plan_workout<redist::ExchangePlan, redist::FusedBatch>(c, res, pat,
                                                             kind);
    });
    expect_same(want, got);
  }
}

// --- boundary checks ------------------------------------------------------------

TEST(PartnerLists, RejectUnsortedOrOutOfRangePartners) {
  const auto expect_rejected = [](const mpi::PartnerList& sends) {
    sim::EngineConfig cfg;
    cfg.nranks = 3;
    try {
      sim::run_spmd(cfg, [&](sim::RankCtx& ctx) {
        const mpi::Comm c = mpi::Comm::world(ctx);
        std::vector<std::byte> in(8);
        mpi::PartnerList recvs;
        std::vector<std::byte> out;
        c.sparse_alltoallv_bytes(in.data(), sends, recvs, out);
      });
      ADD_FAILURE() << "partner list accepted";
    } catch (const fcs::Error& e) {
      EXPECT_NE(std::string(e.what()).find("ascending order"),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected({mpi::Partner{2, 0, 1}, mpi::Partner{1, 1, 1}});
  expect_rejected({mpi::Partner{1, 0, 1}, mpi::Partner{1, 1, 1}});
  expect_rejected({mpi::Partner{3, 0, 1}});
  expect_rejected({mpi::Partner{-1, 0, 1}});
}

TEST(PartnerLists, PartnerIndexBuildsAscendingPackedList) {
  sim::EngineConfig cfg;
  cfg.nranks = 9;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    const mpi::Comm c = mpi::Comm::world(ctx);
    const auto same = [](const mpi::PartnerList& got,
                         const mpi::PartnerList& want) {
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].rank, want[i].rank) << i;
        EXPECT_EQ(got[i].offset, want[i].offset) << i;
        EXPECT_EQ(got[i].count, want[i].count) << i;
      }
    };
    {
      mpi::PartnerIndex index(c);
      mpi::PartnerList list;
      index.add(7, 3, list);
      index.add(2, 1, list);
      index.add(7, 2, list);
      index.add(5, 4, list);
      same(list, {{7, 0, 5}, {2, 0, 1}, {5, 0, 4}});  // first-seen order
      index.finish(list);
      same(list, {{2, 0, 1}, {5, 1, 4}, {7, 5, 5}});
      EXPECT_EQ(index.entry(2), 0u);
      EXPECT_EQ(index.entry(5), 1u);
      EXPECT_EQ(index.entry(7), 2u);
    }
    // The destructor reset every claimed entry: a new index starts empty.
    mpi::PartnerIndex fresh(c);
    mpi::PartnerList list;
    fresh.add(5, 1, list);
    fresh.add(7, 1, list);
    same(list, {{5, 0, 1}, {7, 0, 1}});
  });
}

TEST(PartnerLists, SecondLiveIndexOnOneCommunicatorIsRejected) {
  sim::EngineConfig cfg;
  cfg.nranks = 2;
  sim::run_spmd(cfg, [](sim::RankCtx& ctx) {
    const mpi::Comm c = mpi::Comm::world(ctx);
    const mpi::Comm d = c.dup();
    {
      mpi::PartnerIndex first(c);
      try {
        mpi::PartnerIndex second(c);
        ADD_FAILURE() << "second live index accepted";
      } catch (const fcs::Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "another index of this communicator is live"),
                  std::string::npos)
            << e.what();
      }
      // Another communicator has its own table.
      mpi::PartnerIndex other(d);
      mpi::PartnerList list;
      other.add(1, 2, list);
      other.finish(list);
      ASSERT_EQ(list.size(), 1u);
      EXPECT_EQ(list[0].count, 2u);
    }
    // The rejected constructor left the first index intact, and its
    // destructor released the communicator.
    mpi::PartnerIndex again(c);
    mpi::PartnerList list;
    again.add(0, 1, list);
    again.finish(list);
    EXPECT_EQ(list.size(), 1u);
  });
}

// --- P-independence ---------------------------------------------------------------

/// Bytes and blocks the neighbourhood exchange itself allocates per rank in
/// `rounds` steady-state calls on a periodic 3-D grid of P ranks (26
/// distinct neighbours each). The engine's own allocations depend on how
/// the fibers interleave (a mailbox grows its source table with the number
/// of senders pending at once), so they are measured by replaying the same
/// messages through plain sends and receives - same order, same virtual
/// times, hence the same interleaving - and subtracted; a run with one
/// warm-up call is subtracted from a run with the warm-up plus `rounds`
/// more, so engine start-up and first-use growth cancel too.
std::pair<double, double> neighborhood_alloc_per_rank(int p, int rounds) {
  const auto run = [p](bool exchange, int calls) {
    sim::EngineConfig cfg;
    cfg.nranks = p;
    cfg.network = std::make_shared<sim::TorusNetwork>(
        sim::TorusNetwork::balanced_dims(p, 3));
    g_alloc_bytes = 0;
    g_alloc_blocks = 0;
    g_count_allocs = true;
    sim::run_spmd(cfg, [exchange, calls, p](sim::RankCtx& ctx) {
      const mpi::Comm c = mpi::Comm::world(ctx);
      mpi::CartComm cart(c, mpi::dims_create(p, 3), {true, true, true});
      const std::vector<int> neighbors = cart.neighbors(1);
      // 12 records to every neighbour, 5 kept: rank-sorted partner list.
      std::vector<int> ranks = neighbors;
      ranks.insert(std::lower_bound(ranks.begin(), ranks.end(), c.rank()),
                   c.rank());
      mpi::PartnerList sends;
      std::size_t at = 0;
      for (int n : ranks) {
        const std::size_t count = n == c.rank() ? 5 : 12;
        sends.push_back(mpi::Partner{n, at, count});
        at += count;
      }
      std::vector<Rec> data(at, Rec{1, 2, 3, 4});
      mpi::PartnerList recvs;
      for (int k = 0; k < calls; ++k) {
        if (exchange) {
          (void)redist::neighborhood_alltoallv(c, neighbors, data.data(),
                                               sends, recvs);
          continue;
        }
        constexpr int kTag = 0x1eab;
        for (int n : neighbors) c.send(data.data(), 12, n, kTag);
        for (int n : neighbors) (void)c.recv_bytes_vec(n, kTag, nullptr);
      }
    });
    g_count_allocs = false;
    return std::make_pair(static_cast<double>(g_alloc_bytes),
                          static_cast<double>(g_alloc_blocks));
  };
  const auto steady = [&](bool exchange) {
    const auto base = run(exchange, 1);
    const auto full = run(exchange, 1 + rounds);
    return std::make_pair(full.first - base.first,
                          full.second - base.second);
  };
  const auto with_exchange = steady(true);
  const auto messages_only = steady(false);
  return {(with_exchange.first - messages_only.first) / p,
          (with_exchange.second - messages_only.second) / p};
}

TEST(PartnerLists, NeighborhoodExchangeAllocationIsIndependentOfP) {
  // Conservation validation (FCS_REDIST_VALIDATE) adds an allreduce whose
  // rounds grow with log P by design; this test measures the exchange alone.
  redist::set_validation(0);
  const auto at27 = neighborhood_alloc_per_rank(27, 3);
  const auto at64 = neighborhood_alloc_per_rank(64, 3);
  redist::set_validation(-1);
  EXPECT_GT(at27.first, 0.0);  // the output vectors are counted
  EXPECT_EQ(at27.first, at64.first);
  EXPECT_EQ(at27.second, at64.second);
}

}  // namespace
