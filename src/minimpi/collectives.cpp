// Byte-level collective implementations. Each collective is built from
// point-to-point messages using a standard scalable algorithm, so both the
// data movement and the virtual-time cost are faithful to what a real MPI
// library would do on the modeled machine.
#include <algorithm>
#include <cstring>
#include <numeric>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"

namespace mpi {

namespace {

const std::byte* as_bytes(const void* p) {
  return static_cast<const std::byte*>(p);
}
std::byte* as_bytes(void* p) { return static_cast<std::byte*>(p); }

}  // namespace

namespace detail {

void copy_self_block(const void* in, const PartnerList& sends,
                     const PartnerList& recvs, void* out, int self,
                     const char* op) {
  const auto find = [self](const PartnerList& list) -> const Partner* {
    const auto it = std::lower_bound(
        list.begin(), list.end(), self,
        [](const Partner& e, int rank) { return e.rank < rank; });
    return it != list.end() && it->rank == self && it->count > 0 ? &*it
                                                                 : nullptr;
  };
  const Partner* const s = find(sends);
  const Partner* const d = find(recvs);
  FCS_CHECK((s == nullptr ? 0 : s->count) == (d == nullptr ? 0 : d->count),
            op << ": self send/recv size mismatch");
  if (s != nullptr)
    std::memcpy(static_cast<std::byte*>(out) + d->offset,
                static_cast<const std::byte*>(in) + s->offset, s->count);
}

}  // namespace detail

void Comm::barrier() const {
  // Dissemination barrier: ceil(log2 p) rounds, rank r signals r + 2^k.
  obs::Span span(ctx_->obs(), "mpi.barrier");
  obs::count(ctx_->obs(), "mpi.barrier.calls", 1.0);
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpBarrier);
  char token = 0;
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    const int dst = (r + k) % p;
    const int src = (r - k + p) % p;
    const std::uint64_t t = with_round(tag, round);
    ctx_->send(world_rank(dst), t, &token, 1);
    (void)ctx_->recv(world_rank(src), static_cast<std::int64_t>(t));
  }
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) const {
  obs::Span span(ctx_->obs(), "mpi.bcast");
  obs::count(ctx_->obs(), "mpi.bcast.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.bcast.bytes", static_cast<double>(bytes));
  const int p = size();
  const int r = rank();
  FCS_CHECK(root >= 0 && root < p, "bcast root out of range");
  const std::uint64_t tag = next_collective_tag(kOpBcast);
  const int vr = (r - root + p) % p;  // relative rank: root becomes 0

  // Binomial tree: receive from the parent, then forward to children.
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      const int src = (vr - mask + root) % p;
      sim::RankCtx::RecvInfo info =
          ctx_->recv(world_rank(src), static_cast<std::int64_t>(tag));
      FCS_CHECK(info.payload.size() == bytes, "bcast size mismatch");
      if (bytes > 0) std::memcpy(data, info.payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      const int dst = (vr + mask + root) % p;
      ctx_->send(world_rank(dst), tag, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::reduce_bytes(const void* in, void* out, std::size_t count,
                        std::size_t elem_size, int root, CombineFn combine,
                        const void* op) const {
  obs::Span span(ctx_->obs(), "mpi.reduce");
  obs::count(ctx_->obs(), "mpi.reduce.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.reduce.bytes",
             static_cast<double>(count * elem_size));
  const int p = size();
  const int r = rank();
  FCS_CHECK(root >= 0 && root < p, "reduce root out of range");
  const std::uint64_t tag = next_collective_tag(kOpReduce);
  const std::size_t bytes = count * elem_size;
  const int vr = (r - root + p) % p;

  std::vector<std::byte> acc(bytes);
  if (bytes > 0) std::memcpy(acc.data(), in, bytes);

  // Binomial tree, mirrored relative to bcast: children push partial sums up.
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int src_vr = vr | mask;
      if (src_vr < p) {
        const int src = (src_vr + root) % p;
        sim::RankCtx::RecvInfo info =
            ctx_->recv(world_rank(src), static_cast<std::int64_t>(tag));
        FCS_CHECK(info.payload.size() == bytes, "reduce size mismatch");
        combine(acc.data(), info.payload.data(), count, op);
        ctx_->charge_ops(static_cast<double>(count));
      }
    } else {
      const int dst_vr = vr & ~mask;
      const int dst = (dst_vr + root) % p;
      ctx_->send(world_rank(dst), tag, acc.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  if (r == root && bytes > 0) std::memcpy(out, acc.data(), bytes);
}

void Comm::allgather_bytes(const void* in, std::size_t bytes_each,
                           void* out) const {
  obs::Span span(ctx_->obs(), "mpi.allgather");
  obs::count(ctx_->obs(), "mpi.allgather.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.allgather.bytes",
             static_cast<double>(bytes_each) * static_cast<double>(size() - 1));
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpAllgather);

  // Distance-doubling concatenation: the local buffer always holds the
  // cyclic run of blocks [r, r + have). Works for any p in ceil(log2 p)
  // rounds with ring-equivalent total volume.
  std::vector<std::byte> run(bytes_each * static_cast<std::size_t>(p));
  if (bytes_each > 0) std::memcpy(run.data(), in, bytes_each);
  int have = 1;
  int round = 0;
  while (have < p) {
    const int delta = std::min(have, p - have);
    const int dst = (r - have + p) % p;
    const int src = (r + have) % p;
    const std::uint64_t t = with_round(tag, round++);
    ctx_->send(world_rank(dst), t, run.data(),
               bytes_each * static_cast<std::size_t>(delta));
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(src), static_cast<std::int64_t>(t));
    FCS_CHECK(info.payload.size() == bytes_each * static_cast<std::size_t>(delta),
              "allgather size mismatch");
    if (!info.payload.empty())
      std::memcpy(run.data() + bytes_each * static_cast<std::size_t>(have),
                  info.payload.data(), info.payload.size());
    have += delta;
  }
  // Rotate the run (starting at block r) into rank order.
  for (int i = 0; i < p; ++i) {
    const int block = (r + i) % p;
    if (bytes_each > 0)
      std::memcpy(as_bytes(out) + bytes_each * static_cast<std::size_t>(block),
                  run.data() + bytes_each * static_cast<std::size_t>(i),
                  bytes_each);
  }
  ctx_->charge_bytes(static_cast<double>(bytes_each) * p);
}

void Comm::allgatherv_bytes(const void* in,
                            const std::vector<std::size_t>& bytes,
                            void* out) const {
  obs::Span span(ctx_->obs(), "mpi.allgatherv");
  obs::count(ctx_->obs(), "mpi.allgatherv.calls", 1.0);
  const int p = size();
  const int r = rank();
  FCS_CHECK(static_cast<int>(bytes.size()) == p,
            "allgatherv needs one size per rank");
  const std::uint64_t tag = next_collective_tag(kOpAllgather);

  // Cyclic prefix sums of the run starting at r let both peers compute the
  // transfer sizes without extra communication.
  auto run_bytes = [&](int start, int nblocks) {
    std::size_t s = 0;
    for (int i = 0; i < nblocks; ++i)
      s += bytes[static_cast<std::size_t>((start + i) % p)];
    return s;
  };

  std::size_t total = 0;
  for (std::size_t b : bytes) total += b;
  std::vector<std::byte> run(total);
  if (bytes[static_cast<std::size_t>(r)] > 0)
    std::memcpy(run.data(), in, bytes[static_cast<std::size_t>(r)]);

  int have = 1;
  int round = 0;
  std::size_t have_bytes = bytes[static_cast<std::size_t>(r)];
  while (have < p) {
    const int delta = std::min(have, p - have);
    const int dst = (r - have + p) % p;
    const int src = (r + have) % p;
    const std::size_t send_n = run_bytes(r, delta);
    const std::size_t recv_n = run_bytes((r + have) % p, delta);
    const std::uint64_t t = with_round(tag, round++);
    ctx_->send(world_rank(dst), t, run.data(), send_n);
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(src), static_cast<std::int64_t>(t));
    FCS_CHECK(info.payload.size() == recv_n, "allgatherv size mismatch");
    if (!info.payload.empty())
      std::memcpy(run.data() + have_bytes, info.payload.data(), recv_n);
    have += delta;
    have_bytes += recv_n;
  }
  FCS_ASSERT(have_bytes == total);

  // Rotate into rank order.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i)
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] + bytes[static_cast<std::size_t>(i)];
  std::size_t run_pos = 0;
  for (int i = 0; i < p; ++i) {
    const int block = (r + i) % p;
    const std::size_t n = bytes[static_cast<std::size_t>(block)];
    if (n > 0)
      std::memcpy(as_bytes(out) + offsets[static_cast<std::size_t>(block)],
                  run.data() + run_pos, n);
    run_pos += n;
  }
  ctx_->charge_bytes(static_cast<double>(total));
}

void Comm::gather_bytes(const void* in, std::size_t bytes_each, void* out,
                        int root) const {
  obs::Span span(ctx_->obs(), "mpi.gather");
  obs::count(ctx_->obs(), "mpi.gather.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.gather.bytes", static_cast<double>(bytes_each));
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpGather);
  if (r == root) {
    if (bytes_each > 0)
      std::memcpy(as_bytes(out) + bytes_each * static_cast<std::size_t>(r), in,
                  bytes_each);
    for (int src = 0; src < p; ++src) {
      if (src == root) continue;
      sim::RankCtx::RecvInfo info =
          ctx_->recv(world_rank(src), static_cast<std::int64_t>(tag));
      FCS_CHECK(info.payload.size() == bytes_each, "gather size mismatch");
      if (bytes_each > 0)
        std::memcpy(as_bytes(out) + bytes_each * static_cast<std::size_t>(src),
                    info.payload.data(), bytes_each);
    }
  } else {
    ctx_->send(world_rank(root), tag, in, bytes_each);
  }
}

void Comm::scatter_bytes(const void* in, std::size_t bytes_each, void* out,
                         int root) const {
  obs::Span span(ctx_->obs(), "mpi.scatter");
  obs::count(ctx_->obs(), "mpi.scatter.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.scatter.bytes", static_cast<double>(bytes_each));
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpScatter);
  if (r == root) {
    for (int dst = 0; dst < p; ++dst) {
      if (dst == root) continue;
      ctx_->send(world_rank(dst), tag,
                 as_bytes(in) + bytes_each * static_cast<std::size_t>(dst),
                 bytes_each);
    }
    if (bytes_each > 0)
      std::memcpy(out, as_bytes(in) + bytes_each * static_cast<std::size_t>(r),
                  bytes_each);
  } else {
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(root), static_cast<std::int64_t>(tag));
    FCS_CHECK(info.payload.size() == bytes_each, "scatter size mismatch");
    if (bytes_each > 0) std::memcpy(out, info.payload.data(), bytes_each);
  }
}

void Comm::alltoall_bytes(const void* in, std::size_t bytes_each,
                          void* out) const {
  obs::Span span(ctx_->obs(), "mpi.alltoall");
  obs::count(ctx_->obs(), "mpi.alltoall.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.alltoall.bytes",
             static_cast<double>(bytes_each) * static_cast<double>(size() - 1));
  const int p = size();
  const int r = rank();
  const std::uint64_t tag = next_collective_tag(kOpAlltoall);

  if (p == 1) {
    if (bytes_each > 0) std::memcpy(out, in, bytes_each);
    return;
  }

  // Bruck's algorithm: ceil(log2 p) rounds regardless of p; the right choice
  // for the small fixed-size blocks (counts vectors) this library sends.
  std::vector<std::byte> cur(bytes_each * static_cast<std::size_t>(p));
  // Phase 1: local rotation, block i <- input block (r + i) mod p.
  for (int i = 0; i < p; ++i)
    if (bytes_each > 0)
      std::memcpy(cur.data() + bytes_each * static_cast<std::size_t>(i),
                  as_bytes(in) + bytes_each * static_cast<std::size_t>((r + i) % p),
                  bytes_each);

  // Phase 2: for each bit, forward the blocks whose index has that bit set.
  std::vector<std::byte> pack;
  int round = 0;
  for (int pof2 = 1; pof2 < p; pof2 <<= 1, ++round) {
    pack.clear();
    std::vector<int> moved;
    for (int i = 0; i < p; ++i) {
      if ((i & pof2) == 0) continue;
      moved.push_back(i);
      const std::byte* src = cur.data() + bytes_each * static_cast<std::size_t>(i);
      pack.insert(pack.end(), src, src + bytes_each);
    }
    const int dst = (r + pof2) % p;
    const int src_rank = (r - pof2 + p) % p;
    const std::uint64_t t = with_round(tag, round);
    ctx_->send(world_rank(dst), t, pack.data(), pack.size());
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(src_rank), static_cast<std::int64_t>(t));
    FCS_CHECK(info.payload.size() == pack.size(), "alltoall size mismatch");
    for (std::size_t k = 0; k < moved.size(); ++k)
      if (bytes_each > 0)
        std::memcpy(cur.data() + bytes_each * static_cast<std::size_t>(moved[k]),
                    info.payload.data() + bytes_each * k, bytes_each);
  }

  // Phase 3: inverse rotation with reversal: out[(r - i + p) mod p] = cur[i].
  for (int i = 0; i < p; ++i)
    if (bytes_each > 0)
      std::memcpy(
          as_bytes(out) + bytes_each * static_cast<std::size_t>((r - i + p) % p),
          cur.data() + bytes_each * static_cast<std::size_t>(i), bytes_each);
  ctx_->charge_bytes(static_cast<double>(bytes_each) * p);
}

std::vector<std::byte> Comm::alltoallv_bytes(
    const void* in, const std::vector<std::size_t>& send_bytes,
    std::vector<std::size_t>& recv_bytes) const {
  obs::Span span(ctx_->obs(), "mpi.alltoallv");
  obs::count(ctx_->obs(), "mpi.alltoallv.calls", 1.0);
  const int p = size();
  const int r = rank();
  FCS_CHECK(static_cast<int>(send_bytes.size()) == p,
            "alltoallv needs one send size per rank");
  const std::uint64_t tag = next_collective_tag(kOpAlltoallv);

  // Step 1: exchange the counts (dense, Bruck).
  std::vector<std::uint64_t> send_counts(send_bytes.begin(), send_bytes.end());
  std::vector<std::uint64_t> recv_counts(static_cast<std::size_t>(p));
  alltoall(send_counts.data(), 1, recv_counts.data());
  recv_bytes.assign(recv_counts.begin(), recv_counts.end());

  // Step 2: a real MPI_Alltoallv touches every pair even for empty blocks
  // and contends for the fabric's bisection; charge both analytically, then
  // move only the non-empty blocks.
  std::size_t total_send = 0;
  for (int i = 0; i < p; ++i)
    if (i != r) total_send += send_bytes[static_cast<std::size_t>(i)];
  obs::count(ctx_->obs(), "mpi.alltoallv.bytes",
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
  std::vector<std::byte> out(recv_offsets.back());

  // Self block first (local copy).
  if (send_bytes[static_cast<std::size_t>(r)] > 0)
    std::memcpy(out.data() + recv_offsets[static_cast<std::size_t>(r)],
                as_bytes(in) + send_offsets[static_cast<std::size_t>(r)],
                send_bytes[static_cast<std::size_t>(r)]);

  for (int i = 0; i < p; ++i) {
    if (i == r || send_bytes[static_cast<std::size_t>(i)] == 0) continue;
    ctx_->send(world_rank(i), tag,
               as_bytes(in) + send_offsets[static_cast<std::size_t>(i)],
               send_bytes[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < p; ++i) {
    if (i == r || recv_bytes[static_cast<std::size_t>(i)] == 0) continue;
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(i), static_cast<std::int64_t>(tag));
    FCS_CHECK(info.payload.size() == recv_bytes[static_cast<std::size_t>(i)],
              "alltoallv data size mismatch");
    std::memcpy(out.data() + recv_offsets[static_cast<std::size_t>(i)],
                info.payload.data(), info.payload.size());
  }
  return out;
}

void Comm::alltoallv_bytes_known(const void* in, const PartnerList& sends,
                                 const PartnerList& recvs, void* out) const {
  obs::Span span(ctx_->obs(), "mpi.alltoallv_known");
  obs::count(ctx_->obs(), "mpi.alltoallv_known.calls", 1.0);
  const int p = size();
  const int r = rank();
  detail::check_partners(sends, p, "alltoallv_known");
  detail::check_partners(recvs, p, "alltoallv_known");
  const std::uint64_t tag = next_collective_tag(kOpAlltoallv);

  // Same fabric model as the data phase of alltoallv_bytes: the dense
  // exchange touches every pair and contends for the bisection; only the
  // counts transpose is gone because both sides already know the sizes.
  std::size_t total_send = 0;
  for (const Partner& s : sends)
    if (s.rank != r) total_send += s.count;
  obs::count(ctx_->obs(), "mpi.alltoallv_known.bytes",
             static_cast<double>(total_send));
  ctx_->advance(
      ctx_->config().network->dense_exchange_latency(ctx_->rank(), p) +
      static_cast<double>(total_send) *
          ctx_->config().network->dense_exchange_byte_time(p));
  move_known(in, sends, recvs, out, tag, "alltoallv_known");
}

void Comm::sparse_alltoallv_bytes_known(const void* in,
                                        const PartnerList& sends,
                                        const PartnerList& recvs,
                                        void* out) const {
  obs::Span span(ctx_->obs(), "mpi.sparse_alltoallv_known");
  const int r = rank();
  detail::check_partners(sends, size(), "sparse_alltoallv_known");
  detail::check_partners(recvs, size(), "sparse_alltoallv_known");
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    double moved = 0.0;
    double partners = 0.0;
    for (const Partner& s : sends) {
      if (s.rank == r || s.count == 0) continue;
      moved += static_cast<double>(s.count);
      partners += 1.0;
    }
    o->add("mpi.sparse_alltoallv_known.calls", 1.0);
    o->add("mpi.sparse_alltoallv_known.bytes", moved);
    o->add("mpi.sparse_alltoallv_known.partners", partners);
  }
  const std::uint64_t tag = next_collective_tag(kOpSparse);
  move_known(in, sends, recvs, out, tag, "sparse_alltoallv_known");
}

void Comm::move_known(const void* in, const PartnerList& sends,
                      const PartnerList& recvs, void* out, std::uint64_t tag,
                      const char* op) const {
  const int r = rank();
  detail::copy_self_block(in, sends, recvs, out, r, op);

  // Both partner sets are known from the plan, so no NBX barrier is needed:
  // sends are eager, and each expected message is received directly.
  for (const Partner& s : sends) {
    if (s.rank == r || s.count == 0) continue;
    ctx_->send(world_rank(s.rank), tag, as_bytes(in) + s.offset, s.count);
  }
  for (const Partner& e : recvs) {
    if (e.rank == r || e.count == 0) continue;
    sim::RankCtx::RecvInfo info =
        ctx_->recv(world_rank(e.rank), static_cast<std::int64_t>(tag));
    FCS_CHECK(info.payload.size() == e.count,
              op << " data size mismatch from rank " << e.rank);
    std::memcpy(as_bytes(out) + e.offset, info.payload.data(),
                info.payload.size());
  }
}

std::vector<std::byte> Comm::sparse_alltoallv_bytes(
    const void* in, const std::vector<std::size_t>& send_bytes,
    std::vector<std::size_t>& recv_bytes) const {
  FCS_CHECK(static_cast<int>(send_bytes.size()) == size(),
            "sparse_alltoallv needs one send size per rank");
  PartnerList sends;
  PartnerList recvs;
  std::vector<std::byte> out;
  partners_from_counts(send_bytes, sends);
  sparse_alltoallv_bytes(in, sends, recvs, out);
  counts_from_partners(recvs, size(), recv_bytes);
  return out;
}

void Comm::sparse_alltoallv_bytes(const void* in, const PartnerList& sends,
                                  PartnerList& recvs,
                                  std::vector<std::byte>& out) const {
  obs::Span span(ctx_->obs(), "mpi.sparse_alltoallv");
  const int r = rank();
  detail::check_partners(sends, size(), "sparse_alltoallv");
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    double moved = 0.0;
    double partners = 0.0;
    for (const Partner& s : sends) {
      if (s.rank == r || s.count == 0) continue;
      moved += static_cast<double>(s.count);
      partners += 1.0;
    }
    o->add("mpi.sparse_alltoallv.calls", 1.0);
    o->add("mpi.sparse_alltoallv.bytes", moved);
    o->add("mpi.sparse_alltoallv.partners", partners);
  }
  const std::uint64_t tag = next_collective_tag(kOpSparse);

  // NBX-style: post all non-empty sends, synchronize, then drain. Sends are
  // eager in this engine, so after the barrier every incoming message is
  // already in the mailbox.
  const Partner* self = nullptr;
  for (const Partner& s : sends) {
    if (s.count == 0) continue;
    if (s.rank == r) {
      self = &s;
      continue;
    }
    ctx_->send(world_rank(s.rank), tag, as_bytes(in) + s.offset, s.count);
  }
  barrier();
  struct Arrival {
    int rank;
    std::vector<std::byte> payload;
  };
  std::vector<Arrival> arrived;
  while (ctx_->can_recv(sim::kAnySource, static_cast<std::int64_t>(tag))) {
    sim::RankCtx::RecvInfo info =
        ctx_->recv(sim::kAnySource, static_cast<std::int64_t>(tag));
    arrived.push_back(
        Arrival{comm_rank_of_world(info.src), std::move(info.payload)});
  }
  std::sort(arrived.begin(), arrived.end(),
            [](const Arrival& a, const Arrival& b) { return a.rank < b.rank; });

  // Assemble grouped by ascending source rank, the self block in its place.
  recvs.clear();
  std::size_t total = 0;
  const auto add = [&](int src, std::size_t bytes) {
    FCS_CHECK(recvs.empty() || recvs.back().rank != src,
              "duplicate sparse message from rank " << src);
    recvs.push_back(Partner{src, total, bytes});
    total += bytes;
  };
  bool self_done = self == nullptr;
  for (const Arrival& a : arrived) {
    if (!self_done && r < a.rank) {
      add(r, self->count);
      self_done = true;
    }
    add(a.rank, a.payload.size());
  }
  if (!self_done) add(r, self->count);
  out.resize(total);
  std::size_t k = 0;
  for (const Partner& e : recvs) {
    const std::byte* src =
        e.rank == r ? as_bytes(in) + self->offset : arrived[k++].payload.data();
    if (e.count > 0) std::memcpy(out.data() + e.offset, src, e.count);
  }
}

}  // namespace mpi
