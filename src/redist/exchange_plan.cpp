#include "redist/exchange_plan.hpp"

#include <algorithm>
#include <cstdlib>

namespace redist {

namespace {

int g_fuse_override = -1;

bool env_fuse() {
  static const bool enabled = [] {
    const char* v = std::getenv("FCS_EXCHANGE_FUSE");
    return v == nullptr || v[0] == '\0' || v[0] != '0';
  }();
  return enabled;
}

}  // namespace

bool fuse_enabled() {
  if (g_fuse_override >= 0) return g_fuse_override != 0;
  return env_fuse();
}

void set_exchange_fuse(int enabled) { g_fuse_override = enabled; }

std::size_t ExchangePlan::send_count_to(int rank) const {
  const auto it = std::lower_bound(
      send_.begin(), send_.end(), rank,
      [](const mpi::Partner& e, int r) { return e.rank < r; });
  return it != send_.end() && it->rank == rank ? it->count : 0;
}

void ExchangePlan::scale_partners(const mpi::PartnerList& slots,
                                  std::size_t item_bytes,
                                  mpi::PartnerList& out) {
  out.resize(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i)
    out[i] = mpi::Partner{slots[i].rank, slots[i].offset * item_bytes,
                          slots[i].count * item_bytes};
}

void ExchangePlan::finish_recv() {
  n_recv_ = 0;
  for (mpi::Partner& e : recv_) {
    e.offset = n_recv_;
    n_recv_ += e.count;
  }
  counts_known_ = true;
}

void ExchangePlan::negotiate(const mpi::Comm& comm) {
  obs::Span span(comm.ctx().obs(), "redist.exchange.negotiate");
  const int p = nranks_;
  recv_.clear();
  if (kind_ == ExchangeKind::kDense) {
    std::vector<std::uint64_t> sc(static_cast<std::size_t>(p), 0);
    for (const mpi::Partner& e : send_)
      sc[static_cast<std::size_t>(e.rank)] = e.count;
    std::vector<std::uint64_t> rc(static_cast<std::size_t>(p));
    comm.alltoall(sc.data(), 1, rc.data());
    for (int i = 0; i < p; ++i)
      if (rc[static_cast<std::size_t>(i)] > 0)
        recv_.push_back(mpi::Partner{
            i, 0, static_cast<std::size_t>(rc[static_cast<std::size_t>(i)])});
    finish_recv();
    return;
  }
  // Sparse: NBX-style count exchange - only non-empty partners send their
  // count; absent partners contribute zero.
  std::vector<std::uint64_t> payload(send_.size());
  send_bytes_.resize(send_.size());
  for (std::size_t j = 0; j < send_.size(); ++j) {
    payload[j] = send_[j].count;
    send_bytes_[j] = mpi::Partner{send_[j].rank, j * sizeof(std::uint64_t),
                                  sizeof(std::uint64_t)};
  }
  std::vector<std::byte> raw;
  comm.sparse_alltoallv_bytes(payload.data(), send_bytes_, recv_bytes_, raw);
  for (const mpi::Partner& e : recv_bytes_) {
    FCS_CHECK(e.count == sizeof(std::uint64_t),
              "ExchangePlan::negotiate: malformed count message");
    std::uint64_t c = 0;
    std::memcpy(&c, raw.data() + e.offset, sizeof c);
    recv_.push_back(mpi::Partner{e.rank, 0, static_cast<std::size_t>(c)});
  }
  finish_recv();
}

void ExchangePlan::run_known(const mpi::Comm& comm, const std::byte* packed,
                             std::byte* out) const {
  if (kind_ == ExchangeKind::kDense)
    comm.alltoallv_bytes_known(packed, send_bytes_, recv_bytes_, out);
  else
    comm.sparse_alltoallv_bytes_known(packed, send_bytes_, recv_bytes_, out);
}

std::size_t FusedBatch::pack_partner(const mpi::Partner& e, std::byte* dst,
                                     std::uint64_t* sum) const {
  Header h;
  h.magic = kMagic;
  h.nseg = static_cast<std::uint16_t>(segments_.size());
  h.items = e.count;
  std::memcpy(dst, &h, sizeof h);
  std::size_t pos = sizeof h;
  for (const Segment& s : segments_) {
    sortlib::gather_rows(s.src, dst + pos, plan_->slot_src_.data() + e.offset,
                         e.count, s.item_bytes);
    if (sum != nullptr)
      *sum += content_checksum(dst + pos, e.count, s.item_bytes);
    pos += e.count * s.item_bytes;
  }
  return pos;
}

std::size_t FusedBatch::unpack_partner(const mpi::Partner& e,
                                       const std::byte* src,
                                       std::byte* const* out_ptr,
                                       std::uint64_t* sum) const {
  const std::size_t nseg = segments_.size();
  Header h;
  std::memcpy(&h, src, sizeof h);
  FCS_CHECK(h.magic == kMagic && h.nseg == nseg && h.items == e.count,
            "FusedBatch: malformed fused message from rank " << e.rank);
  std::size_t pos = sizeof h;
  for (std::size_t s = 0; s < nseg; ++s) {
    const std::size_t ib = segments_[s].item_bytes;
    if (placement_ == nullptr)
      std::memcpy(out_ptr[s] + e.offset * ib, src + pos, e.count * ib);
    else
      sortlib::scatter_rows(src + pos, out_ptr[s], placement_ + e.offset,
                            e.count, ib);
    if (sum != nullptr) *sum += content_checksum(src + pos, e.count, ib);
    pos += e.count * ib;
  }
  return pos;
}

void FusedBatch::execute() {
  if (segments_.empty()) return;
  const ExchangePlan& plan = *plan_;
  FCS_CHECK(plan.counts_known(),
            "FusedBatch: plan receive counts not known yet");
  const mpi::Comm& comm = *comm_;
  obs::RankObs* const o = comm.ctx().obs();
  obs::Span span(o, "redist.exchange.fused");
  const int r = comm.rank();
  const std::size_t nseg = segments_.size();
  FCS_CHECK(nseg <= 0xffff, "FusedBatch: too many segments");
  std::size_t payload_bytes = 0;  // per item, across all segments
  for (const Segment& s : segments_) payload_bytes += s.item_bytes;

  // Per-partner message: one header plus nseg back-to-back segments, laid
  // out in ascending partner rank.
  const auto schedule = [&](const mpi::PartnerList& slots,
                            mpi::PartnerList& bytes) {
    bytes.resize(slots.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::size_t b = msg_bytes(slots[i].count, payload_bytes);
      bytes[i] = mpi::Partner{slots[i].rank, total, b};
      total += b;
    }
    return total;
  };
  const std::size_t send_total = schedule(plan.send_, plan.send_bytes_);
  const std::size_t recv_total = schedule(plan.recv_, plan.recv_bytes_);

  // Pack: destination-major, one header + nseg segments per partner. All
  // sources are read before any output vector is touched, so out MAY alias
  // a segment's input.
  mpi::PooledBuffer send_buf(comm.pool(), send_total, o);
  std::uint64_t sent_sum = 0;
  const bool validate = validation_enabled();
  std::size_t pos = 0;
  for (std::size_t i = 0; i < plan.send_.size(); ++i)
    pos += pack_partner(plan.send_[i],
                        send_buf.data() + plan.send_bytes_[i].offset,
                        validate ? &sent_sum : nullptr);
  FCS_ASSERT(pos == send_total);

  mpi::PooledBuffer recv_buf(comm.pool(), recv_total, o);
  plan.run_known(comm, send_buf.data(), recv_buf.data());

  // Unpack: resize outputs now that every source has been read, then copy
  // each segment out, grouped by source rank in plan slot order (or
  // scattered through the placement permutation).
  const std::size_t n_recv = plan.n_recv_total();
  std::vector<std::byte*> out_ptr(nseg);
  for (std::size_t s = 0; s < nseg; ++s)
    out_ptr[s] =
        segments_[s].resize_out(segments_[s].out_vec,
                                n_recv * segments_[s].item_bytes);
  std::uint64_t recv_sum = 0;
  pos = 0;
  for (std::size_t i = 0; i < plan.recv_.size(); ++i)
    pos += unpack_partner(plan.recv_[i],
                          recv_buf.data() + plan.recv_bytes_[i].offset,
                          out_ptr.data(), validate ? &recv_sum : nullptr);
  FCS_ASSERT(pos == recv_total);
  if (validate)
    validate_exchange(comm, "fused_exchange",
                      plan.n_send_slots() * nseg, sent_sum, n_recv * nseg,
                      recv_sum);

  if (o != nullptr) {
    std::size_t moved = 0;
    for (const mpi::Partner& e : plan.send_bytes_)
      if (e.rank != r) moved += e.count;
    o->add("redist.fused.batches", 1.0);
    o->add("redist.fused.segments", static_cast<double>(nseg));
    o->add("redist.fused.elements",
           static_cast<double>(plan.n_send_slots() * nseg));
    o->add("redist.fused.bytes_moved", static_cast<double>(moved));
  }
  segments_.clear();
}

std::size_t FusedBatch::async_begin(std::size_t slabs) {
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
  run->validate = validation_enabled();
  run->slabs = std::max<std::size_t>(
      1, std::min(slabs, static_cast<std::size_t>(p)));
  run->slab.resize(run->slabs);

  // Partner k of either schedule joins slab (r + rank) % slabs; within a
  // slab, partners keep ascending rank order.
  for (std::size_t i = 0; i < plan.send_.size(); ++i) {
    const mpi::Partner& e = plan.send_[i];
    AsyncSlab& sl =
        run->slab[static_cast<std::size_t>(r + e.rank) % run->slabs];
    const std::size_t b = msg_bytes(e.count, run->payload_bytes);
    sl.send.push_back(mpi::Partner{e.rank, sl.send_total, b});
    sl.send_entry.push_back(static_cast<std::uint32_t>(i));
    sl.send_total += b;
  }
  for (std::size_t i = 0; i < plan.recv_.size(); ++i) {
    const mpi::Partner& e = plan.recv_[i];
    AsyncSlab& sl =
        run->slab[static_cast<std::size_t>(r + e.rank) % run->slabs];
    const std::size_t b = msg_bytes(e.count, run->payload_bytes);
    sl.recv.push_back(mpi::Partner{e.rank, sl.recv_total, b});
    sl.recv_entry.push_back(static_cast<std::uint32_t>(i));
    sl.recv_total += b;
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

void FusedBatch::async_pack(std::size_t k) {
  FCS_CHECK(async_ != nullptr && k < async_->slabs,
            "FusedBatch::async_pack: no async run / bad slab");
  AsyncSlab& sl = async_->slab[k];
  FCS_CHECK(!sl.packed, "FusedBatch::async_pack: slab " << k
                            << " already packed");
  sl.packed = true;
  std::size_t pos = 0;
  for (std::size_t j = 0; j < sl.send.size(); ++j)
    pos += pack_partner(plan_->send_[sl.send_entry[j]],
                        sl.send_buf->data() + sl.send[j].offset,
                        async_->validate ? &async_->sent_sum : nullptr);
  FCS_ASSERT(pos == sl.send_total);
}

mpi::Request FusedBatch::async_start(std::size_t k) {
  FCS_CHECK(async_ != nullptr && k < async_->slabs,
            "FusedBatch::async_start: no async run / bad slab");
  const ExchangePlan& plan = *plan_;
  AsyncSlab& sl = async_->slab[k];
  FCS_CHECK(sl.packed, "FusedBatch::async_start: slab " << k
                           << " not packed yet");
  const mpi::Comm& comm = *comm_;
  // A dense plan pays its collective fabric charge exactly once (the slabs
  // split ONE dense exchange); the per-partner movement below then runs on
  // point-to-point accounting like the sparse path.
  if (plan.kind_ == ExchangeKind::kDense && k == 0) {
    const sim::NetworkModel& net = *comm.ctx().config().network;
    std::size_t total_send = 0;
    for (const AsyncSlab& s : async_->slab) total_send += s.send_total;
    comm.ctx().charge_nic(
        net.dense_exchange_latency(comm.ctx().rank(), comm.size()) +
        static_cast<double>(total_send) *
            net.dense_exchange_byte_time(comm.size()));
  }
  return comm.isparse_alltoallv_bytes_known(sl.send_buf->data(), sl.send,
                                            sl.recv, sl.recv_buf->data());
}

void FusedBatch::async_finish() {
  FCS_CHECK(async_ != nullptr, "FusedBatch::async_finish: no async run");
  const ExchangePlan& plan = *plan_;
  const mpi::Comm& comm = *comm_;
  obs::RankObs* const o = comm.ctx().obs();
  const int r = comm.rank();
  const std::size_t nseg = segments_.size();

  // Resize every output now that all slabs are packed and received (outputs
  // may alias segment inputs; see add()).
  const std::size_t n_recv = plan.n_recv_total();
  std::vector<std::byte*> out_ptr(nseg);
  for (std::size_t s = 0; s < nseg; ++s)
    out_ptr[s] = segments_[s].resize_out(segments_[s].out_vec,
                                         n_recv * segments_[s].item_bytes);
  std::uint64_t recv_sum = 0;
  for (AsyncSlab& sl : async_->slab) {
    std::size_t pos = 0;
    for (std::size_t j = 0; j < sl.recv.size(); ++j)
      pos += unpack_partner(plan.recv_[sl.recv_entry[j]],
                            sl.recv_buf->data() + sl.recv[j].offset,
                            out_ptr.data(),
                            async_->validate ? &recv_sum : nullptr);
    FCS_ASSERT(pos == sl.recv_total);
  }
  if (async_->validate)
    validate_exchange(comm, "fused_exchange", plan.n_send_slots() * nseg,
                      async_->sent_sum, n_recv * nseg, recv_sum);

  if (o != nullptr) {
    std::size_t moved = 0;
    for (const AsyncSlab& sl : async_->slab)
      for (const mpi::Partner& e : sl.send)
        if (e.rank != r) moved += e.count;
    o->add("redist.fused.batches", 1.0);
    o->add("redist.fused.segments", static_cast<double>(nseg));
    o->add("redist.fused.elements",
           static_cast<double>(plan.n_send_slots() * nseg));
    o->add("redist.fused.bytes_moved", static_cast<double>(moved));
  }
  segments_.clear();
  async_.reset();
}

}  // namespace redist
