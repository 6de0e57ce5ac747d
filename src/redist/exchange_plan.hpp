// Reusable redistribution schedules (exchange plans) and fused multi-field
// exchanges.
//
// A redistribution step moves every element to the rank(s) named by a
// distribution function. The WHERE of that movement - per-destination slot
// lists, counts, offsets, partner sets - depends only on the distribution
// function, not on the payload, so it can be computed once per fcs_run and
// then applied to any number of per-particle payloads:
//
//   ExchangePlan plan = ExchangePlan::build(comm, n, dist, kind);  // local
//   auto a = plan.exchange_initial(comm, items.data()); // legacy-cost, fills
//                                                       // the recv counts
//   auto b = plan.apply<double>(comm, more.data());     // counts known: no
//                                                       // transpose/barrier
//   FusedBatch batch(comm, plan);                       // N fields, ONE
//   batch.add(vel, 1, vel); batch.add(acc, 1, acc);     // message per
//   batch.execute();                                    // partner pair
//
// The fused wire format per partner message is one 16-byte header
// {magic, nseg, items} followed by nseg typed segments, each holding `items`
// elements in plan slot order. Slot order is destination-major and, within a
// destination, ascending in source item index - the same order the legacy
// per-field exchanges produced, which is what makes the fused path
// bit-identical to them (tests/test_exchange_prop.cpp).
//
// Send and receive schedules are rank-ascending partner lists
// (mpi::PartnerList): (rank, first slot, slots) per active partner, so
// building, negotiating and applying a plan costs O(items + partners), not
// O(communicator size). Only a dense plan's first exchange and negotiate()
// expand them into one count per rank, for the MPI_Alltoallv-shaped counts
// transpose.
//
// Staging buffers come from the communicator's BufferPool, so after warm-up
// the exchange path allocates no staging memory ("pool.alloc" stays flat).
// It still allocates the payload copy the engine makes per message, the
// vectors an exchange returns, and O(items + partners) scratch per plan
// build; none of these grows with the communicator size.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "redist/conserve.hpp"
#include "sortlib/carry.hpp"

namespace redist {

enum class ExchangeKind { kDense, kSparse };

/// Is the plan-fused exchange path enabled? Reads FCS_EXCHANGE_FUSE once
/// (default ON; set to 0 for the legacy one-exchange-per-field path) unless
/// overridden by set_exchange_fuse(). Must be consistent across ranks.
bool fuse_enabled();

/// Override the env knob: 1 = on, 0 = off, -1 = back to the environment.
void set_exchange_fuse(int enabled);

class ExchangePlan {
 public:
  ExchangePlan() = default;

  /// Build the local half of a plan: dist(i, targets) appends the
  /// destination rank(s) of item i to the pre-cleared `targets` (more than
  /// one entry duplicates the item - ghosts). dist is evaluated exactly ONCE
  /// per item; the targets are cached in the plan. No communication.
  template <class DistFn>
  static ExchangePlan build(const mpi::Comm& comm, std::size_t n_items,
                            DistFn&& dist, ExchangeKind kind) {
    ExchangePlan plan;
    plan.assign(comm, n_items, std::forward<DistFn>(dist), kind);
    return plan;
  }

  /// build() in place: the plan's storage is reused, so a plan rebuilt
  /// every step stops allocating once it has seen its largest step.
  /// Destinations are counted per active partner (mpi::PartnerIndex), so
  /// the cost is O(items + k log k) for k partners, independent of the
  /// communicator size.
  template <class DistFn>
  void assign(const mpi::Comm& comm, std::size_t n_items, DistFn&& dist,
              ExchangeKind kind) {
    kind_ = kind;
    nranks_ = comm.size();
    n_items_ = n_items;
    counts_known_ = false;
    recv_.clear();
    n_recv_ = 0;
    const int p = nranks_;
    FCS_CHECK(n_items <= 0xffffffffULL, "more than 2^32 local items");
    obs::count(comm.ctx().obs(), "redist.plan.builds", 1.0);

    // Single pass: cache each item's targets (item-major), count per
    // partner.
    std::vector<int> targets;
    std::vector<int> target_of_copy;
    std::vector<std::size_t> first_copy(n_items + 1, 0);
    mpi::PartnerIndex index(comm);
    send_.clear();
    for (std::size_t i = 0; i < n_items; ++i) {
      targets.clear();
      dist(i, targets);
      for (int t : targets) {
        FCS_CHECK(t >= 0 && t < p, "distribution function returned rank "
                      << t << " outside the communicator (size " << p << ")");
        index.add(t, 1, send_);
        target_of_copy.push_back(t);
      }
      first_copy[i + 1] = target_of_copy.size();
    }

    // Counting sort of the cached targets into destination-major slot order
    // (partners ascending in rank); within a destination, slots stay
    // ascending in item index. Each partner's offset serves as its cursor
    // and is rewound afterwards.
    index.finish(send_);
    slot_src_.resize(target_of_copy.size());
    for (std::size_t i = 0; i < n_items; ++i)
      for (std::size_t k = first_copy[i]; k < first_copy[i + 1]; ++k)
        slot_src_[send_[index.entry(target_of_copy[k])].offset++] =
            static_cast<std::uint32_t>(i);
    for (mpi::Partner& e : send_) e.offset -= e.count;
  }

  ExchangeKind kind() const { return kind_; }
  int nranks() const { return nranks_; }
  std::size_t n_items() const { return n_items_; }
  /// Outgoing slots (>= n_items when the distribution duplicates).
  std::size_t n_send_slots() const { return slot_src_.size(); }
  /// Source item of each outgoing slot, destination-major.
  const std::vector<std::uint32_t>& slot_src() const { return slot_src_; }
  /// Send schedule: (destination, first slot, slots), ascending in rank.
  const mpi::PartnerList& send_partners() const { return send_; }
  /// Slots this plan sends to `rank` (0 when it is not a partner).
  std::size_t send_count_to(int rank) const;
  bool counts_known() const { return counts_known_; }
  /// Receive schedule: (source, first receive slot, slots), ascending in
  /// rank; receive slots are grouped by source in this order.
  const mpi::PartnerList& recv_partners() const {
    FCS_CHECK(counts_known_, "ExchangePlan: receive counts not known yet");
    return recv_;
  }
  std::size_t n_recv_total() const {
    FCS_CHECK(counts_known_, "ExchangePlan: receive counts not known yet");
    return n_recv_;
  }

  /// Exchange the per-destination counts so the plan becomes applicable:
  /// dense plans use the counts transpose (Bruck alltoall), sparse plans an
  /// NBX-style count exchange. Collective.
  void negotiate(const mpi::Comm& comm);

  /// The combined counts+data exchange of the legacy fine-grained path
  /// (counts transpose in-band, then the data exchange) - virtual-time
  /// identical to what fine_grained_redistribute always did. Fills the
  /// receive counts as a side effect, making the plan reusable. `data` holds
  /// one T per input item.
  template <class T>
  std::vector<T> exchange_initial(const mpi::Comm& comm, const T* data) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::RankObs* const o = comm.ctx().obs();
    obs::Span span(o, "redist.exchange.initial");
    mpi::PooledBuffer packed(comm.pool(), slot_src_.size() * sizeof(T), o);
    pack_into(data, sizeof(T), packed.data());
    scale_partners(send_, sizeof(T), send_bytes_);
    std::vector<std::byte> raw;
    if (kind_ == ExchangeKind::kDense) {
      // The counts transpose of alltoallv_bytes is MPI_Alltoallv-shaped:
      // one count per rank each way, for this one call.
      std::vector<std::size_t> send_counts;
      std::vector<std::size_t> recv_counts;
      mpi::counts_from_partners(send_bytes_, nranks_, send_counts);
      raw = comm.alltoallv_bytes(packed.data(), send_counts, recv_counts);
      mpi::partners_from_counts(recv_counts, recv_bytes_);
    } else {
      comm.sparse_alltoallv_bytes(packed.data(), send_bytes_, recv_bytes_,
                                  raw);
    }
    recv_.resize(recv_bytes_.size());
    for (std::size_t i = 0; i < recv_bytes_.size(); ++i) {
      FCS_ASSERT(recv_bytes_[i].count % sizeof(T) == 0);
      recv_[i] = mpi::Partner{recv_bytes_[i].rank,
                              recv_bytes_[i].offset / sizeof(T),
                              recv_bytes_[i].count / sizeof(T)};
    }
    finish_recv();
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// One payload through the known-counts plan: `components` values of T per
  /// input item; the result holds `components` values per received element,
  /// grouped by source rank in plan slot order - or scattered through
  /// `placement` (receive slot k lands at item index placement[k]) when
  /// given. Cheaper than exchange_initial: no counts transpose (dense), no
  /// NBX barrier (sparse).
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
    scale_partners(send_, item_bytes, send_bytes_);
    scale_partners(recv_, item_bytes, recv_bytes_);

    std::vector<T> out(n_recv_total() * components);
    if (placement == nullptr) {
      run_known(comm, packed.data(), reinterpret_cast<std::byte*>(out.data()));
      if (validation_enabled())
        validate_exchange(
            comm, "exchange_plan_apply", slot_src_.size(),
            content_checksum(packed.data(), slot_src_.size(), item_bytes),
            n_recv_total(),
            content_checksum(out.data(), n_recv_total(), item_bytes));
    } else {
      mpi::PooledBuffer staged(comm.pool(), n_recv_total() * item_bytes, o);
      run_known(comm, packed.data(), staged.data());
      if (validation_enabled())
        validate_exchange(
            comm, "exchange_plan_apply", slot_src_.size(),
            content_checksum(packed.data(), slot_src_.size(), item_bytes),
            n_recv_total(),
            content_checksum(staged.data(), n_recv_total(), item_bytes));
      sortlib::scatter_rows(staged.data(),
                            reinterpret_cast<std::byte*>(out.data()),
                            placement, n_recv_total(), item_bytes);
    }
    return out;
  }

 private:
  friend class FusedBatch;
  friend class ResortPlan;

  /// Gather payload items into destination-major slot order (one
  /// width-specialized contiguous pass; see sortlib::gather_rows).
  void pack_into(const void* data, std::size_t item_bytes,
                 std::byte* out) const {
    sortlib::gather_rows(static_cast<const std::byte*>(data), out,
                         slot_src_.data(), slot_src_.size(), item_bytes);
  }

  /// Slot schedule -> byte schedule of `item_bytes` per slot.
  static void scale_partners(const mpi::PartnerList& slots,
                             std::size_t item_bytes, mpi::PartnerList& out);

  /// recv_ holds the receive counts: set their offsets and mark the plan
  /// applicable.
  void finish_recv();

  /// The known-counts data exchange on the byte schedules send_bytes_ and
  /// recv_bytes_.
  void run_known(const mpi::Comm& comm, const std::byte* packed,
                 std::byte* out) const;

  ExchangeKind kind_ = ExchangeKind::kDense;
  int nranks_ = 0;
  std::size_t n_items_ = 0;
  std::vector<std::uint32_t> slot_src_;
  mpi::PartnerList send_;  // in slots
  mpi::PartnerList recv_;  // in slots
  std::size_t n_recv_ = 0;
  bool counts_known_ = false;
  // Byte schedules reused across applies (mutable: caching only).
  mutable mpi::PartnerList send_bytes_;
  mutable mpi::PartnerList recv_bytes_;
};

/// Fuses several typed payloads over one ExchangePlan into a single
/// multi-segment message per partner pair: one header, N typed segments.
/// Legacy equivalent: N independent exchanges, each paying its own counts
/// transpose / barrier and dense fabric latency.
class FusedBatch {
 public:
  /// `placement`, when non-null, scatters every receive slot k of every
  /// segment to item index placement[k] (the fcs resort permutation);
  /// otherwise outputs stay in plan slot order (grouped by source rank).
  FusedBatch(const mpi::Comm& comm, const ExchangePlan& plan,
             const std::uint32_t* placement = nullptr)
      : comm_(&comm), plan_(&plan), placement_(placement) {}

  /// Queue one payload: `components` values of T per plan input item.
  /// `out` is resized to the received element count at execute() time; it
  /// MAY alias `data` (outputs are written only after all segments are
  /// packed). The data pointer must stay valid until execute().
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

  /// Untyped variant for columnar payloads (the particle store's byte
  /// columns): `src` holds one item_bytes row per plan input item;
  /// `resize_out(ctx, n_bytes)` must resize the output storage and return
  /// its base pointer. Same aliasing guarantee as add(): outputs are
  /// resized/written only after every segment is packed.
  void add_raw(const std::byte* src, std::size_t item_bytes, void* out_ctx,
               std::byte* (*resize_out)(void* ctx, std::size_t n_bytes)) {
    FCS_CHECK(item_bytes > 0, "FusedBatch: zero-width raw segment");
    Segment seg;
    seg.src = src;
    seg.item_bytes = item_bytes;
    seg.out_vec = out_ctx;
    seg.resize_out = resize_out;
    segments_.push_back(seg);
  }

  std::size_t segment_count() const { return segments_.size(); }

  /// Run the fused exchange. Collective; a no-op when no segments were
  /// added. After execute() the batch is empty and can be refilled.
  void execute();

  /// Slabbed asynchronous execution through the progress engine: the partner
  /// set is split into at most `slabs` slabs by the symmetric rule
  /// slab(partner) = (rank + partner) % n, so both endpoints of every
  /// message agree on its slab and the per-slab exchanges pair up across
  /// ranks. Per-partner message bytes are IDENTICAL to execute()'s, which is
  /// what keeps the task-graph overlapped path bit-identical to the phased
  /// one (the dense fabric charge still lands once, on the NIC timeline).
  ///
  /// Protocol - the async_start calls are collective creations and must run
  /// in the same k order on every rank (the task executor's ascending
  /// comm-node order guarantees this):
  ///   n = batch.async_begin(slabs);
  ///   for k: batch.async_pack(k);            // CPU packing, any order
  ///   for k: rq[k] = batch.async_start(k);   // collective creation, in order
  ///   ... overlap: poll/wait the requests ...
  ///   batch.async_finish();                  // unpack + validate + clear
  /// Returns the actual slab count (0 when the batch is empty).
  std::size_t async_begin(std::size_t slabs);
  /// Pack slab k's per-partner messages (pure CPU, no communication).
  void async_pack(std::size_t k);
  /// Issue slab k's exchange; requires async_pack(k) first.
  mpi::Request async_start(std::size_t k);
  /// After EVERY slab's request has completed: unpack into the output
  /// vectors (resizing them), validate, and clear the batch.
  void async_finish();

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
  static_assert(sizeof(Header) == 16);
  static constexpr std::uint32_t kMagic = 0x46555345;  // "FUSE"

  struct AsyncSlab {
    // The slab's partners in byte units (offsets into its own buffers) and
    // the index of each one's entry in the plan's send/recv schedule.
    mpi::PartnerList send, recv;
    std::vector<std::uint32_t> send_entry, recv_entry;
    std::unique_ptr<mpi::PooledBuffer> send_buf, recv_buf;
    std::size_t send_total = 0, recv_total = 0;
    bool packed = false;
  };
  struct AsyncRun {
    std::size_t slabs = 0;
    std::size_t payload_bytes = 0;  // per item, across all segments
    std::uint64_t sent_sum = 0;
    bool validate = false;
    std::vector<AsyncSlab> slab;
  };

  /// Message bytes of a partner with `items` items: one header plus every
  /// segment's rows.
  std::size_t msg_bytes(std::size_t items, std::size_t payload_bytes) const {
    return items > 0 ? sizeof(Header) + items * payload_bytes : 0;
  }
  /// Write partner `e`'s message (header + segments) at `dst`; returns its
  /// bytes and adds the segments' checksums to *sum when non-null.
  std::size_t pack_partner(const mpi::Partner& e, std::byte* dst,
                           std::uint64_t* sum) const;
  /// Copy partner `e`'s message at `src` out to the segment outputs.
  std::size_t unpack_partner(const mpi::Partner& e, const std::byte* src,
                             std::byte* const* out_ptr,
                             std::uint64_t* sum) const;

  const mpi::Comm* comm_;
  const ExchangePlan* plan_;
  const std::uint32_t* placement_;
  std::vector<Segment> segments_;
  std::unique_ptr<AsyncRun> async_;
};

}  // namespace redist
