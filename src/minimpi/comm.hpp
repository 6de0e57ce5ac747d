// minimpi: an MPI-like message passing interface on top of the sim engine.
//
// The subset implemented here is exactly what the paper's algorithms need:
// typed blocking/non-blocking point-to-point with tags and wildcards,
// communicator split/dup, Cartesian topologies (cart.hpp), and the standard
// collectives. All collectives are built on point-to-point using the
// textbook algorithms (dissemination barrier, binomial tree bcast/reduce,
// distance-doubling allgather(v), Bruck alltoall, pairwise exchange), so
// their virtual-time cost emerges from the network model instead of being
// postulated.
//
// Restrictions compared to real MPI (documented, asserted where cheap):
//  * data types must be trivially copyable,
//  * a communicator must not have user point-to-point traffic in flight
//    while a collective on the same communicator runs (BSP-style usage,
//    which is how the library uses it),
//  * ANY_TAG receives match any user message on the communicator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "minimpi/buffer_pool.hpp"
#include "sim/engine.hpp"
#include "support/error.hpp"

namespace mpi {

inline constexpr int kAnySource = sim::kAnySource;
inline constexpr int kAnyTag = -1;

/// Raised out of any communication call when a peer rank has been declared
/// dead (ULFM's MPI_ERR_PROC_FAILED) or the communicator was revoked
/// (failed_rank() == -1). See sim/engine.hpp and DESIGN.md §13.
using RankFailedError = sim::RankFailedError;

struct Status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;

  template <class T>
  std::size_t count() const {
    FCS_CHECK(bytes % sizeof(T) == 0,
              "message size " << bytes << " is not a multiple of element size "
                              << sizeof(T));
    return bytes / sizeof(T);
  }
};

/// One active partner of a sparse exchange: `count` units starting at unit
/// `offset` of a packed buffer. At the minimpi layer the unit is the byte;
/// redist plans count items. A partner list names each rank at most once,
/// in ascending rank order, so a step's bookkeeping scales with its active
/// partners instead of the communicator size (DESIGN.md, "Exchange
/// schedules as partner lists").
struct Partner {
  int rank = 0;
  std::size_t offset = 0;
  std::size_t count = 0;
};
using PartnerList = std::vector<Partner>;

/// Partner list of an MPI-style count vector (one entry per rank): one entry
/// per non-zero count, offsets are the packed prefix sums.
void partners_from_counts(const std::vector<std::size_t>& counts,
                          PartnerList& list);

/// Expand a partner list into an MPI-style count vector of `nranks` entries
/// (zero for ranks the list does not name).
void counts_from_partners(const PartnerList& list, int nranks,
                          std::vector<std::size_t>& counts);

/// Reduction operators for the typed collectives.
struct OpSum {
  template <class T> T operator()(const T& a, const T& b) const { return a + b; }
};
struct OpMin {
  template <class T> T operator()(const T& a, const T& b) const { return b < a ? b : a; }
};
struct OpMax {
  template <class T> T operator()(const T& a, const T& b) const { return a < b ? b : a; }
};
/// Bitwise XOR, for order-independent integrity checksums (conservation
/// validation in src/redist). Integral types only.
struct OpXor {
  template <class T> T operator()(const T& a, const T& b) const {
    static_assert(std::is_integral_v<T>);
    return a ^ b;
  }
};

class Comm;

/// Result of Comm::shrink_recover (defined after Comm).
struct ShrinkResult;

namespace detail {
struct AsyncState;
/// Throws unless `list` names ranks of [0, nranks) in strictly ascending
/// order; `op` prefixes the message.
void check_partners(const PartnerList& list, int nranks, const char* op);
/// Known-sizes self block: copies this rank's entry of `sends` (offsets into
/// `in`) to its entry of `recvs` (offsets into `out`); throws when the two
/// sizes differ.
void copy_self_block(const void* in, const PartnerList& sends,
                     const PartnerList& recvs, void* out, int self,
                     const char* op);
}

/// Non-blocking operation handle backed by the progress engine (async.cpp).
/// Sends complete when the simulated NIC finishes injecting the payload
/// (sim::RankCtx::send_async), receives and collectives complete as their
/// messages physically arrive, and test() polls without blocking - which is
/// what lets a task graph overlap communication with compute in virtual
/// time. Handles are cheap shared references; copying is allowed and all
/// copies observe the same completion.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }

  /// Non-blocking progress. Returns true when the operation has completed;
  /// the handle is then invalidated and `status` (when non-null) holds the
  /// result. Returns false - without advancing this rank's clock past the
  /// local processing cost of whatever did arrive - when completion still
  /// depends on in-flight messages.
  bool test(Status* status = nullptr);

  /// Block until completion, advancing this rank's virtual clock to the
  /// completion time, and invalidate the handle.
  Status wait();

  /// Release the operation without completing it (cancel-on-revoke: a
  /// survivor drops requests of a revoked communicator so wait_all never
  /// hangs on a peer that died; messages already in flight stay in the
  /// mailbox for the recovery path's purge).
  void cancel();

  /// Wait on requests[0..n) in index order (deterministic clock advance);
  /// invalid handles are skipped.
  static void wait_all(Request* requests, std::size_t n);

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::AsyncState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::AsyncState> state_;
};

class Comm {
 public:
  /// The world communicator spanning all ranks of the engine.
  static Comm world(sim::RankCtx& ctx);

  Comm() = default;

  int rank() const { return my_rank_; }
  int size() const { return static_cast<int>(group_->world_ranks.size()); }
  sim::RankCtx& ctx() const { return *ctx_; }
  bool valid() const { return group_ != nullptr; }

  /// World rank of communicator rank r (exposed for the network-aware
  /// heuristics and diagnostics).
  int world_rank(int r) const;

  /// Communicator-level scratch-buffer pool (per rank, shared by all copies
  /// of this communicator). The redistribution layer stages packed exchange
  /// payloads here so steady-state steps allocate nothing (see
  /// buffer_pool.hpp).
  BufferPool& pool() const { return group_->pool; }

  // --- typed point-to-point ------------------------------------------------

  template <class T>
  void send(const T* data, std::size_t n, int dst, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(data, n * sizeof(T), dst, tag);
  }

  template <class T>
  Status recv(T* data, std::size_t max_n, int src, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes(data, max_n * sizeof(T), src, tag);
  }

  /// Receive of unknown size into a fresh vector.
  template <class T>
  std::vector<T> recv_vec(int src, int tag, Status* status = nullptr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    Status st{};
    std::vector<std::byte> raw = recv_bytes_vec(src, tag, &st);
    if (status != nullptr) *status = st;
    FCS_CHECK(raw.size() % sizeof(T) == 0, "received " << raw.size()
                  << " bytes, not a multiple of element size " << sizeof(T));
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  template <class T>
  void sendrecv(const T* send_data, std::size_t send_n, int dst, int send_tag,
                T* recv_data, std::size_t recv_max_n, int src, int recv_tag,
                Status* status = nullptr) const {
    send(send_data, send_n, dst, send_tag);
    Status st = recv(recv_data, recv_max_n, src, recv_tag);
    if (status != nullptr) *status = st;
  }

  /// Non-blocking send: the payload is captured immediately (the caller's
  /// buffer may be reused right away) and the request completes when the
  /// NIC finishes injecting it.
  template <class T>
  Request isend(const T* data, std::size_t n, int dst, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return isend_bytes(data, n * sizeof(T), dst, tag);
  }

  template <class T>
  Request irecv(T* data, std::size_t max_n, int src, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(data, max_n * sizeof(T), src, tag);
  }

  Request isend_bytes(const void* data, std::size_t bytes, int dst,
                      int tag) const;
  Request irecv_bytes(void* data, std::size_t capacity, int src,
                      int tag) const;

  /// Legacy aliases for Request::wait / Request::wait_all.
  static Status wait(Request& rq);
  static void waitall(Request* requests, std::size_t n);

  // --- collectives ----------------------------------------------------------

  void barrier() const;

  template <class T>
  void bcast(T* data, std::size_t n, int root) const {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(data, n * sizeof(T), root);
  }

  template <class T, class Op>
  void reduce(const T* in, T* out, std::size_t n, int root, Op op) const {
    reduce_bytes(in, out, n, sizeof(T), root, make_combine<T, Op>(), &op);
  }

  template <class T, class Op>
  void allreduce(const T* in, T* out, std::size_t n, Op op) const {
    reduce(in, out, n, 0, op);
    bcast(out, n, 0);
  }

  /// Scalar convenience allreduce.
  template <class T, class Op>
  T allreduce(T value, Op op) const {
    T out{};
    allreduce(&value, &out, 1, op);
    return out;
  }

  template <class T>
  void allgather(const T* in, std::size_t n_each, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    allgather_bytes(in, n_each * sizeof(T), out);
  }

  /// allgatherv: rank r contributes counts[r] elements; `out` must hold
  /// sum(counts). `counts` must already be identical on all ranks (use
  /// allgather of the local count to build it).
  template <class T>
  void allgatherv(const T* in, const std::vector<std::size_t>& counts,
                  T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> bytes(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
      bytes[i] = counts[i] * sizeof(T);
    allgatherv_bytes(in, bytes, out);
  }

  template <class T>
  void gather(const T* in, std::size_t n_each, T* out, int root) const {
    static_assert(std::is_trivially_copyable_v<T>);
    gather_bytes(in, n_each * sizeof(T), out, root);
  }

  template <class T>
  void scatter(const T* in, std::size_t n_each, T* out, int root) const {
    static_assert(std::is_trivially_copyable_v<T>);
    scatter_bytes(in, n_each * sizeof(T), out, root);
  }

  /// Dense alltoall with fixed block size (Bruck for small blocks, pairwise
  /// exchange for large ones).
  template <class T>
  void alltoall(const T* in, std::size_t n_each, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    alltoall_bytes(in, n_each * sizeof(T), out);
  }

  /// Dense alltoallv. send_counts[i] elements go to rank i; returns the
  /// received data grouped by source rank in recv_counts (resized).
  template <class T>
  std::vector<T> alltoallv(const T* in, const std::vector<std::size_t>& send_counts,
                           std::vector<std::size_t>& recv_counts) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> send_bytes(send_counts.size());
    for (std::size_t i = 0; i < send_counts.size(); ++i)
      send_bytes[i] = send_counts[i] * sizeof(T);
    std::vector<std::size_t> recv_bytes;
    std::vector<std::byte> raw = alltoallv_bytes(in, send_bytes, recv_bytes);
    recv_counts.resize(recv_bytes.size());
    for (std::size_t i = 0; i < recv_bytes.size(); ++i) {
      FCS_ASSERT(recv_bytes[i] % sizeof(T) == 0);
      recv_counts[i] = recv_bytes[i] / sizeof(T);
    }
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Sparse point-to-point exchange (NBX-style): only non-empty partner
  /// messages are sent; no dense collective latency is charged. This is the
  /// "neighborhood communication" path of the paper's method B with
  /// max-movement information. MPI-shaped adapter over the partner-list
  /// sparse_alltoallv_bytes below.
  template <class T>
  std::vector<T> sparse_alltoallv(const T* in,
                                  const std::vector<std::size_t>& send_counts,
                                  std::vector<std::size_t>& recv_counts) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> send_bytes(send_counts.size());
    for (std::size_t i = 0; i < send_counts.size(); ++i)
      send_bytes[i] = send_counts[i] * sizeof(T);
    std::vector<std::size_t> recv_bytes;
    std::vector<std::byte> raw = sparse_alltoallv_bytes(in, send_bytes, recv_bytes);
    recv_counts.resize(recv_bytes.size());
    for (std::size_t i = 0; i < recv_bytes.size(); ++i)
      recv_counts[i] = recv_bytes[i] / sizeof(T);
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Inclusive prefix scan.
  template <class T, class Op>
  T scan(T value, Op op) const {
    return scan_impl(value, op, /*inclusive=*/true);
  }

  /// Exclusive prefix scan; rank 0 receives T{}.
  template <class T, class Op>
  T exscan(T value, Op op) const {
    return scan_impl(value, op, /*inclusive=*/false);
  }

  /// Element-wise exclusive prefix scan over an array; out[i] on rank r is
  /// op-combined in[i] of ranks 0..r-1 (T{} on rank 0).
  template <class T, class Op>
  void exscan_v(const T* in, T* out, std::size_t n, Op op) const {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::Span span(ctx_->obs(), "mpi.exscan_v");
    obs::count(ctx_->obs(), "mpi.exscan_v.calls", 1.0);
    const int p = size();
    const int r = rank();
    std::vector<T> running(in, in + n);
    std::vector<T> prefix(n, T{});
    bool have_prefix = false;
    const std::uint64_t tag = next_collective_tag(kOpScan);
    int round = 0;
    for (int span = 1; span < p; span <<= 1, ++round) {
      const int up = r + span;
      const int down = r - span;
      const std::uint64_t t = with_round(tag, round);
      if (up < p) ctx_->send(world_rank(up), t, running.data(), n * sizeof(T));
      if (down >= 0) {
        sim::RankCtx::RecvInfo info =
            ctx_->recv(world_rank(down), static_cast<std::int64_t>(t));
        FCS_CHECK(info.payload.size() == n * sizeof(T), "exscan_v size mismatch");
        std::vector<T> incoming(n);
        if (n > 0) std::memcpy(incoming.data(), info.payload.data(), n * sizeof(T));
        for (std::size_t i = 0; i < n; ++i) {
          running[i] = op(incoming[i], running[i]);
          prefix[i] = have_prefix ? op(incoming[i], prefix[i]) : incoming[i];
        }
        have_prefix = true;
      }
    }
    std::copy(prefix.begin(), prefix.end(), out);
  }

  /// Split into sub-communicators by color; ranks ordered by (key, rank).
  Comm split(int color, int key) const;
  Comm dup() const;

  // --- rank-failure recovery (ULFM-style; implemented in recovery.cpp) ------

  /// This communicator's 20-bit tag context id (diagnostics, recovery).
  std::uint64_t context_id() const { return group_->context_id; }

  /// Revoke this communicator (MPI_Comm_revoke): every member blocked in a
  /// receive wakes up and its next communication throws RankFailedError
  /// unless it is already in recovery mode. Idempotent per recovery round.
  /// Scoped to this communicator's members, so revoking one split()
  /// sub-communicator never poisons its disjoint siblings; on the world
  /// communicator this is the engine-wide revocation of DESIGN.md §13.
  void revoke() const { ctx_->revoke(group_->world_ranks); }

  /// Fault-tolerant agreement on the failed subset of this communicator's
  /// members (the ULFM MPI_Comm_agree recipe): survivors push their local
  /// dead-set view to the lowest-ranked survivor they know of, which combines
  /// them and distributes the result. Safe to call while peers are dying; if
  /// the coordinator itself dies mid-protocol the survivors restart under the
  /// next one (see DESIGN.md §13 for the uniformity caveat). `generation`
  /// scopes the protocol's tags - the caller increments it per recovery
  /// round. Returns the failed members as ranks OF THIS communicator,
  /// ascending. Caller must already be in recovery mode.
  std::vector<int> agree_failures(std::uint64_t generation) const;

  /// ULFM shrink + cleanup, driven from a RankFailedError handler:
  /// acknowledges the pending revocation, agrees on the failed set, builds a
  /// dense survivor communicator with a deterministic fresh context id,
  /// moves the parent's retained scratch buffers into the new pool
  /// ("pool.reclaimed"), and purges every pending mailbox message that does
  /// not belong to the new context (flushing collectives aborted by the
  /// failure). All survivors of the parent communicator must call this with
  /// the same `generation`.
  ShrinkResult shrink_recover(std::uint64_t generation) const;

  // --- byte-level core (implemented in collectives.cpp / comm.cpp) ---------

  void send_bytes(const void* data, std::size_t bytes, int dst, int tag) const;
  Status recv_bytes(void* data, std::size_t capacity, int src, int tag) const;
  std::vector<std::byte> recv_bytes_vec(int src, int tag, Status* status) const;
  void bcast_bytes(void* data, std::size_t bytes, int root) const;
  void allgather_bytes(const void* in, std::size_t bytes_each, void* out) const;
  void allgatherv_bytes(const void* in, const std::vector<std::size_t>& bytes,
                        void* out) const;
  void gather_bytes(const void* in, std::size_t bytes_each, void* out,
                    int root) const;
  void scatter_bytes(const void* in, std::size_t bytes_each, void* out,
                     int root) const;
  void alltoall_bytes(const void* in, std::size_t bytes_each, void* out) const;
  std::vector<std::byte> alltoallv_bytes(
      const void* in, const std::vector<std::size_t>& send_bytes,
      std::vector<std::size_t>& recv_bytes) const;
  /// MPI-shaped adapter over the partner-list sparse exchange below: one
  /// send size per rank in, one receive size per rank out.
  std::vector<std::byte> sparse_alltoallv_bytes(
      const void* in, const std::vector<std::size_t>& send_bytes,
      std::vector<std::size_t>& recv_bytes) const;

  /// Sparse exchange with unknown receive sizes (NBX): one message per
  /// non-empty entry of `sends` (byte offsets into `in`), one dissemination
  /// barrier, then a drain. On return `recvs` names every source that sent
  /// (this rank included when `sends` names it), with byte offsets into
  /// `out`, which holds the data grouped by ascending source rank.
  void sparse_alltoallv_bytes(const void* in, const PartnerList& sends,
                              PartnerList& recvs,
                              std::vector<std::byte>& out) const;

  /// Dense data exchange with KNOWN sizes (partner lists as in
  /// sparse_alltoallv_bytes_known, from a reusable redist::ExchangePlan):
  /// skips the counts transpose of alltoallv_bytes but is charged the same
  /// dense fabric latency and contention for the data movement, which
  /// depend only on the communicator size and the bytes sent. Like
  /// alltoallv_bytes, it moves only the non-empty blocks, so the messages
  /// go to and come from the listed partners only.
  void alltoallv_bytes_known(const void* in, const PartnerList& sends,
                             const PartnerList& recvs, void* out) const;

  /// Sparse exchange with KNOWN sizes: sends go straight to the partners of
  /// `sends` and receives come straight from the partners of `recvs` (byte
  /// offsets into `in` and `out`) - no NBX barrier round, which is what makes
  /// a reused plan cheaper than sparse_alltoallv_bytes. A self entry must
  /// have the same size on both lists.
  void sparse_alltoallv_bytes_known(const void* in, const PartnerList& sends,
                                    const PartnerList& recvs,
                                    void* out) const;

  using CombineFn = void (*)(void* inout, const void* in, std::size_t count,
                             const void* op);
  void reduce_bytes(const void* in, void* out, std::size_t count,
                    std::size_t elem_size, int root, CombineFn combine,
                    const void* op) const;

  // --- non-blocking collectives (progress engine; async.cpp) ---------------
  //
  // Each i-collective is COLLECTIVE AT CREATION: every rank must create it
  // at the same point of its collective call sequence (the tag sequence
  // numbers are drawn there), but completion may be polled/waited at any
  // later point, interleaved with other traffic on the same communicator.
  // Input buffers are consumed at creation (sends capture their payload
  // eagerly); output buffers must stay alive until completion. The bytes
  // moved, the combine order, and the received contents are bit-identical
  // to the blocking counterparts - only the virtual-time accounting differs
  // (payload copies and fabric charges go to the NIC timeline instead of
  // the CPU clock).

  /// Non-blocking allreduce: binomial reduce to rank 0 + binomial bcast,
  /// the exact combine order of allreduce(). `out` is filled on completion.
  template <class T, class Op>
  Request iallreduce(const T* in, T* out, std::size_t n, Op op) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto op_copy = std::make_shared<Op>(op);
    return iallreduce_bytes(
        in, out, n, sizeof(T), make_combine<T, Op>(),
        std::shared_ptr<const void>(op_copy, op_copy.get()));
  }

  Request iallreduce_bytes(const void* in, void* out, std::size_t count,
                           std::size_t elem_size, CombineFn combine,
                           std::shared_ptr<const void> op) const;

  /// Non-blocking sparse exchange with KNOWN sizes (partner lists as in
  /// sparse_alltoallv_bytes_known): no barrier round; each expected partner
  /// message is polled directly.
  Request isparse_alltoallv_bytes_known(const void* in,
                                        const PartnerList& sends,
                                        const PartnerList& recvs,
                                        void* out) const;

 private:
  friend struct detail::AsyncState;
  friend class PartnerIndex;

  struct Group {
    std::vector<int> world_ranks;   // comm rank -> engine rank
    std::uint64_t context_id = 0;
    // Per-parent sequence for deriving child context ids deterministically.
    std::uint64_t next_child_seq = 1;
    // Lazily built inverse of world_ranks for O(1) source translation.
    mutable std::vector<std::pair<int, int>> world_to_comm_sorted;
    // Scratch buffers for the exchange path (per rank; Groups are not shared
    // across ranks). Mutable for the same reason as the index above: reusing
    // scratch does not change the communicator's observable state.
    mutable BufferPool pool;
    // PartnerIndex state: rank -> slot (-1 when unused; sized on first use),
    // the ranks in slot order, and whether an index is live.
    mutable std::vector<int> partner_slot;
    mutable std::vector<int> partner_ranks;
    mutable bool partner_busy = false;
  };

  /// Communicator rank of an engine (world) rank; O(log size).
  int comm_rank_of_world(int world) const;

  /// Data movement of the known-sizes exchanges under `tag`: the self
  /// block, one message per non-self partner of `sends`, one receive per
  /// non-self partner of `recvs`, both in ascending rank. `op` names the
  /// exchange in error messages.
  void move_known(const void* in, const PartnerList& sends,
                  const PartnerList& recvs, void* out, std::uint64_t tag,
                  const char* op) const;

  Comm(std::shared_ptr<Group> group, int my_rank, sim::RankCtx* ctx)
      : group_(std::move(group)), my_rank_(my_rank), ctx_(ctx) {}

  template <class T, class Op>
  static CombineFn make_combine() {
    return [](void* inout, const void* in, std::size_t count, const void* op) {
      T* a = static_cast<T*>(inout);
      const T* b = static_cast<const T*>(in);
      const Op& f = *static_cast<const Op*>(op);
      for (std::size_t i = 0; i < count; ++i) a[i] = f(a[i], b[i]);
    };
  }

  template <class T, class Op>
  T scan_impl(T value, Op op, bool inclusive) const {
    // Hillis-Steele distance doubling on the exclusive prefix.
    static_assert(std::is_trivially_copyable_v<T>);
    obs::Span span(ctx_->obs(), "mpi.scan");
    obs::count(ctx_->obs(), "mpi.scan.calls", 1.0);
    const int p = size();
    const int r = rank();
    T running = value;       // combined value of ranks [r - span + 1, r]
    T prefix{};              // combined value of ranks [0, r-1]
    bool have_prefix = false;
    const std::uint64_t tag = next_collective_tag(kOpScan);
    int round = 0;
    for (int span = 1; span < p; span <<= 1, ++round) {
      const int up = r + span;
      const int down = r - span;
      const std::uint64_t t = with_round(tag, round);
      if (up < p) ctx_->send(world_rank(up), t, &running, sizeof(T));
      if (down >= 0) {
        sim::RankCtx::RecvInfo info =
            ctx_->recv(world_rank(down), static_cast<std::int64_t>(t));
        FCS_CHECK(info.payload.size() == sizeof(T), "scan size mismatch");
        T incoming{};
        std::memcpy(&incoming, info.payload.data(), sizeof(T));
        running = op(incoming, running);
        prefix = have_prefix ? op(incoming, prefix) : incoming;
        have_prefix = true;
      }
    }
    if (inclusive) return r == 0 ? value : op(prefix, value);
    return have_prefix ? prefix : T{};
  }

  // Internal tag construction: collective ops draw a fresh sequence number
  // per call (identical across ranks because calls are collective).
  enum InternalOp : std::uint64_t {
    kOpBarrier = 1, kOpBcast, kOpReduce, kOpGather, kOpScatter,
    kOpAllgather, kOpAlltoall, kOpAlltoallv, kOpSparse, kOpScan, kOpSplit,
  };
  std::uint64_t next_collective_tag(InternalOp op) const;
  std::uint64_t p2p_tag(int user_tag) const;
  /// Collectives with multiple rounds distinguish them in a dedicated field.
  static std::uint64_t with_round(std::uint64_t collective_tag, int round) {
    return collective_tag | (static_cast<std::uint64_t>(round) << 8);
  }

  std::shared_ptr<Group> group_;
  int my_rank_ = -1;
  sim::RankCtx* ctx_ = nullptr;
  mutable std::uint64_t collective_seq_ = 0;
};

struct ShrinkResult {
  Comm comm;                // dense survivor communicator
  std::vector<int> failed;  // failed ranks of the parent comm, ascending
};

/// Builds a partner list from destinations that arrive in any order, in
/// O(items + partners): a table with one entry per communicator rank, which
/// the communicator allocates once per rank and which is all -1 between
/// uses, maps each rank to its list entry; the destructor resets only the
/// entries this index claimed. At most one index per communicator may be
/// live at a time.
class PartnerIndex {
 public:
  explicit PartnerIndex(const Comm& comm);
  ~PartnerIndex();
  PartnerIndex(const PartnerIndex&) = delete;
  PartnerIndex& operator=(const PartnerIndex&) = delete;

  /// Add `n` units for `rank` (the caller has range-checked it) to `list`;
  /// a rank seen for the first time appends an entry.
  void add(int rank, std::size_t n, PartnerList& list) {
    int& e = table_[static_cast<std::size_t>(rank)];
    if (e < 0) {
      e = static_cast<int>(list.size());
      ranks_.push_back(rank);
      list.push_back(Partner{rank, 0, 0});
    }
    list[static_cast<std::size_t>(e)].count += n;
  }

  /// Sort `list` (built by add()) by rank, in O(k log k) for k partners,
  /// and set its offsets to the packed prefix sums; entry() then names the
  /// sorted positions.
  void finish(PartnerList& list);

  /// Entry of an added rank in the finished list.
  std::size_t entry(int rank) const {
    return static_cast<std::size_t>(table_[static_cast<std::size_t>(rank)]);
  }

 private:
  Comm::Group& group_;
  std::vector<int>& table_;
  std::vector<int>& ranks_;
};

}  // namespace mpi
