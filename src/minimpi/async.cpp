// The asynchronous progress engine: Request states for non-blocking
// point-to-point and collectives.
//
// Every state is a small deterministic step program over the SAME schedule
// its blocking counterpart runs (binomial trees, direct known-partner
// exchange), so the bytes moved, the combine order, and the received
// contents are bit-identical - the only difference is the virtual-time
// accounting. Sends issue through sim::RankCtx::send_async, which charges
// the payload copy and fabric injection to the rank's NIC timeline instead
// of its CPU clock; receive steps poll sim::RankCtx::try_recv, which only
// consumes messages whose last byte has arrived. A request therefore
// completes "in the background" of whatever compute runs between polls, and
// wait() pays only the residual arrival time that compute did not hide.
//
// Progress ordering is deterministic: each state advances a program counter
// over a fixed step list, and wait() drains the remaining steps with
// blocking receives in exactly the order the synchronous collective would
// use, so clock advances are reproducible bit-for-bit across runs.
#include <cstring>
#include <sstream>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"

namespace mpi {

namespace detail {

struct AsyncState {
  explicit AsyncState(const Comm& c) : comm(c) {}
  virtual ~AsyncState() = default;

  /// Advance the operation. With blocking == true the call must complete
  /// (or throw); with false it consumes whatever has arrived and returns
  /// whether the operation is done.
  virtual bool progress(bool blocking) = 0;

  /// A pending revocation aborts the request exactly like a blocking recv
  /// would: the rank must fall into its recovery driver, not keep polling a
  /// collective some participant already abandoned.
  void check_revoked() const {
    sim::RankCtx& ctx = comm.ctx();
    if (!ctx.recovery_mode() && ctx.revoked()) {
      std::ostringstream oss;
      oss << "rank " << ctx.rank()
          << ": communicator revoked while progressing an async request";
      throw RankFailedError(-1, oss.str());
    }
  }

  int comm_rank_of_world(int world) const {
    return comm.comm_rank_of_world(world);
  }

  Comm comm;  // by value: keeps the group alive for the request's lifetime
  Status status{};
  bool done = false;
};

namespace {

/// isend: the payload was captured and handed to the NIC at creation; the
/// request completes when the NIC finishes injecting it.
struct SendState final : AsyncState {
  SendState(const Comm& c, double t) : AsyncState(c), done_time(t) {}

  bool progress(bool blocking) override {
    if (done) return true;
    check_revoked();
    sim::RankCtx& ctx = comm.ctx();
    if (ctx.now() < done_time) {
      if (!blocking) return false;
      ctx.advance(done_time - ctx.now());
    }
    done = true;
    return true;
  }

  double done_time;
};

/// irecv into a user buffer.
struct RecvState final : AsyncState {
  RecvState(const Comm& c) : AsyncState(c) {}

  bool progress(bool blocking) override {
    if (done) return true;
    check_revoked();
    sim::RankCtx& ctx = comm.ctx();
    sim::RankCtx::RecvInfo info;
    if (blocking) {
      info = ctx.recv(world_src, sim_tag);
    } else if (!ctx.try_recv(world_src, sim_tag, &info)) {
      return false;
    }
    FCS_CHECK(info.payload.size() <= capacity,
              "irecv buffer too small: message has " << info.payload.size()
                  << " bytes, buffer holds " << capacity);
    if (!info.payload.empty())
      std::memcpy(buffer, info.payload.data(), info.payload.size());
    status.source =
        user_src == kAnySource ? comm_rank_of_world(info.src) : user_src;
    status.tag = static_cast<int>(info.tag & 0x7fffffff);
    status.bytes = info.payload.size();
    done = true;
    return true;
  }

  void* buffer = nullptr;
  std::size_t capacity = 0;
  int world_src = 0;
  int user_src = 0;
  std::int64_t sim_tag = 0;
};

/// iallreduce: the blocking allreduce's schedule (binomial reduce to rank 0,
/// then binomial bcast) flattened into a step list over one accumulator.
struct AllreduceState final : AsyncState {
  struct Step {
    enum Kind { kSendAcc, kRecvCombine, kRecvAcc } kind;
    int world_peer;
    std::uint64_t tag;
  };

  AllreduceState(const Comm& c) : AsyncState(c) {}

  bool progress(bool blocking) override {
    if (done) return true;
    check_revoked();
    sim::RankCtx& ctx = comm.ctx();
    while (pc < steps.size()) {
      const Step& s = steps[pc];
      if (s.kind == Step::kSendAcc) {
        ctx.send_async(s.world_peer, s.tag, acc.data(), acc.size());
        ++pc;
        continue;
      }
      sim::RankCtx::RecvInfo info;
      if (blocking) {
        info = ctx.recv(s.world_peer, static_cast<std::int64_t>(s.tag));
      } else if (!ctx.try_recv(s.world_peer, static_cast<std::int64_t>(s.tag),
                               &info)) {
        return false;
      }
      FCS_CHECK(info.payload.size() == acc.size(),
                "iallreduce size mismatch");
      if (s.kind == Step::kRecvCombine) {
        combine(acc.data(), info.payload.data(), count, op.get());
        ctx.charge_ops(static_cast<double>(count));
      } else if (!acc.empty()) {
        std::memcpy(acc.data(), info.payload.data(), acc.size());
      }
      ++pc;
    }
    if (!acc.empty()) std::memcpy(out, acc.data(), acc.size());
    status.bytes = acc.size();
    done = true;
    return true;
  }

  std::vector<Step> steps;
  std::size_t pc = 0;
  std::vector<std::byte> acc;
  void* out = nullptr;
  std::size_t count = 0;
  Comm::CombineFn combine = nullptr;
  std::shared_ptr<const void> op;
};

/// Known-partner sparse exchange: all sends went to the NIC at creation;
/// what remains is consuming each expected partner message, in ascending
/// partner order - the same order the blocking exchange receives in, so a
/// wait() that has to block advances the clock identically.
struct KnownExchangeState final : AsyncState {
  struct Pending {
    int world_src;
    std::size_t bytes;
    std::size_t offset;
  };

  KnownExchangeState(const Comm& c) : AsyncState(c) {}

  bool progress(bool blocking) override {
    if (done) return true;
    check_revoked();
    sim::RankCtx& ctx = comm.ctx();
    while (next < pending.size()) {
      const Pending& pd = pending[next];
      sim::RankCtx::RecvInfo info;
      if (blocking) {
        info = ctx.recv(pd.world_src, static_cast<std::int64_t>(tag));
      } else if (!ctx.try_recv(pd.world_src, static_cast<std::int64_t>(tag),
                               &info)) {
        return false;
      }
      FCS_CHECK(info.payload.size() == pd.bytes,
                "async exchange size mismatch from world rank "
                    << pd.world_src);
      std::memcpy(out + pd.offset, info.payload.data(), info.payload.size());
      status.bytes += info.payload.size();
      ++next;
    }
    done = true;
    return true;
  }

  std::uint64_t tag = 0;
  std::byte* out = nullptr;
  std::vector<Pending> pending;
  std::size_t next = 0;
};

const std::byte* as_bytes(const void* p) {
  return static_cast<const std::byte*>(p);
}

}  // namespace

}  // namespace detail

// --- Request ----------------------------------------------------------------

bool Request::test(Status* status) {
  FCS_CHECK(valid(), "test on an inactive request");
  if (!state_->progress(/*blocking=*/false)) return false;
  if (status != nullptr) *status = state_->status;
  state_.reset();
  return true;
}

Status Request::wait() {
  FCS_CHECK(valid(), "wait on an inactive request");
  state_->progress(/*blocking=*/true);
  Status st = state_->status;
  state_.reset();
  return st;
}

void Request::cancel() { state_.reset(); }

void Request::wait_all(Request* requests, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (requests[i].valid()) requests[i].wait();
}

// --- factories --------------------------------------------------------------

Request Comm::isend_bytes(const void* data, std::size_t bytes, int dst,
                          int tag) const {
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    o->add("mpi.p2p.msgs", 1.0);
    o->add("mpi.p2p.bytes", static_cast<double>(bytes));
  }
  const double done_time =
      ctx_->send_async(world_rank(dst), p2p_tag(tag), data, bytes);
  auto st = std::make_shared<detail::SendState>(*this, done_time);
  st->status.source = dst;
  st->status.tag = tag;
  st->status.bytes = bytes;
  return Request(std::move(st));
}

Request Comm::irecv_bytes(void* data, std::size_t capacity, int src,
                          int tag) const {
  auto st = std::make_shared<detail::RecvState>(*this);
  st->buffer = data;
  st->capacity = capacity;
  st->user_src = src;
  st->world_src = src == kAnySource ? sim::kAnySource : world_rank(src);
  st->sim_tag =
      tag == kAnyTag ? sim::kAnyTag : static_cast<std::int64_t>(p2p_tag(tag));
  return Request(std::move(st));
}

Request Comm::iallreduce_bytes(const void* in, void* out, std::size_t count,
                               std::size_t elem_size, CombineFn combine,
                               std::shared_ptr<const void> op) const {
  obs::count(ctx_->obs(), "mpi.iallreduce.calls", 1.0);
  obs::count(ctx_->obs(), "mpi.iallreduce.bytes",
             static_cast<double>(count * elem_size));
  const int p = size();
  const int r = rank();
  const std::size_t bytes = count * elem_size;
  // Both phase tags are drawn at creation, in the order the blocking
  // allreduce (reduce then bcast) would draw them.
  const std::uint64_t reduce_tag = next_collective_tag(kOpReduce);
  const std::uint64_t bcast_tag = next_collective_tag(kOpBcast);

  auto st = std::make_shared<detail::AllreduceState>(*this);
  st->acc.resize(bytes);
  if (bytes > 0) std::memcpy(st->acc.data(), in, bytes);
  st->out = out;
  st->count = count;
  st->combine = combine;
  st->op = std::move(op);

  using Step = detail::AllreduceState::Step;
  // Reduce to rank 0 (binomial, ascending mask; root == 0 so vr == r).
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((r & mask) == 0) {
      if ((r | mask) < p)
        st->steps.push_back(
            Step{Step::kRecvCombine, world_rank(r | mask), reduce_tag});
    } else {
      st->steps.push_back(
          Step{Step::kSendAcc, world_rank(r & ~mask), reduce_tag});
      break;
    }
  }
  // Bcast from rank 0 (binomial: receive from parent, forward to children).
  int mask = 1;
  while (mask < p) {
    if (r & mask) {
      st->steps.push_back(Step{Step::kRecvAcc, world_rank(r - mask), bcast_tag});
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (r + mask < p)
      st->steps.push_back(Step{Step::kSendAcc, world_rank(r + mask), bcast_tag});
    mask >>= 1;
  }

  Request rq(st);
  st->progress(/*blocking=*/false);  // issue leading sends / finish p == 1
  return rq;
}

Request Comm::isparse_alltoallv_bytes_known(const void* in,
                                            const PartnerList& sends,
                                            const PartnerList& recvs,
                                            void* out) const {
  const int r = rank();
  detail::check_partners(sends, size(), "isparse_alltoallv_known");
  detail::check_partners(recvs, size(), "isparse_alltoallv_known");
  if (obs::RankObs* const o = ctx_->obs(); o != nullptr) {
    double moved = 0.0;
    double partners = 0.0;
    for (const Partner& s : sends) {
      if (s.rank == r || s.count == 0) continue;
      moved += static_cast<double>(s.count);
      partners += 1.0;
    }
    o->add("mpi.isparse_alltoallv_known.calls", 1.0);
    o->add("mpi.isparse_alltoallv_known.bytes", moved);
    o->add("mpi.isparse_alltoallv_known.partners", partners);
  }
  const std::uint64_t tag = next_collective_tag(kOpSparse);

  // Self block, async sends to every non-empty partner, then the pending
  // receives in ascending partner order.
  auto st = std::make_shared<detail::KnownExchangeState>(*this);
  st->tag = tag;
  st->out = static_cast<std::byte*>(out);
  detail::copy_self_block(in, sends, recvs, out, r, "async exchange");
  for (const Partner& s : sends) {
    if (s.rank == r || s.count == 0) continue;
    ctx_->send_async(world_rank(s.rank), tag, detail::as_bytes(in) + s.offset,
                     s.count);
  }
  for (const Partner& e : recvs) {
    if (e.rank == r || e.count == 0) continue;
    st->pending.push_back(detail::KnownExchangeState::Pending{
        world_rank(e.rank), e.count, e.offset});
  }
  if (st->pending.empty()) st->done = true;
  return Request(std::move(st));
}

}  // namespace mpi
