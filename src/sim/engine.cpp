#include "sim/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>

#include "sim/fiber.hpp"
#include "support/error.hpp"

namespace sim {

int RankCtx::nranks() const { return engine_->config().nranks; }

const EngineConfig& RankCtx::config() const { return engine_->config(); }

void RankCtx::advance(double seconds) {
  FCS_ASSERT(seconds >= 0.0);
  clock_ += seconds;
}

void RankCtx::charge_ops(double ops) {
  clock_ += ops / engine_->config().compute_rate;
  obs::count(obs_, "sim.charge.ops", ops);
}

void RankCtx::charge_bytes(double bytes) {
  clock_ += bytes / engine_->config().memory_rate;
  obs::count(obs_, "sim.charge.bytes", bytes);
}

void RankCtx::check_crashed() {
  if (clock_ < crash_at_) return;
  obs::count(obs_, "sim.fault.crashes", 1.0);
  throw RankCrashed{};
}

void RankCtx::send(int dst, std::uint64_t tag, const void* data,
                   std::size_t bytes) {
  const EngineConfig& cfg = engine_->config();
  FCS_CHECK(dst >= 0 && dst < cfg.nranks,
            "send to invalid rank " << dst << " of " << cfg.nranks);
  check_crashed();
  maybe_stall();
  clock_ += cfg.send_overhead + static_cast<double>(bytes) / cfg.memory_rate +
            cfg.network->injection_time(rank_, dst, bytes);
  if (obs_ != nullptr) {
    obs_->add("sim.send.msgs", 1.0);
    obs_->add("sim.send.bytes", static_cast<double>(bytes));
    obs_->observe("sim.msg_bytes", static_cast<double>(bytes));
  }
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.seq = engine_->mailbox().next_seq();
  m.flow = m.seq;
  m.arrival = clock_ + cfg.network->p2p_time(rank_, dst, bytes);
  const auto* const first = static_cast<const std::byte*>(data);
  m.payload.assign(first, first + bytes);
  if (obs_ != nullptr) obs_->flow_send(m.flow, dst, bytes);
  FaultInjector* const fi = engine_->faults();
  if (fi != nullptr && fi->plan().affects_messages() && dst != rank_) {
    send_faulty(dst, bytes, std::move(m));
    return;
  }
  engine_->deliver(dst, std::move(m));
}

double RankCtx::send_async(int dst, std::uint64_t tag, const void* data,
                           std::size_t bytes) {
  const EngineConfig& cfg = engine_->config();
  FCS_CHECK(dst >= 0 && dst < cfg.nranks,
            "send to invalid rank " << dst << " of " << cfg.nranks);
  FaultInjector* const fi = engine_->faults();
  if (fi != nullptr && fi->plan().affects_messages() && dst != rank_) {
    // The reliable channel's retry/ack rounds are driven by the sender's
    // clock; keep them on the blocking path rather than model a faulty NIC.
    send(dst, tag, data, bytes);
    return clock_;
  }
  check_crashed();
  maybe_stall();
  clock_ += cfg.send_overhead;
  const double copy = static_cast<double>(bytes) / cfg.memory_rate;
  const double inject = cfg.network->injection_time(rank_, dst, bytes);
  const double start = std::max(nic_busy_until_, clock_);
  nic_busy_until_ = start + copy + inject;
  if (obs_ != nullptr) {
    obs_->add("sim.send.msgs", 1.0);
    obs_->add("sim.send.bytes", static_cast<double>(bytes));
    obs_->add("sim.nic.sends", 1.0);
    obs_->add("sim.nic.busy_s", copy + inject);
    obs_->observe("sim.msg_bytes", static_cast<double>(bytes));
  }
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.seq = engine_->mailbox().next_seq();
  m.flow = m.seq;
  m.arrival = nic_busy_until_ + cfg.network->p2p_time(rank_, dst, bytes);
  const auto* const first = static_cast<const std::byte*>(data);
  m.payload.assign(first, first + bytes);
  if (obs_ != nullptr) obs_->flow_send_at(m.flow, dst, bytes, nic_busy_until_);
  const double done = nic_busy_until_;
  engine_->deliver(dst, std::move(m));
  return done;
}

void RankCtx::charge_nic(double seconds) {
  FCS_ASSERT(seconds >= 0.0);
  nic_busy_until_ = std::max(nic_busy_until_, clock_) + seconds;
  obs::count(obs_, "sim.nic.busy_s", seconds);
}

void RankCtx::send_faulty(int dst, std::size_t bytes, Message m) {
  const EngineConfig& cfg = engine_->config();
  FaultInjector& fi = *engine_->faults();
  const double flight = cfg.network->p2p_time(rank_, dst, bytes);
  const std::uint64_t chan_seq = fi.next_chan_seq(rank_, dst);
  const std::uint64_t tag = m.tag;
  const std::uint64_t flow = m.flow;
  m.chan_seq = chan_seq;

  double delay = fi.jitter(rank_, dst, chan_seq, clock_);
  if (delay > 0.0 && obs_ != nullptr) {
    obs_->add("sim.fault.delayed", 1.0);
    obs_->add("sim.fault.delay_s", delay);
  }

  // Reliable channel: a dropped DATA transmission costs one retransmission
  // timeout (exponential backoff) plus the re-injection overhead; the
  // payload is only delivered once, after the drops. After max_retry
  // consecutive drops the peer is presumed unreachable and the sender
  // escalates to a peer-failure report instead of retrying forever - the
  // signal the crash detector builds on.
  int attempt = 0;
  while (fi.drop_data(rank_, dst, chan_seq, attempt, clock_)) {
    if (obs_ != nullptr) obs_->add("sim.fault.dropped", 1.0);
    if (!fi.plan().reliable) {
      // Fire and forget: the message is lost for good.
      if (obs_ != nullptr) obs_->add("sim.fault.lost", 1.0);
      return;
    }
    if (attempt + 1 >= fi.plan().max_retry) {
      if (obs_ != nullptr) obs_->add("sim.fault.peer_reports", 1.0);
      std::ostringstream oss;
      oss << "rank " << rank_ << ": peer " << dst << " unreachable after "
          << fi.plan().max_retry << " transmission attempts";
      throw RankFailedError(dst, oss.str());
    }
    if (obs_ != nullptr) obs_->add("sim.reliable.retransmits", 1.0);
    delay += fi.rto(attempt);
    clock_ += cfg.send_overhead +
              cfg.network->injection_time(rank_, dst, bytes);
    ++attempt;
  }
  m.arrival = clock_ + delay + flight;

  // Spurious network duplication: a second copy trails the original and is
  // suppressed by the receiver's sequence-number filter.
  const bool network_dup = fi.duplicate(rank_, dst, chan_seq, clock_);
  Message dup;
  if (network_dup) dup = m;  // copy before the payload moves out
  engine_->deliver(dst, std::move(m));
  if (network_dup) {
    if (obs_ != nullptr) obs_->add("sim.fault.duplicated", 1.0);
    dup.seq = engine_->mailbox().next_seq();
    dup.arrival += fi.rto(0);
    engine_->deliver(dst, std::move(dup));
  }

  // Lost ACKs (reliable mode): the receiver has the DATA, but the sender
  // times out and retransmits it - another duplicate for the filter - until
  // an ACK gets through. Each round costs the sender backoff + injection.
  if (fi.plan().reliable) {
    int ack_attempt = 0;
    while (fi.drop_ack(rank_, dst, chan_seq, attempt + ack_attempt, clock_)) {
      if (attempt + ack_attempt + 1 >= fi.plan().max_retry) {
        if (obs_ != nullptr) obs_->add("sim.fault.peer_reports", 1.0);
        std::ostringstream oss;
        oss << "rank " << rank_ << ": no ack from peer " << dst << " after "
            << fi.plan().max_retry << " transmission attempts";
        throw RankFailedError(dst, oss.str());
      }
      if (obs_ != nullptr) {
        obs_->add("sim.fault.dropped", 1.0);
        obs_->add("sim.reliable.retransmits", 1.0);
      }
      const double wait = fi.rto(attempt + ack_attempt);
      delay += wait;
      clock_ += cfg.send_overhead +
                cfg.network->injection_time(rank_, dst, bytes);
      Message retrans;
      retrans.src = rank_;
      retrans.tag = tag;
      retrans.flow = flow;
      retrans.chan_seq = chan_seq;
      retrans.seq = engine_->mailbox().next_seq();
      retrans.arrival = clock_ + delay + flight;
      engine_->deliver(dst, std::move(retrans));
      ++ack_attempt;
    }
  }
}

void RankCtx::maybe_stall() {
  FaultInjector* const fi = engine_->faults();
  if (fi == nullptr) return;
  const double stall = fi->take_stall(rank_, clock_);
  if (stall <= 0.0) return;
  clock_ += stall;
  if (obs_ != nullptr) {
    obs_->add("sim.fault.stalls", 1.0);
    obs_->add("sim.fault.stall_s", stall);
  }
}

RankCtx::RecvInfo RankCtx::recv(int src, std::int64_t tag) {
  const EngineConfig& cfg = engine_->config();
  check_crashed();
  maybe_stall();
  for (;;) {
    // A pending revocation aborts the receive before any matching: the rank
    // must fall back into its recovery driver instead of continuing a
    // collective some participant already abandoned. The recovery protocol
    // itself runs with recovery mode on and is exempt.
    if (!recovery_mode_ && revoked()) {
      std::ostringstream oss;
      oss << "rank " << rank_ << ": communicator revoked while receiving"
          << " from " << src;
      throw RankFailedError(-1, oss.str());
    }
    auto m = engine_->mailbox().try_match(rank_, src, tag);
    if (m.has_value()) {
      const double posted = clock_;
      clock_ = std::max(clock_, m->arrival) + cfg.recv_overhead +
               static_cast<double>(m->payload.size()) / cfg.memory_rate;
      if (obs_ != nullptr) {
        obs_->add("sim.recv.msgs", 1.0);
        obs_->add("sim.recv.bytes", static_cast<double>(m->payload.size()));
        obs_->flow_recv(m->flow, m->src, m->payload.size(), posted,
                        m->arrival);
      }
      RecvInfo info;
      info.src = m->src;
      info.tag = m->tag;
      info.arrival = m->arrival;
      info.payload = std::move(m->payload);
      return info;
    }
    // Failure detection on the virtual clock: a receive from a dead peer
    // can never complete; the survivor notices one heartbeat timeout after
    // the death and reports the failure instead of blocking forever.
    if (src != kAnySource && engine_->rank_dead(src)) {
      const double death = engine_->death_time(src);
      const double timeout =
          engine_->faults() != nullptr
              ? engine_->faults()->plan().detect_timeout
              : 0.0;
      const double noticed = std::max(clock_, death + timeout);
      if (obs_ != nullptr) {
        obs_->add("sim.fault.detected", 1.0);
        obs_->observe("sim.fault.detect_s", noticed - death);
      }
      clock_ = noticed;
      std::ostringstream oss;
      oss << "rank " << rank_ << ": peer " << src
          << " failed (died at t=" << death << ")";
      throw RankFailedError(src, oss.str());
    }
    engine_->block_current(*this, src, tag);
    check_crashed();
  }
}

bool RankCtx::try_recv(int src, std::int64_t tag, RecvInfo* out) {
  const EngineConfig& cfg = engine_->config();
  check_crashed();
  auto m = engine_->mailbox().try_match_arrived(rank_, src, tag, clock_);
  if (!m.has_value()) return false;
  const double posted = clock_;
  clock_ += cfg.recv_overhead +
            static_cast<double>(m->payload.size()) / cfg.memory_rate;
  if (obs_ != nullptr) {
    obs_->add("sim.recv.msgs", 1.0);
    obs_->add("sim.recv.bytes", static_cast<double>(m->payload.size()));
    // post == consume time: a polled receive never waited, so the
    // critical-path walk must not treat it as gating (arrival <= post).
    obs_->flow_recv(m->flow, m->src, m->payload.size(), posted, m->arrival);
  }
  out->src = m->src;
  out->tag = m->tag;
  out->arrival = m->arrival;
  out->payload = std::move(m->payload);
  return true;
}

bool RankCtx::can_recv(int src, std::int64_t tag) const {
  return engine_->mailbox().has_match(rank_, src, tag);
}

void RankCtx::yield() {
  check_crashed();
  Fiber& f = *engine_->fibers_[static_cast<std::size_t>(rank_)];
  f.yield();
}

bool RankCtx::rank_failed(int world_rank) const {
  return engine_->rank_dead(world_rank);
}

std::vector<int> RankCtx::failed_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < engine_->config().nranks; ++r)
    if (engine_->rank_dead(r)) out.push_back(r);
  return out;
}

void RankCtx::revoke() {
  if (revoked()) return;  // a concurrent detector already raised this epoch
  engine_->raise_revoke(nullptr);
  obs::count(obs_, "sim.fault.revokes", 1.0);
}

void RankCtx::revoke(const std::vector<int>& world_ranks) {
  if (revoked()) return;  // a concurrent detector already raised this epoch
  engine_->raise_revoke(&world_ranks);
  obs::count(obs_, "sim.fault.revokes", 1.0);
}

bool RankCtx::revoked() const {
  return engine_->pending_revoke_[static_cast<std::size_t>(rank_)] >
         seen_revoke_epoch_;
}

void RankCtx::acknowledge_revoke() {
  seen_revoke_epoch_ = engine_->pending_revoke_[static_cast<std::size_t>(rank_)];
}

std::size_t RankCtx::purge_mailbox(
    const std::function<bool(std::uint64_t)>& keep) {
  const auto msg_keep =
      keep == nullptr
          ? std::function<bool(const Message&)>()
          : std::function<bool(const Message&)>(
                [&keep](const Message& m) { return keep(m.tag); });
  const std::size_t bytes = engine_->mailbox().purge(rank_, msg_keep);
  obs::count(obs_, "sim.fault.purged_bytes", static_cast<double>(bytes));
  return bytes;
}

Engine::Engine(EngineConfig config)
    : config_(config), mailbox_(config.nranks) {
  FCS_CHECK(config_.nranks >= 1, "engine needs at least one rank");
  FCS_CHECK(config_.network != nullptr, "engine needs a network model");
  if (config_.fault_plan.active())
    faults_ = std::make_unique<FaultInjector>(config_.fault_plan,
                                              config_.nranks);
  contexts_.reserve(static_cast<std::size_t>(config_.nranks));
  for (int r = 0; r < config_.nranks; ++r) contexts_.emplace_back(RankCtx(this, r));
  final_clocks_.resize(static_cast<std::size_t>(config_.nranks), 0.0);
  dead_.resize(static_cast<std::size_t>(config_.nranks), 0);
  death_time_.resize(static_cast<std::size_t>(config_.nranks), 0.0);
  pending_revoke_.resize(static_cast<std::size_t>(config_.nranks), 0);
  if (faults_ != nullptr && config_.fault_plan.affects_ranks()) {
    for (int r = 0; r < config_.nranks; ++r) {
      const double at = faults_->crash_time(r);
      if (at == std::numeric_limits<double>::infinity()) continue;
      contexts_[static_cast<std::size_t>(r)].crash_at_ = at;
      ++doomed_pending_;
    }
    FCS_CHECK(doomed_pending_ < config_.nranks,
              "fault plan crashes every rank; no survivor could finish");
  }
  if (config_.recorder != nullptr) {
    config_.recorder->attach(config_.nranks);
    for (int r = 0; r < config_.nranks; ++r) {
      RankCtx& ctx = contexts_[static_cast<std::size_t>(r)];
      ctx.obs_ = &config_.recorder->rank(r);
      ctx.obs_->bind_clock(&ctx.clock_);
    }
  }
}

Engine::~Engine() {
  // Ranks abandoned mid-run (deadlock, or a sibling rank's exception) are
  // still suspended with live objects on their fiber stacks; unwind them so
  // their destructors run instead of leaking.
  for (auto& f : fibers_)
    if (f != nullptr) f->unwind();
}

void Engine::run(const std::function<void(RankCtx&)>& body) {
  FCS_CHECK(!ran_, "Engine::run may be called only once");
  ran_ = true;

  fibers_.reserve(static_cast<std::size_t>(config_.nranks));
  for (int r = 0; r < config_.nranks; ++r) {
    RankCtx* ctx = &contexts_[static_cast<std::size_t>(r)];
    fibers_.push_back(std::make_unique<Fiber>(
        config_.stack_bytes, [body, ctx]() { body(*ctx); }));
    push_runnable(r, 0.0);
  }

  int finished = 0;
  while (finished < config_.nranks) {
    // Blocked ranks whose crash time has come must die on schedule even
    // though no message will ever wake them; force-resume them before any
    // later-clocked rank runs so death times stay causally ordered.
    if (doomed_pending_ > 0)
      maybe_wake_doomed(runnable_.empty()
                            ? std::numeric_limits<double>::infinity()
                            : runnable_.front().clock);
    if (runnable_.empty()) report_deadlock();
    std::pop_heap(runnable_.begin(), runnable_.end(), std::greater<HeapEntry>());
    const int r = runnable_.back().rank;
    runnable_.pop_back();

    Fiber& f = *fibers_[static_cast<std::size_t>(r)];
    running_rank_ = r;
    bool crashed = false;
    try {
      f.resume();  // rethrows rank exceptions
    } catch (const RankCrashed&) {
      crashed = true;  // scheduled rank crash, not an error
    }
    running_rank_ = -1;
    if (crashed) {
      ++finished;
      final_clocks_[static_cast<std::size_t>(r)] =
          contexts_[static_cast<std::size_t>(r)].now();
      declare_dead(r, contexts_[static_cast<std::size_t>(r)].now());
      continue;
    }

    switch (f.state()) {
      case Fiber::State::kFinished:
        ++finished;
        final_clocks_[static_cast<std::size_t>(r)] =
            contexts_[static_cast<std::size_t>(r)].now();
        break;
      case Fiber::State::kRunnable:
        push_runnable(r, contexts_[static_cast<std::size_t>(r)].now());
        break;
      case Fiber::State::kBlocked:
        break;  // woken by wake_if_waiting
      case Fiber::State::kRunning:
        FCS_ASSERT(false);
    }
  }
}

void Engine::block_current(RankCtx& ctx, int src, std::int64_t tag) {
  ctx.wait_src_ = src;
  ctx.wait_tag_ = tag;
  Fiber& f = *fibers_[static_cast<std::size_t>(ctx.rank_)];
  f.set_state(Fiber::State::kBlocked);
  f.yield();
}

bool Engine::deliver(int dst, Message m) {
  // Messages addressed to a dead rank vanish (the crashed process can never
  // consume them); senders are not told - like real MPI, a send to a failed
  // peer may "succeed". Failures surface at the receive side.
  if (dead_[static_cast<std::size_t>(dst)] != 0) {
    obs::count(contexts_[static_cast<std::size_t>(m.src)].obs_,
               "sim.fault.to_dead", 1.0);
    return false;
  }
  if (faults_ != nullptr && m.chan_seq != 0 &&
      !faults_->accept(dst, m.src, m.chan_seq)) {
    obs::count(contexts_[static_cast<std::size_t>(dst)].obs_,
               "sim.reliable.dup_suppressed", 1.0);
    return false;
  }
  wake_if_waiting(dst, m);
  mailbox_.deliver(dst, std::move(m));
  return true;
}

void Engine::declare_dead(int rank, double at) {
  const std::size_t r = static_cast<std::size_t>(rank);
  FCS_ASSERT(dead_[r] == 0);
  dead_[r] = 1;
  death_time_[r] = at;
  if (contexts_[r].crash_at_ != std::numeric_limits<double>::infinity())
    --doomed_pending_;
  // Drop whatever the dead rank had not consumed yet and wake every
  // survivor blocked on a receive from it: their recv reports the failure.
  mailbox_.purge(rank, nullptr);
  for (int s = 0; s < config_.nranks; ++s) {
    if (s == rank || dead_[static_cast<std::size_t>(s)] != 0) continue;
    Fiber* const f = fibers_[static_cast<std::size_t>(s)].get();
    if (f == nullptr || f->state() != Fiber::State::kBlocked) continue;
    const RankCtx& ctx = contexts_[static_cast<std::size_t>(s)];
    if (ctx.wait_src_ != rank) continue;
    f->set_state(Fiber::State::kRunnable);
    push_runnable(s, ctx.now());
  }
}

void Engine::maybe_wake_doomed(double up_to) {
  for (int r = 0; r < config_.nranks; ++r) {
    RankCtx& ctx = contexts_[static_cast<std::size_t>(r)];
    if (dead_[static_cast<std::size_t>(r)] != 0 || ctx.crash_at_ > up_to)
      continue;
    Fiber* const f = fibers_[static_cast<std::size_t>(r)].get();
    if (f == nullptr || f->state() != Fiber::State::kBlocked) continue;
    ctx.clock_ = std::max(ctx.clock_, ctx.crash_at_);
    f->set_state(Fiber::State::kRunnable);
    push_runnable(r, ctx.now());
  }
}

void Engine::raise_revoke(const std::vector<int>* scope) {
  const auto notify = [this](int r) {
    if (dead_[static_cast<std::size_t>(r)] != 0) return;
    ++pending_revoke_[static_cast<std::size_t>(r)];
    Fiber* const f = fibers_[static_cast<std::size_t>(r)].get();
    if (f == nullptr || f->state() != Fiber::State::kBlocked) return;
    f->set_state(Fiber::State::kRunnable);
    push_runnable(r, contexts_[static_cast<std::size_t>(r)].now());
  };
  if (scope == nullptr) {
    for (int r = 0; r < config_.nranks; ++r) notify(r);
  } else {
    for (int r : *scope) notify(r);
  }
}

void Engine::wake_if_waiting(int dst, const Message& m) {
  Fiber& f = *fibers_[static_cast<std::size_t>(dst)];
  if (f.state() != Fiber::State::kBlocked) return;
  const RankCtx& ctx = contexts_[static_cast<std::size_t>(dst)];
  if (ctx.wait_src_ != kAnySource && ctx.wait_src_ != m.src) return;
  if (ctx.wait_tag_ != kAnyTag &&
      static_cast<std::uint64_t>(ctx.wait_tag_) != m.tag)
    return;
  f.set_state(Fiber::State::kRunnable);
  push_runnable(dst, ctx.now());
}

void Engine::push_runnable(int rank, double clock) {
  runnable_.push_back(HeapEntry{clock, push_seq_++, rank});
  std::push_heap(runnable_.begin(), runnable_.end(), std::greater<HeapEntry>());
}

void Engine::report_deadlock() {
  std::ostringstream oss;
  oss << "deadlock: all unfinished ranks are blocked in recv; waiting ranks:";
  int shown = 0;
  for (int r = 0; r < config_.nranks && shown < 16; ++r) {
    const Fiber& f = *fibers_[static_cast<std::size_t>(r)];
    if (f.state() != Fiber::State::kBlocked) continue;
    const RankCtx& ctx = contexts_[static_cast<std::size_t>(r)];
    oss << " [rank " << r << " <- src=" << ctx.wait_src_
        << " tag=" << ctx.wait_tag_ << "]";
    ++shown;
  }
  throw fcs::Error(oss.str());
}

double Engine::makespan() const {
  double m = 0.0;
  for (double c : final_clocks_) m = std::max(m, c);
  return m;
}

double run_spmd(EngineConfig config,
                const std::function<void(RankCtx&)>& body) {
  Engine engine(std::move(config));
  engine.run(body);
  return engine.makespan();
}

}  // namespace sim
