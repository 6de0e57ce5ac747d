#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/network.hpp"
#include "support/error.hpp"

namespace {

TEST(Fiber, RunsBodyToCompletion) {
  int counter = 0;
  sim::Fiber f(64 * 1024, [&] { counter = 7; });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(counter, 7);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  sim::Fiber* self = nullptr;
  sim::Fiber f(64 * 1024, [&] {
    trace.push_back(1);
    self->yield();
    trace.push_back(3);
  });
  self = &f;
  f.resume();
  trace.push_back(2);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, ExceptionPropagatesOnResume) {
  sim::Fiber f(64 * 1024, [] { throw fcs::Error("boom"); });
  EXPECT_THROW(f.resume(), fcs::Error);
  EXPECT_TRUE(f.finished());
}

TEST(Engine, RunsAllRanks) {
  sim::EngineConfig cfg;
  cfg.nranks = 17;
  std::vector<int> visited(17, 0);
  sim::Engine engine(cfg);
  engine.run([&](sim::RankCtx& ctx) { visited[ctx.rank()] = 1 + ctx.rank(); });
  for (int r = 0; r < 17; ++r) EXPECT_EQ(visited[r], 1 + r);
}

TEST(Engine, PingPongTransfersData) {
  sim::EngineConfig cfg;
  cfg.nranks = 2;
  sim::Engine engine(cfg);
  engine.run([&](sim::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const int payload = 4711;
      ctx.send(1, 1, &payload, sizeof payload);
      auto back = ctx.recv(1, 2);
      ASSERT_EQ(back.payload.size(), sizeof(int));
      int value = 0;
      std::memcpy(&value, back.payload.data(), sizeof value);
      EXPECT_EQ(value, 4712);
    } else {
      auto in = ctx.recv(0, 1);
      int value = 0;
      std::memcpy(&value, in.payload.data(), sizeof value);
      ++value;
      ctx.send(0, 2, &value, sizeof value);
    }
  });
}

TEST(Engine, VirtualClockAdvancesWithMessages) {
  sim::EngineConfig cfg;
  cfg.nranks = 2;
  cfg.network = std::make_shared<sim::SwitchedNetwork>(1e-3, 1e-9);
  sim::Engine engine(cfg);
  engine.run([&](sim::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      char c = 0;
      ctx.send(1, 1, &c, 1);
    } else {
      (void)ctx.recv(0, 1);
      // Receiver must have waited at least the network latency.
      EXPECT_GE(ctx.now(), 1e-3);
    }
  });
  EXPECT_GE(engine.makespan(), 1e-3);
  // Makespan is the receiver's clock (sender finishes earlier).
  EXPECT_LT(engine.final_clocks()[0], engine.final_clocks()[1]);
}

TEST(Engine, AdvanceAndChargeAccumulate) {
  sim::EngineConfig cfg;
  cfg.nranks = 1;
  cfg.compute_rate = 1e9;
  cfg.memory_rate = 1e9;
  sim::Engine engine(cfg);
  engine.run([&](sim::RankCtx& ctx) {
    ctx.advance(1.0);
    ctx.charge_ops(2e9);  // 2 s
    ctx.charge_bytes(3e9);  // 3 s
    EXPECT_DOUBLE_EQ(ctx.now(), 6.0);
  });
  EXPECT_DOUBLE_EQ(engine.makespan(), 6.0);
}

TEST(Engine, DeadlockIsReported) {
  sim::EngineConfig cfg;
  cfg.nranks = 2;
  sim::Engine engine(cfg);
  EXPECT_THROW(
      engine.run([&](sim::RankCtx& ctx) { (void)ctx.recv(sim::kAnySource, 9); }),
      fcs::Error);
}

TEST(Engine, RankExceptionPropagates) {
  sim::EngineConfig cfg;
  cfg.nranks = 3;
  sim::Engine engine(cfg);
  EXPECT_THROW(engine.run([&](sim::RankCtx& ctx) {
    if (ctx.rank() == 1) throw fcs::Error("rank 1 failed");
  }),
               fcs::Error);
}

TEST(Engine, AnySourceReceivesEarliestArrival) {
  sim::EngineConfig cfg;
  cfg.nranks = 3;
  cfg.network = std::make_shared<sim::SwitchedNetwork>(1e-6, 1e-9);
  sim::Engine engine(cfg);
  engine.run([&](sim::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      // Wait until both messages are in the mailbox, then check that the
      // wildcard receive picks the earlier virtual arrival: rank 1 sends a
      // huge message (arrives later), rank 2 a tiny one.
      while (!(ctx.can_recv(1, 5) && ctx.can_recv(2, 5))) ctx.yield();
      auto first = ctx.recv(sim::kAnySource, 5);
      auto second = ctx.recv(sim::kAnySource, 5);
      EXPECT_EQ(first.src, 2);
      EXPECT_EQ(second.src, 1);
      EXPECT_LE(first.arrival, second.arrival);
    } else if (ctx.rank() == 1) {
      std::vector<char> big(1 << 20, 'x');
      ctx.send(0, 5, big.data(), big.size());
    } else {
      char c = 'y';
      ctx.send(0, 5, &c, 1);
    }
  });
}

TEST(Engine, MessagesBetweenPairAreNonOvertaking) {
  sim::EngineConfig cfg;
  cfg.nranks = 2;
  sim::Engine engine(cfg);
  engine.run([&](sim::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) ctx.send(1, 3, &i, sizeof i);
    } else {
      for (int i = 0; i < 10; ++i) {
        auto m = ctx.recv(0, 3);
        int v = -1;
        std::memcpy(&v, m.payload.data(), sizeof v);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Engine, ManyRanksSmallStacks) {
  sim::EngineConfig cfg;
  cfg.nranks = 2048;
  cfg.stack_bytes = 64 * 1024;
  sim::Engine engine(cfg);
  long long sum = 0;
  engine.run([&](sim::RankCtx& ctx) {
    // Relay a token around the ring.
    const int r = ctx.rank();
    const int p = ctx.nranks();
    if (r == 0) {
      long long token = 1;
      ctx.send(1 % p, 1, &token, sizeof token);
      auto m = ctx.recv(p - 1, 1);
      std::memcpy(&sum, m.payload.data(), sizeof sum);
    } else {
      auto m = ctx.recv(r - 1, 1);
      long long token = 0;
      std::memcpy(&token, m.payload.data(), sizeof token);
      ++token;
      ctx.send((r + 1) % p, 1, &token, sizeof token);
    }
  });
  EXPECT_EQ(sum, 2048);
}

// Naive reference for the mailbox: one flat vector of pending messages in
// send order, scanned in full by every operation.
class RefMailbox {
 public:
  struct Msg {
    int dst;
    int src;
    std::uint64_t tag;
    std::uint64_t seq;
    double arrival;
    std::size_t bytes;
  };

  void deliver(int dst, const sim::Message& m) {
    pending_.push_back({dst, m.src, m.tag, m.seq, m.arrival, m.payload.size()});
  }

  std::optional<Msg> match(int dst, int src, std::int64_t tag, double now) {
    std::vector<int> seen;  // sources whose first tag match was visited
    std::size_t best = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Msg& m = pending_[i];
      if (!matches(m, dst, src, tag)) continue;
      if (std::find(seen.begin(), seen.end(), m.src) != seen.end()) continue;
      seen.push_back(m.src);
      if (m.arrival > now) continue;  // in flight: blocks its source
      if (best == pending_.size() ||
          std::tie(m.arrival, m.src, m.seq) <
              std::tie(pending_[best].arrival, pending_[best].src,
                       pending_[best].seq))
        best = i;
    }
    if (best == pending_.size()) return std::nullopt;
    const Msg out = pending_[best];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    return out;
  }

  bool has_match(int dst, int src, std::int64_t tag) const {
    return std::any_of(pending_.begin(), pending_.end(), [&](const Msg& m) {
      return matches(m, dst, src, tag);
    });
  }

  std::size_t purge(int dst, std::int64_t drop_tag) {
    std::size_t bytes = 0;
    std::erase_if(pending_, [&](const Msg& m) {
      if (m.dst != dst) return false;
      if (drop_tag != sim::kAnyTag &&
          m.tag != static_cast<std::uint64_t>(drop_tag))
        return false;
      bytes += m.bytes;
      return true;
    });
    return bytes;
  }

  std::size_t pending_for(int dst) const {
    return static_cast<std::size_t>(std::count_if(
        pending_.begin(), pending_.end(),
        [dst](const Msg& m) { return m.dst == dst; }));
  }
  std::size_t pending_total() const { return pending_.size(); }

  /// Source of a random pending message for dst, or -1 if there is none.
  int some_source(int dst, std::mt19937_64& rng) const {
    std::vector<int> srcs;
    for (const Msg& m : pending_)
      if (m.dst == dst) srcs.push_back(m.src);
    return srcs.empty() ? -1 : srcs[rng() % srcs.size()];
  }

 private:
  static bool matches(const Msg& m, int dst, int src, std::int64_t tag) {
    return m.dst == dst && (src == sim::kAnySource || m.src == src) &&
           (tag == sim::kAnyTag || m.tag == static_cast<std::uint64_t>(tag));
  }

  std::vector<Msg> pending_;
};

std::vector<std::byte> payload_for(std::uint64_t seq) {
  std::vector<std::byte> p(seq % 7);
  for (std::size_t k = 0; k < p.size(); ++k)
    p[k] = static_cast<std::byte>((seq + k) & 0xff);
  return p;
}

// Seeded random operation sequences against the reference. Fill phases
// deliver from up to 200 sources per destination, so the source tables grow
// several times; drain phases match between deliveries, so sources leave
// crowded tables. Arrivals sit on a coarse grid, so wildcard ties on arrival
// (broken by src, then seq) and arrival == now both occur.
TEST(Mailbox, MatchesNaiveReferenceOnRandomSequences) {
  constexpr int kRanks = 256;
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const std::vector<int> dsts = {0, 1, kRanks - 1};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    sim::Mailbox box(kRanks);
    RefMailbox ref;
    auto pick_tag = [&]() -> std::int64_t {
      if (rng() % 3 == 0) return sim::kAnyTag;
      return static_cast<std::int64_t>(rng() % 3);
    };
    auto pick_src = [&](int dst) {
      if (rng() % 3 == 0) return sim::kAnySource;
      const int s = ref.some_source(dst, rng);
      return s >= 0 && rng() % 4 != 0 ? s : static_cast<int>(rng() % 200);
    };
    for (int op = 0; op < 6000; ++op) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
      const bool fill = (op / 500) % 2 == 0;
      const int dst = dsts[rng() % dsts.size()];
      const std::uint64_t kind = rng() % 100;
      if (kind < (fill ? 70u : 25u)) {
        sim::Message m;
        m.src = static_cast<int>(rng() % 200);
        m.tag = rng() % 3;
        m.seq = box.next_seq();
        m.arrival = 0.25 * static_cast<double>(rng() % 8);
        m.payload = payload_for(m.seq);
        ref.deliver(dst, m);
        box.deliver(dst, std::move(m));
      } else if (kind < 93) {
        const int src = pick_src(dst);
        const std::int64_t tag = pick_tag();
        const bool timed = rng() % 2 == 0;
        const double now =
            timed ? 0.25 * static_cast<double>(rng() % 9) - 0.25 : kNever;
        const auto want = ref.match(dst, src, tag, now);
        const auto got = timed ? box.try_match_arrived(dst, src, tag, now)
                               : box.try_match(dst, src, tag);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "src " << src << " tag " << tag << " now " << now;
        if (got.has_value()) {
          EXPECT_EQ(got->src, want->src);
          EXPECT_EQ(got->tag, want->tag);
          ASSERT_EQ(got->seq, want->seq);
          EXPECT_EQ(got->arrival, want->arrival);
          EXPECT_EQ(got->payload, payload_for(got->seq));
        }
      } else if (kind < 99) {
        const int src = pick_src(dst);
        const std::int64_t tag = pick_tag();
        ASSERT_EQ(box.has_match(dst, src, tag), ref.has_match(dst, src, tag))
            << "src " << src << " tag " << tag;
      } else {
        const std::int64_t drop_tag = rng() % 4 == 0 ? sim::kAnyTag : 1;
        const auto keep =
            drop_tag == sim::kAnyTag
                ? std::function<bool(const sim::Message&)>()
                : [](const sim::Message& m) { return m.tag != 1; };
        ASSERT_EQ(box.purge(dst, keep), ref.purge(dst, drop_tag));
      }
      for (int d : dsts) ASSERT_EQ(box.pending_for(d), ref.pending_for(d));
      ASSERT_EQ(box.pending_total(), ref.pending_total());
    }
    // Drain everything left, in wildcard order.
    for (int d : dsts) {
      while (const auto want =
                 ref.match(d, sim::kAnySource, sim::kAnyTag, kNever)) {
        const auto got = box.try_match(d, sim::kAnySource, sim::kAnyTag);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->seq, want->seq);
      }
    }
    EXPECT_EQ(box.pending_total(), 0u);
    EXPECT_FALSE(box.try_match(0, sim::kAnySource, sim::kAnyTag).has_value());
  }
}

TEST(Network, SwitchedIsUniform) {
  sim::SwitchedNetwork net(1e-6, 1e-9);
  EXPECT_DOUBLE_EQ(net.p2p_time(0, 1, 1000), net.p2p_time(0, 999, 1000));
  EXPECT_LT(net.p2p_time(3, 3, 1000), net.p2p_time(3, 4, 1000));
}

TEST(Network, TorusHopsAndWraparound) {
  sim::TorusNetwork net({4, 4, 4});
  EXPECT_EQ(net.hops(0, 0), 0);
  EXPECT_EQ(net.hops(0, 1), 1);   // +1 in last dim
  EXPECT_EQ(net.hops(0, 3), 1);   // wraparound: distance 1, not 3
  EXPECT_EQ(net.hops(0, 21), 3);  // coords (1,1,1)
  // Neighbor messages are cheaper than far messages.
  EXPECT_LT(net.p2p_time(0, 1, 4096), net.p2p_time(0, 42, 4096));
}

// Verbatim copy of the torus hop count and p2p time as they were before
// hops() stopped materializing coordinate vectors.
struct RefTorus {
  std::vector<int> dims;
  double base_latency, hop_latency, byte_time, per_hop_byte_factor;

  void coords_of(int rank, std::vector<int>& coords) const {
    coords.resize(dims.size());
    for (std::size_t i = dims.size(); i-- > 0;) {
      coords[i] = rank % dims[i];
      rank /= dims[i];
    }
  }
  int hops(int src, int dst) const {
    std::vector<int> a, b;
    coords_of(src, a);
    coords_of(dst, b);
    int h = 0;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      const int d = std::abs(a[i] - b[i]);
      h += std::min(d, dims[i] - d);
    }
    return h;
  }
  double p2p_time(int src, int dst, std::size_t bytes) const {
    if (src == dst) return static_cast<double>(bytes) * byte_time * 0.1;
    const int h = hops(src, dst);
    const double byte_cost = static_cast<double>(bytes) * byte_time *
                             (1.0 + per_hop_byte_factor * std::max(0, h - 1));
    return base_latency + hop_latency * h + byte_cost;
  }
};

std::uint64_t double_bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

TEST(Network, TorusHopsAndTimesMatchReferenceForEveryPair) {
  for (const std::vector<int>& dims : std::vector<std::vector<int>>{
           {7}, {16}, {4, 6}, {4, 4, 4}, {8, 8, 16}}) {
    const RefTorus ref{dims, 0.7e-6, 4.5e-8, 1.0 / 1.8e9, 0.08};
    const sim::TorusNetwork net(dims, ref.base_latency, ref.hop_latency,
                                ref.byte_time, ref.per_hop_byte_factor);
    int nranks = 1;
    for (int d : dims) nranks *= d;
    std::size_t mismatches = 0;
    for (int src = 0; src < nranks; ++src)
      for (int dst = 0; dst < nranks; ++dst) {
        if (net.hops(src, dst) != ref.hops(src, dst)) ++mismatches;
        for (std::size_t bytes : {std::size_t{0}, std::size_t{4096}})
          if (double_bits(net.p2p_time(src, dst, bytes)) !=
              double_bits(ref.p2p_time(src, dst, bytes)))
            ++mismatches;
      }
    EXPECT_EQ(mismatches, 0u) << net.name();
  }
}

TEST(Network, TorusDenseLatencyMatchesBruteForce) {
  sim::TorusNetwork net({4, 2, 2});
  const int p = 16;
  EXPECT_NEAR(net.dense_exchange_latency(0, p),
              [&] {
                double s = 0;
                for (int i = 1; i < p; ++i) s += net.p2p_time(0, i, 0);
                return s;
              }(),
              1e-12);
}

TEST(Network, BalancedDimsFactorization) {
  auto d = sim::TorusNetwork::balanced_dims(16384, 3);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0] * d[1] * d[2], 16384);
  EXPECT_LE(d[0] / d[2], 2);  // near-cubic
  auto one = sim::TorusNetwork::balanced_dims(1, 3);
  EXPECT_EQ(one, (std::vector<int>{1, 1, 1}));
  auto prime = sim::TorusNetwork::balanced_dims(7, 2);
  EXPECT_EQ(prime[0] * prime[1], 7);
}

}  // namespace
