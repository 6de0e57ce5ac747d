#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "domain/cart_grid.hpp"
#include "minimpi/cart.hpp"
#include "redist/atasp.hpp"
#include "redist/neighborhood.hpp"
#include "redist/resort.hpp"
#include "spmd_test_util.hpp"
#include "support/rng.hpp"

using fcs_test::run_ranks;
using redist::ExchangeKind;

namespace {

struct Particle {
  double x;
  std::uint64_t origin;
};

class Redist : public ::testing::TestWithParam<
                   std::tuple<int, ExchangeKind>> {};

INSTANTIATE_TEST_SUITE_P(
    RanksAndKinds, Redist,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 13, 16),
                       ::testing::Values(ExchangeKind::kDense,
                                         ExchangeKind::kSparse)));

TEST_P(Redist, FineGrainedMovesToComputedTarget) {
  const auto [p, kind] = GetParam();
  run_ranks(p, [p, kind = kind](mpi::Comm& c) {
    // Element value determines target: rank (int(x) % p).
    fcs::Rng rng = fcs::Rng(21).stream(c.rank());
    std::vector<Particle> items(100);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {rng.uniform(0, 1000.0),
                  redist::make_index(c.rank(), i)};
    auto target_of = [p](const Particle& pt) {
      return static_cast<int>(pt.x) % p;
    };
    mpi::PartnerList sources;
    auto received = redist::fine_grained_redistribute(
        c, items,
        [&](const Particle& pt, std::size_t, std::vector<int>& t) {
          t.push_back(target_of(pt));
        },
        kind, &sources);
    for (const Particle& pt : received) EXPECT_EQ(target_of(pt), c.rank());
    // Conservation.
    const auto total_in =
        c.allreduce(static_cast<std::uint64_t>(items.size()), mpi::OpSum{});
    const auto total_out =
        c.allreduce(static_cast<std::uint64_t>(received.size()), mpi::OpSum{});
    EXPECT_EQ(total_in, total_out);
    // Source list consistency: ascending sources, packed offsets, and each
    // source's block holds exactly the elements it sent.
    std::size_t sum = 0;
    for (std::size_t k = 0; k < sources.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(sources[k - 1].rank, sources[k].rank);
      }
      EXPECT_EQ(sources[k].offset, sum);
      EXPECT_GT(sources[k].count, 0u);
      for (std::size_t e = 0; e < sources[k].count; ++e)
        EXPECT_EQ(redist::index_rank(received[sum + e].origin),
                  sources[k].rank);
      sum += sources[k].count;
    }
    EXPECT_EQ(sum, received.size());
  });
}

TEST_P(Redist, DuplicationCreatesGhosts) {
  const auto [p, kind] = GetParam();
  run_ranks(p, [p, kind = kind](mpi::Comm& c) {
    // Every element goes to its owner and, when p > 1, a ghost copy to the
    // next rank.
    std::vector<Particle> items(50);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {static_cast<double>(c.rank()), redist::make_index(c.rank(), i)};
    auto received = redist::fine_grained_redistribute(
        c, items,
        [&](const Particle& pt, std::size_t, std::vector<int>& t) {
          const int owner = static_cast<int>(pt.x);
          t.push_back(owner);
          if (p > 1) t.push_back((owner + 1) % p);
        },
        kind);
    const std::size_t expected = p > 1 ? 100u : 50u;  // own + ghosts from left
    EXPECT_EQ(received.size(), expected);
  });
}

TEST_P(Redist, RestoreToOriginIsIdentityAfterShuffle) {
  const auto [p, kind] = GetParam();
  run_ranks(p, [p, kind = kind](mpi::Comm& c) {
    fcs::Rng rng = fcs::Rng(22).stream(c.rank());
    const std::size_t n = 40 + 10 * (c.rank() % 3);
    std::vector<Particle> original(n);
    for (std::size_t i = 0; i < n; ++i)
      original[i] = {rng.uniform(0, 1.0), redist::make_index(c.rank(), i)};

    // Scatter the particles pseudo-randomly (deterministic per value).
    auto scattered = redist::fine_grained_redistribute(
        c, original,
        [&](const Particle& pt, std::size_t, std::vector<int>& t) {
          t.push_back(static_cast<int>(pt.x * 7919) % p);
        },
        kind);

    // Method A: restore to the origin order and distribution.
    auto restored = redist::restore_to_origin(
        c, scattered, [](const Particle& pt) { return pt.origin; }, n, kind);
    ASSERT_EQ(restored.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(restored[i].origin, original[i].origin);
      EXPECT_DOUBLE_EQ(restored[i].x, original[i].x);
    }
  });
}

TEST_P(Redist, InvertOriginIndicesPointsAtCurrentLocation) {
  const auto [p, kind] = GetParam();
  run_ranks(p, [p, kind = kind](mpi::Comm& c) {
    fcs::Rng rng = fcs::Rng(23).stream(c.rank());
    const std::size_t n = 30;
    std::vector<Particle> original(n);
    for (std::size_t i = 0; i < n; ++i)
      original[i] = {rng.uniform(0, 1.0), redist::make_index(c.rank(), i)};
    auto scattered = redist::fine_grained_redistribute(
        c, original,
        [&](const Particle& pt, std::size_t, std::vector<int>& t) {
          t.push_back(static_cast<int>(pt.x * 5077) % p);
        },
        kind);

    std::vector<std::uint64_t> origin_of_current(scattered.size());
    for (std::size_t i = 0; i < scattered.size(); ++i)
      origin_of_current[i] = scattered[i].origin;
    std::vector<std::uint64_t> resort;
    redist::invert_origin_indices(c, origin_of_current, n, kind, resort);
    ASSERT_EQ(resort.size(), n);

    // Verify: following resort[i] from the origin must land on a particle
    // whose origin index names (rank, i). Check by a second redistribution
    // of probe values.
    struct Probe {
      std::uint64_t expect_origin;
      std::uint64_t target;
    };
    std::vector<Probe> probes(n);
    for (std::size_t i = 0; i < n; ++i)
      probes[i] = {redist::make_index(c.rank(), i), resort[i]};
    auto delivered = redist::fine_grained_redistribute(
        c, probes,
        [](const Probe& pr, std::size_t, std::vector<int>& t) {
          t.push_back(redist::index_rank(pr.target));
        },
        kind);
    ASSERT_EQ(delivered.size(), scattered.size());
    for (const Probe& pr : delivered) {
      const std::uint32_t pos = redist::index_pos(pr.target);
      ASSERT_LT(pos, scattered.size());
      EXPECT_EQ(scattered[pos].origin, pr.expect_origin);
    }
  });
}

TEST_P(Redist, ResortValuesFollowsParticles) {
  const auto [p, kind] = GetParam();
  run_ranks(p, [p, kind = kind](mpi::Comm& c) {
    fcs::Rng rng = fcs::Rng(24).stream(c.rank());
    const std::size_t n = 25;
    std::vector<Particle> original(n);
    for (std::size_t i = 0; i < n; ++i)
      original[i] = {rng.uniform(0, 1.0), redist::make_index(c.rank(), i)};
    auto scattered = redist::fine_grained_redistribute(
        c, original,
        [&](const Particle& pt, std::size_t, std::vector<int>& t) {
          t.push_back(static_cast<int>(pt.x * 3571) % p);
        },
        kind);
    std::vector<std::uint64_t> origin_of_current(scattered.size());
    for (std::size_t i = 0; i < scattered.size(); ++i)
      origin_of_current[i] = scattered[i].origin;
    std::vector<std::uint64_t> resort;
    redist::invert_origin_indices(c, origin_of_current, n, kind, resort);

    // Additional data: 3 components derived from the origin index.
    std::vector<double> velocity(3 * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < 3; ++k)
        velocity[3 * i + k] =
            static_cast<double>(original[i].origin) + 0.25 * static_cast<double>(k);

    auto moved = redist::resort_values(c, resort, velocity, 3,
                                       scattered.size(), kind);
    ASSERT_EQ(moved.size(), 3 * scattered.size());
    for (std::size_t i = 0; i < scattered.size(); ++i)
      for (std::size_t k = 0; k < 3; ++k)
        EXPECT_DOUBLE_EQ(moved[3 * i + k],
                         static_cast<double>(scattered[i].origin) +
                             0.25 * static_cast<double>(k));

    // Integer payloads take the same path.
    std::vector<std::int64_t> tags(n);
    for (std::size_t i = 0; i < n; ++i)
      tags[i] = static_cast<std::int64_t>(original[i].origin);
    auto moved_tags =
        redist::resort_values(c, resort, tags, 1, scattered.size(), kind);
    for (std::size_t i = 0; i < scattered.size(); ++i)
      EXPECT_EQ(moved_tags[i], static_cast<std::int64_t>(scattered[i].origin));
  });
}

TEST(RedistErrors, ResortRejectsWrongDataSize) {
  EXPECT_THROW(
      run_ranks(2,
                [](mpi::Comm& c) {
                  std::vector<std::uint64_t> resort = {redist::make_index(0, 0)};
                  std::vector<double> data(5);  // not 3 * 1
                  redist::resort_values(c, resort, data, 3, 1,
                                        ExchangeKind::kDense);
                }),
      fcs::Error);
}

TEST(RedistErrors, DistributionToInvalidRankThrows) {
  EXPECT_THROW(
      run_ranks(2,
                [](mpi::Comm& c) {
                  std::vector<int> items = {1};
                  redist::fine_grained_redistribute(
                      c, items,
                      [](int, std::size_t, std::vector<int>& t) { t.push_back(99); },
                      ExchangeKind::kDense);
                }),
      fcs::Error);
}

/// Run `body` on `nranks` ranks, expect an fcs::Error whose message contains
/// `substring` - the error paths must stay diagnosable, not just throwing.
void expect_error_containing(int nranks,
                             const std::function<void(mpi::Comm&)>& body,
                             const std::string& substring) {
  try {
    run_ranks(nranks, body);
    FAIL() << "expected fcs::Error containing \"" << substring << "\"";
  } catch (const fcs::Error& e) {
    EXPECT_NE(std::string(e.what()).find(substring), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(RedistErrors, InvertRejectsDuplicateOriginPosition) {
  // Two current elements claim the same origin slot: a broken origin
  // labeling that the inversion must diagnose instead of silently dropping
  // one of the particles.
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        std::vector<std::uint64_t> origin_of_current =
            c.rank() == 0 ? std::vector<std::uint64_t>{redist::make_index(0, 0),
                                                       redist::make_index(0, 0)}
                          : std::vector<std::uint64_t>{};
        std::vector<std::uint64_t> resort;
        redist::invert_origin_indices(c, origin_of_current,
                                      c.rank() == 0 ? 2 : 0,
                                      ExchangeKind::kDense, resort);
      },
      "duplicate origin position");
}

TEST(RedistErrors, InvertRejectsOutOfRangeOriginPosition) {
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        // Rank 0 holds one element whose origin names position 7 of a
        // 1-element original array.
        std::vector<std::uint64_t> origin_of_current =
            c.rank() == 0 ? std::vector<std::uint64_t>{redist::make_index(0, 7)}
                          : std::vector<std::uint64_t>{};
        std::vector<std::uint64_t> resort;
        redist::invert_origin_indices(c, origin_of_current,
                                      c.rank() == 0 ? 1 : 0,
                                      ExchangeKind::kDense, resort);
      },
      "origin position out of range");
}

TEST(RedistErrors, InvertRejectsCountMismatch) {
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        // Rank 0 expects 3 originals but only 1 index arrives globally.
        std::vector<std::uint64_t> origin_of_current =
            c.rank() == 0 ? std::vector<std::uint64_t>{redist::make_index(0, 0)}
                          : std::vector<std::uint64_t>{};
        std::vector<std::uint64_t> resort;
        redist::invert_origin_indices(c, origin_of_current,
                                      c.rank() == 0 ? 3 : 0,
                                      ExchangeKind::kDense, resort);
      },
      "expected 3 indices");
}

TEST(RedistErrors, ResortRejectsDuplicateTargetPosition) {
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        // Both of rank 0's resort indices name (rank 1, position 0).
        std::vector<std::uint64_t> resort =
            c.rank() == 0 ? std::vector<std::uint64_t>{redist::make_index(1, 0),
                                                       redist::make_index(1, 0)}
                          : std::vector<std::uint64_t>{};
        std::vector<double> data(resort.size());
        redist::resort_values(c, resort, data, 1, c.rank() == 1 ? 2 : 0,
                              ExchangeKind::kDense);
      },
      "duplicate packet for position");
}

TEST(RedistErrors, ResortRejectsOutOfRangeTargetPosition) {
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        std::vector<std::uint64_t> resort =
            c.rank() == 0 ? std::vector<std::uint64_t>{redist::make_index(1, 5)}
                          : std::vector<std::uint64_t>{};
        std::vector<double> data(resort.size());
        redist::resort_values(c, resort, data, 1, c.rank() == 1 ? 1 : 0,
                              ExchangeKind::kDense);
      },
      "out of range");
}

TEST(RedistErrors, ResortRejectsInvalidTargetRank) {
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        std::vector<std::uint64_t> resort = {redist::make_index(9, 0)};
        std::vector<double> data(1);
        redist::resort_values(c, resort, data, 1, 1, ExchangeKind::kDense);
      },
      "invalid rank");
}

TEST(Neighborhood, RejectsInvalidNeighborRank) {
  // Neighbor lists naming out-of-range ranks or self are caller bugs that
  // must be diagnosed up front, before any message is posted.
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        std::vector<int> neighbors = {5};  // outside the communicator
        std::vector<int> data;
        mpi::PartnerList recvs;
        redist::neighborhood_alltoallv(c, neighbors, data.data(), {}, recvs);
      },
      "invalid neighbor rank");
  expect_error_containing(
      2,
      [](mpi::Comm& c) {
        std::vector<int> neighbors = {c.rank()};  // self is not a neighbor
        std::vector<int> data;
        mpi::PartnerList recvs;
        redist::neighborhood_alltoallv(c, neighbors, data.data(), {}, recvs);
      },
      "invalid neighbor rank");
}

TEST(Neighborhood, RejectsUnsortedOrDuplicateNeighborList) {
  // Sends are matched to neighbours by one merge walk, so the neighbour list
  // must be strictly ascending like a partner list.
  expect_error_containing(
      4,
      [](mpi::Comm& c) {
        std::vector<int> neighbors;  // the other ranks, descending
        for (int n = 3; n >= 0; --n)
          if (n != c.rank()) neighbors.push_back(n);
        std::vector<int> data;
        mpi::PartnerList recvs;
        redist::neighborhood_alltoallv(c, neighbors, data.data(), {}, recvs);
      },
      "neighbor list must be ascending");
  expect_error_containing(
      4,
      [](mpi::Comm& c) {
        const int next = (c.rank() + 1) % 4;
        std::vector<int> neighbors = {next, next};
        std::vector<int> data;
        mpi::PartnerList recvs;
        redist::neighborhood_alltoallv(c, neighbors, data.data(), {}, recvs);
      },
      "neighbor list must be ascending");
}

TEST(Neighborhood, NonNeighborMessageNamesTheRank) {
  expect_error_containing(
      4,
      [](mpi::Comm& c) {
        std::vector<int> neighbors = {(c.rank() + 1) % 4};
        const mpi::PartnerList sends = {mpi::Partner{(c.rank() + 2) % 4, 0, 1}};
        std::vector<int> data = {7};
        mpi::PartnerList recvs;
        redist::neighborhood_alltoallv(c, neighbors, data.data(), sends,
                                       recvs);
      },
      "data for non-neighbor rank");
}

TEST(Neighborhood, ExchangesOnlyWithNeighbors) {
  run_ranks(8, [](mpi::Comm& c) {
    mpi::CartComm cart(c, {2, 2, 2}, {true, true, true});
    const auto neighbors = cart.neighbors(1);  // all 7 others in a 2x2x2 torus
    std::vector<std::size_t> send_counts(8, 0);
    std::vector<int> payload;
    // Send my rank, repeated (n+1) times, to each neighbor n-index.
    for (std::size_t i = 0; i < neighbors.size(); ++i)
      send_counts[static_cast<std::size_t>(neighbors[i])] = i + 1;
    std::size_t total = 0;
    for (auto n : send_counts) total += n;
    payload.assign(total, c.rank());
    mpi::PartnerList sends;
    mpi::PartnerList recvs;
    mpi::partners_from_counts(send_counts, sends);
    auto got = redist::neighborhood_alltoallv(c, neighbors, payload.data(),
                                              sends, recvs);
    // Everything received must come from a neighbor, carry its rank, and
    // land in ascending source order.
    std::size_t pos = 0;
    for (const mpi::Partner& src : recvs) {
      EXPECT_TRUE(std::binary_search(neighbors.begin(), neighbors.end(),
                                     src.rank));
      EXPECT_EQ(src.offset, pos);
      for (std::size_t k = 0; k < src.count; ++k)
        EXPECT_EQ(got[pos++], src.rank);
    }
    EXPECT_EQ(recvs.size(), neighbors.size());
    EXPECT_EQ(pos, got.size());
  });
}

TEST(Neighborhood, RejectsDataForNonNeighbor) {
  EXPECT_THROW(
      run_ranks(4,
                [](mpi::Comm& c) {
                  std::vector<int> neighbors = {(c.rank() + 1) % 4};
                  const mpi::PartnerList sends = {
                      mpi::Partner{(c.rank() + 2) % 4, 0, 1}};
                  std::vector<int> data = {7};
                  mpi::PartnerList recvs;
                  redist::neighborhood_alltoallv(c, neighbors, data.data(),
                                                 sends, recvs);
                }),
      fcs::Error);
}

TEST(Neighborhood, AllRanksSilentCompletesWithoutTraffic) {
  // Degenerate planner-routed input: every rank has zero particles to move.
  // The exchange must complete collectively with empty results - no hang,
  // no assert.
  run_ranks(5, [](mpi::Comm& c) {
    const int p = c.size();
    std::vector<int> neighbors = {(c.rank() + 1) % p, (c.rank() + p - 1) % p};
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    std::vector<double> data;
    mpi::PartnerList recvs;
    auto got =
        redist::neighborhood_alltoallv(c, neighbors, data.data(), {}, recvs);
    EXPECT_TRUE(got.empty());
    EXPECT_TRUE(recvs.empty());
  });
}

TEST(Neighborhood, EmptyNeighborListKeepsSelfDataOnly) {
  // A rank whose subdomain has no neighbors with traffic (or a 1-rank run)
  // may pass an empty neighbor list; local data still passes through.
  run_ranks(3, [](mpi::Comm& c) {
    std::vector<int> neighbors;
    const mpi::PartnerList sends = {mpi::Partner{c.rank(), 0, 1}};
    std::vector<int> data = {c.rank()};
    mpi::PartnerList recvs;
    auto got = redist::neighborhood_alltoallv(c, neighbors, data.data(),
                                              sends, recvs);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], c.rank());
  });
}

TEST(Neighborhood, SecondShellNeighborListCarriesMultiHopTraffic) {
  // A movement bound spanning more than one subdomain shell: the caller
  // widens the neighbor list to Chebyshev radius 2 and traffic two
  // subdomains away must flow - the shell-1 list would reject it as
  // non-neighbor data (the solvers fall back to the dense exchange in that
  // case; see redist.fallback).
  run_ranks(5, [](mpi::Comm& c) {
    mpi::CartComm cart(c, {5, 1, 1}, {true, true, true});
    const auto near = cart.neighbors(1);
    const auto wide = cart.neighbors(2);
    EXPECT_EQ(near.size(), 2u);
    EXPECT_EQ(wide.size(), 4u);
    const int two_away = (c.rank() + 2) % 5;
    const mpi::PartnerList sends = {mpi::Partner{two_away, 0, 1}};
    std::vector<int> data = {10 * c.rank()};
    mpi::PartnerList recvs;
    auto got =
        redist::neighborhood_alltoallv(c, wide, data.data(), sends, recvs);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 10 * ((c.rank() + 3) % 5));
  });
}

TEST(Neighborhood, SelfDataPassesThrough) {
  run_ranks(2, [](mpi::Comm& c) {
    std::vector<int> neighbors = {1 - c.rank()};
    // Keep two locally.
    const mpi::PartnerList sends = {mpi::Partner{c.rank(), 0, 2}};
    std::vector<int> data = {10 + c.rank(), 20 + c.rank()};
    mpi::PartnerList recvs;
    auto got = redist::neighborhood_alltoallv(c, neighbors, data.data(),
                                              sends, recvs);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], 10 + c.rank());
    EXPECT_EQ(got[1], 20 + c.rank());
  });
}

// ---------------------------------------------------------------------------
// Extreme skew: everything on one rank, or ranks with nothing at all. These
// are the states a load balancer starts from (and the states redistribution
// must survive on the way out of them).

class ExtremeSkew : public ::testing::TestWithParam<
                        std::tuple<int, ExchangeKind>> {};

INSTANTIATE_TEST_SUITE_P(
    RanksAndKinds, ExtremeSkew,
    ::testing::Combine(::testing::Values(3, 7, 12),
                       ::testing::Values(ExchangeKind::kDense,
                                         ExchangeKind::kSparse)));

TEST_P(ExtremeSkew, AllOnOneRankScattersAndRestores) {
  const auto [p, kind] = GetParam();
  run_ranks(p, [p, kind = kind](mpi::Comm& c) {
    // Rank 0 holds everything (the paper's single-process initial
    // distribution); the round trip scatters across all ranks and restores.
    const std::size_t n =
        c.rank() == 0 ? static_cast<std::size_t>(p) * 30 : 0;
    std::vector<Particle> original(n);
    for (std::size_t i = 0; i < n; ++i)
      original[i] = {static_cast<double>(i), redist::make_index(c.rank(), i)};

    auto scattered = redist::fine_grained_redistribute(
        c, original,
        [p](const Particle& pt, std::size_t, std::vector<int>& t) {
          t.push_back(static_cast<int>(pt.x) % p);
        },
        kind);
    EXPECT_EQ(scattered.size(), 30u);  // every rank ends up with its share

    auto restored = redist::restore_to_origin(
        c, scattered, [](const Particle& pt) { return pt.origin; }, n, kind);
    ASSERT_EQ(restored.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(restored[i].origin, original[i].origin);
      EXPECT_DOUBLE_EQ(restored[i].x, original[i].x);
    }
  });
}

TEST_P(ExtremeSkew, AllToOneRankAndEmptySendersResort) {
  const auto [p, kind] = GetParam();
  run_ranks(p, [p, kind = kind](mpi::Comm& c) {
    // The inverse skew: every rank funnels its elements INTO rank 0 (some
    // ranks start empty), then method B's resort machinery routes per-
    // element payloads to the new location.
    const std::size_t n =
        c.rank() % 2 == 0 ? 12 + static_cast<std::size_t>(c.rank()) : 0;
    std::vector<Particle> original(n);
    for (std::size_t i = 0; i < n; ++i)
      original[i] = {static_cast<double>(i), redist::make_index(c.rank(), i)};
    auto scattered = redist::fine_grained_redistribute(
        c, original,
        [](const Particle&, std::size_t, std::vector<int>& t) {
          t.push_back(0);
        },
        kind);
    if (c.rank() != 0) {
      EXPECT_TRUE(scattered.empty());
    }

    std::vector<std::uint64_t> origin_of_current(scattered.size());
    for (std::size_t i = 0; i < scattered.size(); ++i)
      origin_of_current[i] = scattered[i].origin;
    std::vector<std::uint64_t> resort;
    redist::invert_origin_indices(c, origin_of_current, n, kind, resort);
    ASSERT_EQ(resort.size(), n);

    std::vector<double> payload(n);
    for (std::size_t i = 0; i < n; ++i)
      payload[i] = static_cast<double>(original[i].origin);
    auto moved =
        redist::resort_values(c, resort, payload, 1, scattered.size(), kind);
    ASSERT_EQ(moved.size(), scattered.size());
    for (std::size_t i = 0; i < scattered.size(); ++i)
      EXPECT_DOUBLE_EQ(moved[i], static_cast<double>(scattered[i].origin));
    (void)p;
  });
}

TEST_P(ExtremeSkew, NeighborhoodWithOnlyOneActiveSender) {
  const auto [p, kind] = GetParam();
  if (kind == ExchangeKind::kDense) return;  // neighborhood is sparse-only
  run_ranks(p, [p](mpi::Comm& c) {
    // A ring neighborhood where only rank 0 has anything to say; everyone
    // still participates collectively with zero counts.
    std::vector<int> neighbors = {(c.rank() + 1) % p,
                                  (c.rank() + p - 1) % p};
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    mpi::PartnerList sends;
    std::vector<int> data;
    if (c.rank() == 0) {
      sends.push_back(mpi::Partner{1, 0, 3});
      data.assign(3, 42);
    }
    mpi::PartnerList recvs;
    auto got =
        redist::neighborhood_alltoallv(c, neighbors, data.data(), sends, recvs);
    if (c.rank() == 1) {
      ASSERT_EQ(got.size(), 3u);
      for (int v : got) EXPECT_EQ(v, 42);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(RedistTiming, SparseBeatsDenseForNeighborOnlyTrafficOnTorus) {
  // The Fig. 9 mechanism: on a torus, when traffic is neighbor-only, the
  // sparse point-to-point exchange must be cheaper than the dense
  // all-to-all, and the gap must widen with the rank count.
  auto time_with = [](int p, ExchangeKind kind) {
    auto net = std::make_shared<sim::TorusNetwork>(
        sim::TorusNetwork::balanced_dims(p, 3));
    return run_ranks(p, [p, kind](mpi::Comm& c) {
      std::vector<std::size_t> counts(static_cast<std::size_t>(p), 0);
      counts[static_cast<std::size_t>((c.rank() + 1) % p)] = 64;
      std::vector<double> data(64, 1.0);
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::size_t> rc;
        if (kind == ExchangeKind::kDense) {
          (void)c.alltoallv(data.data(), counts, rc);
        } else {
          (void)c.sparse_alltoallv(data.data(), counts, rc);
        }
      }
    }, net);
  };
  const double dense64 = time_with(64, ExchangeKind::kDense);
  const double sparse64 = time_with(64, ExchangeKind::kSparse);
  EXPECT_LT(sparse64, dense64);
  const double dense512 = time_with(512, ExchangeKind::kDense);
  const double sparse512 = time_with(512, ExchangeKind::kSparse);
  EXPECT_LT(sparse512, dense512);
  EXPECT_GT(dense512 / sparse512, dense64 / sparse64);
}

}  // namespace
