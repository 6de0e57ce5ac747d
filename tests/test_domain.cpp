#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "domain/box.hpp"
#include "domain/cart_grid.hpp"
#include "domain/linked_cells.hpp"
#include "domain/morton.hpp"
#include "support/rng.hpp"

using domain::Box;
using domain::Vec3;

namespace {

TEST(Vec3Ops, Arithmetic) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
  a[1] = 9;
  EXPECT_DOUBLE_EQ(a.y, 9.0);
}

TEST(BoxBasics, WrapPeriodic) {
  Box box({0, 0, 0}, {10, 10, 10}, {true, true, true});
  const Vec3 w = box.wrap({12.5, -0.5, 30.0});
  EXPECT_DOUBLE_EQ(w.x, 2.5);
  EXPECT_DOUBLE_EQ(w.y, 9.5);
  EXPECT_DOUBLE_EQ(w.z, 0.0);
}

TEST(BoxBasics, WrapNonPeriodicLeavesAlone) {
  Box box({0, 0, 0}, {10, 10, 10}, {false, true, false});
  const Vec3 w = box.wrap({12.5, 12.5, -3.0});
  EXPECT_DOUBLE_EQ(w.x, 12.5);
  EXPECT_DOUBLE_EQ(w.y, 2.5);
  EXPECT_DOUBLE_EQ(w.z, -3.0);
}

TEST(BoxBasics, MinimumImage) {
  Box box({0, 0, 0}, {10, 10, 10}, {true, true, true});
  const Vec3 d = box.minimum_image({9.5, 0, 0}, {0.5, 0, 0});
  EXPECT_DOUBLE_EQ(d.x, -1.0);  // across the boundary, not +9
  const Vec3 d2 = box.minimum_image({3, 0, 0}, {1, 0, 0});
  EXPECT_DOUBLE_EQ(d2.x, 2.0);
}

TEST(BoxBasics, OffsetBoxAndVolume) {
  Box box({-5, -5, -5}, {10, 20, 30}, {true, true, true});
  EXPECT_DOUBLE_EQ(box.volume(), 6000.0);
  EXPECT_TRUE(box.contains({0, 10, 20}));
  EXPECT_FALSE(box.contains({0, 16, 0}));
  const Vec3 n = box.normalized({0, 5, 10});
  EXPECT_DOUBLE_EQ(n.x, 0.5);
  EXPECT_DOUBLE_EQ(n.y, 0.5);
  EXPECT_DOUBLE_EQ(n.z, 0.5);
}

TEST(BoxBasics, FromBaseVectorsRejectsNonOrthorhombic) {
  EXPECT_NO_THROW(Box::from_base_vectors({0, 0, 0}, {10, 0, 0}, {0, 10, 0},
                                         {0, 0, 10}, {true, true, true}));
  EXPECT_THROW(Box::from_base_vectors({0, 0, 0}, {10, 1, 0}, {0, 10, 0},
                                      {0, 0, 10}, {true, true, true}),
               fcs::Error);
}

TEST(Morton, EncodeDecodeRoundTrip) {
  fcs::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng() & 0x1fffff);
    const auto y = static_cast<std::uint32_t>(rng() & 0x1fffff);
    const auto z = static_cast<std::uint32_t>(rng() & 0x1fffff);
    std::uint32_t dx, dy, dz;
    domain::morton_decode(domain::morton_encode(x, y, z), dx, dy, dz);
    EXPECT_EQ(dx, x);
    EXPECT_EQ(dy, y);
    EXPECT_EQ(dz, z);
  }
}

TEST(Morton, KnownSmallCodes) {
  EXPECT_EQ(domain::morton_encode(0, 0, 0), 0u);
  EXPECT_EQ(domain::morton_encode(1, 0, 0), 1u);
  EXPECT_EQ(domain::morton_encode(0, 1, 0), 2u);
  EXPECT_EQ(domain::morton_encode(0, 0, 1), 4u);
  EXPECT_EQ(domain::morton_encode(1, 1, 1), 7u);
  EXPECT_EQ(domain::morton_encode(2, 0, 0), 8u);
}

TEST(Morton, ParentChildRelation) {
  const std::uint64_t code = domain::morton_encode(5, 9, 2);
  for (int c = 0; c < 8; ++c)
    EXPECT_EQ(domain::morton_parent(domain::morton_child(code, c)), code);
}

TEST(Morton, KeyRespectsLevelGranularity) {
  Box box({0, 0, 0}, {8, 8, 8}, {true, true, true});
  // Level 3: cells of size 1.
  EXPECT_EQ(domain::morton_key(box, 3, {0.5, 0.5, 0.5}),
            domain::morton_encode(0, 0, 0));
  EXPECT_EQ(domain::morton_key(box, 3, {7.5, 0.5, 0.5}),
            domain::morton_encode(7, 0, 0));
  // Level 1: cells of size 4; (5,6,7) -> cell (1,1,1).
  EXPECT_EQ(domain::morton_key(box, 1, {5, 6, 7}),
            domain::morton_encode(1, 1, 1));
  // Positions outside get wrapped first (periodic).
  EXPECT_EQ(domain::morton_key(box, 3, {8.5, 0.5, 0.5}),
            domain::morton_encode(0, 0, 0));
}

TEST(Morton, ZOrderLocality) {
  // Consecutive Morton codes at one level share parents at the next: codes
  // 8k..8k+7 all decode to one parent cell.
  for (std::uint64_t k = 0; k < 64; ++k) {
    std::set<std::uint64_t> parents;
    for (int c = 0; c < 8; ++c) parents.insert(domain::morton_parent(8 * k + c));
    EXPECT_EQ(parents.size(), 1u);
  }
}

TEST(CartGrid, RankPositionMapping) {
  Box box({0, 0, 0}, {12, 12, 12}, {true, true, true});
  domain::CartGrid grid(box, {3, 2, 2});
  EXPECT_EQ(grid.nranks(), 12);
  // Position in the first cell.
  EXPECT_EQ(grid.rank_of_position({1, 1, 1}), 0);
  // Coords round trip.
  for (int r = 0; r < grid.nranks(); ++r)
    EXPECT_EQ(grid.rank_of_coords(grid.coords_of_rank(r)), r);
  // Every position maps into the rank whose subdomain contains it.
  fcs::Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const Vec3 p{rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 12)};
    const int r = grid.rank_of_position(p);
    Vec3 lo, hi;
    grid.subdomain(r, lo, hi);
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(p[d], lo[d]);
      EXPECT_LT(p[d], hi[d]);
    }
  }
}

TEST(CartGrid, GhostTargetsInterior) {
  Box box({0, 0, 0}, {12, 12, 12}, {true, true, true});
  domain::CartGrid grid(box, {3, 3, 3});  // subdomains of 4
  // Deep inside a subdomain: no ghosts.
  EXPECT_TRUE(grid.ghost_targets({6, 6, 6}, 1.0).empty());
  // Near one face: exactly one ghost target.
  EXPECT_EQ(grid.ghost_targets({4.5, 6, 6}, 1.0).size(), 1u);
  // Near an edge (two faces): three targets (two faces + edge diagonal).
  EXPECT_EQ(grid.ghost_targets({4.5, 4.5, 6}, 1.0).size(), 3u);
  // Near a corner: seven targets.
  EXPECT_EQ(grid.ghost_targets({4.5, 4.5, 4.5}, 1.0).size(), 7u);
}

TEST(CartGrid, GhostTargetsPeriodicWrap) {
  Box box({0, 0, 0}, {12, 12, 12}, {true, true, true});
  domain::CartGrid grid(box, {3, 3, 3});
  // Particle at the global lower corner: ghosts wrap to the far side.
  const auto t = grid.ghost_targets({0.5, 6, 6}, 1.0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], grid.rank_of_coords({2, 1, 1}));
}

TEST(CartGrid, GhostTargetsNonPeriodicClip) {
  Box box({0, 0, 0}, {12, 12, 12}, {false, false, false});
  domain::CartGrid grid(box, {3, 3, 3});
  EXPECT_TRUE(grid.ghost_targets({0.5, 6, 6}, 1.0).empty());
}

TEST(CartGrid, HaloTooLargeThrows) {
  Box box({0, 0, 0}, {12, 12, 12}, {true, true, true});
  domain::CartGrid grid(box, {3, 3, 3});
  EXPECT_THROW(grid.ghost_targets({6, 6, 6}, 5.0), fcs::Error);
  EXPECT_THROW(grid.ghost_images({6, 6, 6}, 5.0), fcs::Error);
  EXPECT_DOUBLE_EQ(grid.check_halo(4.0), 4.0);
  EXPECT_THROW(grid.check_halo(4.5), fcs::Error);
  EXPECT_THROW(grid.check_halo(-0.5), fcs::Error);
}

// The ghost placement as it was computed before the one-pass placement
// core: owner from its own normalization, face distances from one more per
// axis, every (dx, dy, dz) offset probed, deduplicated by (rank, shift).
// `cuts` are the grid's interior cuts (empty per uniform axis).
struct ReferencePlacement {
  int owner;
  std::vector<domain::CartGrid::GhostImage> images;
  std::vector<int> targets;
};

ReferencePlacement reference_placement(
    const domain::CartGrid& grid,
    const std::array<std::vector<double>, 3>& cuts, const Vec3& p,
    double halo) {
  const Box& box = grid.box();
  const auto& dims = grid.dims();
  std::array<int, 3> cell{};
  {
    const Vec3 t = box.normalized(p);
    for (int d = 0; d < 3; ++d) {
      const auto& c = cuts[static_cast<std::size_t>(d)];
      if (c.empty()) {
        cell[d] = static_cast<int>(t[d] * dims[d]);
        if (cell[d] >= dims[d]) cell[d] = dims[d] - 1;
      } else {
        cell[d] = static_cast<int>(
            std::upper_bound(c.begin(), c.end(), t[d]) - c.begin());
      }
    }
  }
  ReferencePlacement ref;
  ref.owner = grid.rank_of_coords(cell);

  int lo_near[3], hi_near[3];
  for (int d = 0; d < 3; ++d) {
    const double t = box.normalized(p)[d];
    double local, w;
    if (cuts[static_cast<std::size_t>(d)].empty()) {
      w = box.extent()[d] / dims[d];
      local = t * box.extent()[d] - cell[d] * w;
    } else {
      const double b = grid.cell_begin(d, cell[d]);
      w = (grid.cell_begin(d, cell[d] + 1) - b) * box.extent()[d];
      local = (t - b) * box.extent()[d];
    }
    lo_near[d] = local < halo ? 1 : 0;
    hi_near[d] = local >= w - halo ? 1 : 0;
  }

  for (int dx = -lo_near[0]; dx <= hi_near[0]; ++dx)
    for (int dy = -lo_near[1]; dy <= hi_near[1]; ++dy)
      for (int dz = -lo_near[2]; dz <= hi_near[2]; ++dz) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const int off[3] = {dx, dy, dz};
        const int r = grid.rank_of_coords(
            {cell[0] + dx, cell[1] + dy, cell[2] + dz});
        if (r >= 0 && r != ref.owner &&
            std::find(ref.targets.begin(), ref.targets.end(), r) ==
                ref.targets.end())
          ref.targets.push_back(r);
        Vec3 shift{};
        bool valid = true;
        for (int d = 0; d < 3; ++d) {
          const int c = cell[d] + off[d];
          if (c < 0 || c >= dims[d]) {
            if (!box.periodic()[d]) {
              valid = false;
              break;
            }
            shift[d] = c < 0 ? box.extent()[d] : -box.extent()[d];
          }
        }
        if (!valid) continue;
        if (r == ref.owner && shift == Vec3{}) continue;
        bool seen = false;
        for (const auto& g : ref.images)
          if (g.rank == r && g.shift == shift) seen = true;
        if (!seen) ref.images.push_back({r, shift});
      }
  return ref;
}

bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

// Differential sweep: place(), ghost_images() and ghost_targets() must
// reproduce the reference bit for bit - owner, image order, ranks and
// shifts - on uniform and load-balanced (cut) grids of 1..4 cells per axis,
// periodic, non-periodic and mixed axes, halos from 0 to the narrowest cell,
// and positions on every cell face and box corner plus random interiors.
TEST(CartGrid, PlacementMatchesReferenceGhostImages) {
  const Vec3 offset{-1.5, 0.25, 2.0};
  const Vec3 extent{6.0, 4.5, 9.0};
  const std::array<std::array<bool, 3>, 3> periodicities{
      {{true, true, true}, {false, false, false}, {true, false, true}}};
  const std::array<std::vector<double>, 5> lb_cuts{
      {{}, {}, {0.3}, {0.2, 0.65}, {0.15, 0.4, 0.8}}};
  fcs::Rng rng(15);
  long placements = 0, self_images = 0, clipped = 0;
  domain::CartGrid::Placement pl;
  for (const auto& periodic : periodicities)
    for (const bool cut : {false, true})
      for (int nx = 1; nx <= 4; ++nx)
        for (int ny = 1; ny <= 4; ++ny)
          for (int nz = 1; nz <= 4; ++nz) {
            const Box box(offset, extent, periodic);
            const std::array<int, 3> dims{nx, ny, nz};
            std::array<std::vector<double>, 3> cuts;
            if (cut)
              for (int d = 0; d < 3; ++d)
                cuts[static_cast<std::size_t>(d)] =
                    lb_cuts[static_cast<std::size_t>(dims[d])];
            const domain::CartGrid grid(box, dims, cuts);

            // Per axis: every cell face, the box corners, the largest
            // coordinate inside the box, and two random interior points.
            std::array<std::vector<double>, 3> coords;
            for (int d = 0; d < 3; ++d) {
              auto& cs = coords[static_cast<std::size_t>(d)];
              for (int c = 0; c <= dims[d]; ++c)
                cs.push_back(offset[d] + grid.cell_begin(d, c) * extent[d]);
              cs.push_back(std::nextafter(offset[d] + extent[d], offset[d]));
              for (int k = 0; k < 2; ++k)
                cs.push_back(rng.uniform(offset[d], offset[d] + extent[d]));
            }

            const Vec3 sub = grid.min_cell_extent();
            const double hmax = std::min({sub.x, sub.y, sub.z});
            for (const double halo :
                 {0.0, 0.125 * hmax, 0.5 * hmax, 0.999 * hmax, hmax}) {
              ASSERT_NO_THROW(grid.check_halo(halo));
              for (const double x : coords[0])
                for (const double y : coords[1])
                  for (const double z : coords[2]) {
                    const Vec3 p = box.wrap({x, y, z});
                    const ReferencePlacement ref =
                        reference_placement(grid, cuts, p, halo);
                    grid.place(p, halo, pl);
                    ++placements;
                    ASSERT_EQ(pl.owner, ref.owner);
                    ASSERT_EQ(grid.rank_of_position(p), ref.owner);
                    ASSERT_EQ(pl.nimages,
                              static_cast<int>(ref.images.size()));
                    const auto imgs = grid.ghost_images(p, halo);
                    ASSERT_EQ(imgs.size(), ref.images.size());
                    for (std::size_t k = 0; k < ref.images.size(); ++k) {
                      const auto& want = ref.images[k];
                      const auto& got = pl.images[k];
                      ASSERT_EQ(got.rank, want.rank) << "image " << k;
                      ASSERT_TRUE(same_bits(got.shift, want.shift))
                          << "image " << k;
                      ASSERT_EQ(imgs[k].rank, want.rank);
                      ASSERT_TRUE(same_bits(imgs[k].shift, want.shift));
                      if (want.rank == ref.owner) ++self_images;
                    }
                    ASSERT_EQ(grid.ghost_targets(p, halo), ref.targets);
                    for (int d = 0; d < 3; ++d)
                      if (!periodic[static_cast<std::size_t>(d)] &&
                          p[d] == offset[d] && halo > 0)
                        ++clipped;
                  }
            }
          }
  // The sweep reached the cases the reference special-cases: owner images
  // with a periodic shift (one or two cells per axis) and offsets clipped
  // by non-periodic faces.
  EXPECT_GT(placements, 100000);
  EXPECT_GT(self_images, 0);
  EXPECT_GT(clipped, 0);
}

// Brute-force oracle for the linked cells.
TEST(LinkedCells, FindsExactlyTheCutoffPairs) {
  fcs::Rng rng(7);
  std::vector<Vec3> pos(300);
  for (auto& p : pos)
    p = {rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)};
  const double cutoff = 1.3;

  std::set<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t j = i + 1; j < pos.size(); ++j)
      if ((pos[i] - pos[j]).norm2() < cutoff * cutoff)
        expected.insert({i, j});

  domain::LinkedCells cells({0, 0, 0}, {10, 10, 10}, cutoff, pos);
  std::set<std::pair<std::size_t, std::size_t>> found;
  cells.for_each_pair_within(cutoff, [&](std::size_t i, std::size_t j,
                                         const Vec3& d, double r2) {
    EXPECT_LT(r2, cutoff * cutoff);
    EXPECT_NEAR((pos[i] - pos[j]).norm2(), d.norm2(), 1e-12);
    auto key = i < j ? std::make_pair(i, j) : std::make_pair(j, i);
    EXPECT_TRUE(found.insert(key).second) << "pair seen twice";
  });
  EXPECT_EQ(found, expected);
}

TEST(LinkedCells, NeighborQueryMatchesPairs) {
  fcs::Rng rng(8);
  std::vector<Vec3> pos(100);
  for (auto& p : pos)
    p = {rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)};
  const double cutoff = 1.0;
  domain::LinkedCells cells({0, 0, 0}, {5, 5, 5}, cutoff, pos);
  for (std::size_t i = 0; i < pos.size(); i += 7) {
    std::set<std::size_t> neigh;
    cells.for_each_neighbor_of(i, cutoff, [&](std::size_t j, const Vec3&, double) {
      neigh.insert(j);
    });
    std::set<std::size_t> expected;
    for (std::size_t j = 0; j < pos.size(); ++j)
      if (j != i && (pos[j] - pos[i]).norm2() < cutoff * cutoff)
        expected.insert(j);
    EXPECT_EQ(neigh, expected);
  }
}

TEST(LinkedCells, GhostsOutsideRegionAreClamped) {
  std::vector<Vec3> pos = {{-0.3, 1, 1}, {0.2, 1, 1}, {5.2, 1, 1}, {4.8, 1, 1}};
  domain::LinkedCells cells({0, 0, 0}, {5, 5, 5}, 1.0, pos);
  int pairs = 0;
  cells.for_each_pair_within(1.0, [&](std::size_t, std::size_t, const Vec3&,
                                      double) { ++pairs; });
  EXPECT_EQ(pairs, 2);  // (0,1) across the lower face, (2,3) across the upper
}

}  // namespace
