#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "redist/resort.hpp"
#include "sortlib/local_sort.hpp"
#include "sortlib/merge_sort.hpp"
#include "sortlib/partition_sort.hpp"
#include "spmd_test_util.hpp"
#include "support/rng.hpp"

using fcs_test::run_ranks;

namespace {

struct Rec {
  std::uint64_t key;
  std::uint64_t payload;
};
std::uint64_t rec_key(const Rec& r) { return r.key; }

// ---------------------------------------------------------------------------
// Local sorting

TEST(RadixPermutation, SortsRandomKeys) {
  fcs::Rng rng(1);
  std::vector<std::uint64_t> keys(10000);
  for (auto& k : keys) k = rng();
  auto order = sortlib::radix_sort_permutation(keys);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(keys[order[i - 1]], keys[order[i]]);
}

TEST(RadixPermutation, StableForDuplicates) {
  std::vector<std::uint64_t> keys = {5, 1, 5, 1, 5};
  auto order = sortlib::radix_sort_permutation(keys);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 0, 2, 4}));
}

TEST(RadixPermutation, SmallKeyRangeSkipsPasses) {
  // Keys below 256: only one digit used; result must still be sorted.
  fcs::Rng rng(2);
  std::vector<std::uint64_t> keys(5000);
  for (auto& k : keys) k = rng() & 0xff;
  auto order = sortlib::radix_sort_permutation(keys);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(keys[order[i - 1]], keys[order[i]]);
}

TEST(RadixPermutation, EmptyAndSingle) {
  EXPECT_TRUE(sortlib::radix_sort_permutation({}).empty());
  EXPECT_EQ(sortlib::radix_sort_permutation({42}),
            (std::vector<std::uint32_t>{0}));
}

TEST(SortByKey, MatchesStdSortOnBothPaths) {
  fcs::Rng rng(3);
  // Comparison path (tiny n, or few records with wide keys) and radix path.
  for (std::uint64_t key_mod : {std::uint64_t{97}, ~std::uint64_t{0}}) {
    for (std::size_t n : {0u, 1u, 40u, 100u, 5000u}) {
      std::vector<Rec> items(n);
      for (std::size_t i = 0; i < n; ++i) items[i] = {rng() % key_mod, i};
      sortlib::sort_by_key(items, rec_key);
      EXPECT_TRUE(sortlib::is_sorted_by_key(items, rec_key));
      // Stability: payloads ascending within equal keys.
      for (std::size_t i = 1; i < n; ++i) {
        if (items[i - 1].key == items[i].key) {
          EXPECT_LT(items[i - 1].payload, items[i].payload);
        }
      }
    }
  }
}

// Reference pairwise merge of consecutive sorted runs: the std::inplace_merge
// tree the partition sort used before it finished with a stable sort.
template <class T, class KeyFn>
void ref_merge_runs(std::vector<T>& items, std::vector<std::size_t> bounds,
                    KeyFn key) {
  bounds.push_back(items.size());
  auto cmp = [&](const T& a, const T& b) { return key(a) < key(b); };
  auto it = [&](std::size_t i) {
    return items.begin() + static_cast<std::ptrdiff_t>(i);
  };
  while (bounds.size() > 2) {
    const std::size_t runs = bounds.size() - 1;
    std::vector<std::size_t> next;
    next.push_back(bounds[0]);
    std::size_t i = 0;
    for (; i + 2 <= runs; i += 2) {
      std::inplace_merge(it(bounds[i]), it(bounds[i + 1]), it(bounds[i + 2]),
                         cmp);
      next.push_back(bounds[i + 2]);
    }
    if (i < runs) next.push_back(bounds[i + 1]);
    bounds = std::move(next);
  }
}

void expect_same_records(const std::vector<Rec>& a, const std::vector<Rec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "at " << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << "at " << i;
  }
}

// A stable sort of consecutive sorted runs is their stable merge: the
// partition sort's receive side relies on it.
TEST(SortedRuns, StableSortEqualsPairwiseMerge) {
  fcs::Rng rng(4);
  for (std::uint64_t key_mod : {1000u, 7u}) {
    std::vector<Rec> items;
    std::vector<std::size_t> starts;
    for (int run = 0; run < 5; ++run) {
      starts.push_back(items.size());
      std::vector<std::uint64_t> keys(1 + rng.uniform_index(50));
      for (auto& k : keys) k = rng() % key_mod;
      std::sort(keys.begin(), keys.end());
      for (auto k : keys) items.push_back({k, items.size()});
    }
    std::vector<Rec> merged = items;
    ref_merge_runs(merged, starts, rec_key);
    sortlib::sort_by_key(items, rec_key);
    EXPECT_TRUE(sortlib::is_sorted_by_key(items, rec_key));
    expect_same_records(items, merged);
  }
}

TEST(SortedRuns, SingleAndEmptyRuns) {
  std::vector<Rec> empty;
  sortlib::sort_by_key(empty, rec_key);
  EXPECT_TRUE(empty.empty());
  std::vector<Rec> one = {{3, 0}, {5, 1}};
  std::vector<Rec> merged = one;
  ref_merge_runs(merged, {0}, rec_key);
  sortlib::sort_by_key(one, rec_key);
  EXPECT_EQ(one[0].key, 3u);
  expect_same_records(one, merged);
}

// ---------------------------------------------------------------------------
// Splitter counting kernel

void expect_counts_match_std(const std::vector<std::uint64_t>& keys,
                             const std::vector<std::uint64_t>& probes) {
  std::vector<std::uint64_t> counts(probes.size(), ~std::uint64_t{0});
  sortlib::count_leq_probes(keys, probes.data(), probes.size(), counts.data());
  for (std::size_t j = 0; j < probes.size(); ++j) {
    const auto ub = std::upper_bound(keys.begin(), keys.end(), probes[j]);
    EXPECT_EQ(counts[j], static_cast<std::uint64_t>(ub - keys.begin()))
        << "probe " << j << " = " << probes[j];
  }
  // lower_bound(k) is count_leq(k - 1): the tie-break's "strictly below".
  std::vector<std::uint64_t> below;
  for (std::uint64_t q : probes)
    if (q > 0) below.push_back(q - 1);
  counts.assign(below.size(), 0);
  sortlib::count_leq_probes(keys, below.data(), below.size(), counts.data());
  for (std::size_t j = 0; j < below.size(); ++j) {
    const auto lb = std::lower_bound(keys.begin(), keys.end(), below[j] + 1);
    EXPECT_EQ(counts[j], static_cast<std::uint64_t>(lb - keys.begin()));
  }
}

TEST(CountLeqProbes, MatchesStdBoundsOnDuplicateHeavyKeys) {
  fcs::Rng rng(21);
  for (std::size_t n : {1u, 2u, 5u, 64u, 1000u}) {
    for (std::uint64_t key_mod : {1u, 3u, 17u, 4096u}) {
      std::vector<std::uint64_t> keys(n);
      for (auto& k : keys) k = 10 + rng() % key_mod;
      std::sort(keys.begin(), keys.end());
      // Probes below and above every key, runs of equal probes, and every
      // key value itself (the tie-break probes).
      std::vector<std::uint64_t> probes = {0, 9, 9, 9};
      for (std::size_t i = 0; i < 40; ++i)
        probes.push_back(rng() % (key_mod + 20));
      probes.insert(probes.end(), keys.begin(), keys.end());
      probes.push_back(key_mod + 1000);
      probes.push_back(~std::uint64_t{0});
      probes.push_back(~std::uint64_t{0});
      std::sort(probes.begin(), probes.end());
      expect_counts_match_std(keys, probes);
    }
  }
}

TEST(CountLeqProbes, EmptyKeysAndNoProbes) {
  expect_counts_match_std({}, {0, 5, 5, ~std::uint64_t{0}});
  std::vector<std::uint64_t> keys = {1, 2, 3};
  sortlib::count_leq_probes(keys, nullptr, 0, nullptr);
}

TEST(CountLeqProbes, DescendingProbeRestarts) {
  std::vector<std::uint64_t> keys = {1, 1, 2, 4, 4, 4, 7, 9, 9, 12};
  // Ascending, then one probe below its predecessor, then ascending again.
  expect_counts_match_std(keys, {3, 8, 12, 2, 4, 4, 13});
  expect_counts_match_std(keys, {100, 0, 1, 0});
  fcs::Rng rng(22);
  std::vector<std::uint64_t> probes(200);
  for (auto& q : probes) q = rng() % 16;  // arbitrary order
  expect_counts_match_std(keys, probes);
}

// ---------------------------------------------------------------------------
// Batcher schedule

TEST(BatcherSchedule, SortsAllZeroOnePatterns) {
  // 0-1 principle: a comparator network sorts everything iff it sorts all
  // 2^n 0-1 sequences. Verify exhaustively for small n.
  for (int n = 1; n <= 10; ++n) {
    const auto schedule = sortlib::batcher_schedule(n);
    for (unsigned pattern = 0; pattern < (1u << n); ++pattern) {
      std::vector<int> v(n);
      for (int i = 0; i < n; ++i) v[i] = (pattern >> i) & 1;
      for (const auto& [a, b] : schedule)
        if (v[a] > v[b]) std::swap(v[a], v[b]);
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end()))
          << "n=" << n << " pattern=" << pattern;
    }
  }
}

TEST(BatcherSchedule, ComparatorCountIsLogSquared) {
  const auto s = sortlib::batcher_schedule(256);
  // Merge exchange uses ~ n/4 log^2 n comparators; sanity bounds.
  EXPECT_GT(s.size(), 1000u);
  EXPECT_LT(s.size(), 10000u);
  EXPECT_TRUE(sortlib::batcher_schedule(1).empty());
}

// ---------------------------------------------------------------------------
// Parallel sorts

struct SortCase {
  int ranks;
  int elements_per_rank;  // average; actual counts vary per test
};

class ParallelSort : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelSort,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

std::vector<Rec> random_records(int rank, std::size_t n, std::uint64_t key_mod,
                                std::uint64_t seed) {
  fcs::Rng rng = fcs::Rng(seed).stream(static_cast<std::uint64_t>(rank));
  std::vector<Rec> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].key = rng() % key_mod;
    items[i].payload = (static_cast<std::uint64_t>(rank) << 32) | i;
  }
  return items;
}

// Verify a global sort result: locally sorted, boundaries ordered, and the
// global multiset of (key, payload) pairs unchanged.
void expect_globally_sorted(mpi::Comm& c, const std::vector<Rec>& before,
                            const std::vector<Rec>& after,
                            bool check_balanced) {
  EXPECT_TRUE(sortlib::is_sorted_by_key(after, rec_key));

  // Boundary order between ranks.
  struct KeyCount {
    std::uint64_t any, max;
  };
  KeyCount mine{after.empty() ? 0ull : 1ull,
                after.empty() ? 0ull : after.back().key};
  KeyCount prev = c.exscan(mine, [](const KeyCount& a, const KeyCount& b) {
    return KeyCount{a.any | b.any, b.any ? b.max : a.max};
  });
  if (prev.any && !after.empty()) {
    EXPECT_GE(after.front().key, prev.max);
  }

  // Multiset preservation via order-independent checksums.
  auto checksum = [](const std::vector<Rec>& v) {
    std::uint64_t x = 0, s = 0;
    for (const Rec& r : v) {
      std::uint64_t h = r.key * 0x9e3779b97f4a7c15ULL ^ r.payload;
      h ^= h >> 29;
      x ^= h;
      s += h;
    }
    return std::pair<std::uint64_t, std::uint64_t>{x, s};
  };
  auto [bx, bs] = checksum(before);
  auto [ax, as] = checksum(after);
  EXPECT_EQ(c.allreduce(bx, [](auto a, auto b) { return a ^ b; }),
            c.allreduce(ax, [](auto a, auto b) { return a ^ b; }));
  EXPECT_EQ(c.allreduce(bs, mpi::OpSum{}), c.allreduce(as, mpi::OpSum{}));

  const auto n_before =
      c.allreduce(static_cast<std::uint64_t>(before.size()), mpi::OpSum{});
  const auto n_after =
      c.allreduce(static_cast<std::uint64_t>(after.size()), mpi::OpSum{});
  EXPECT_EQ(n_before, n_after);
  if (check_balanced) {
    const std::uint64_t lo = n_before / c.size();
    EXPECT_GE(after.size(), lo);
    EXPECT_LE(after.size(), lo + 1);
  }
}

// ---------------------------------------------------------------------------
// Splitter searches against verbatim copies of the per-probe binary-search
// versions they replaced.

std::vector<std::size_t> ref_exact_split_boundaries(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<std::uint64_t>& target_prefix) {
  const int p = comm.size();
  const std::size_t ns = target_prefix.size();
  FCS_CHECK(static_cast<int>(ns) == p - 1,
            "need exactly P-1 splitter targets");
  FCS_ASSERT(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));

  std::vector<std::size_t> bounds(static_cast<std::size_t>(p) + 1, 0);
  bounds[static_cast<std::size_t>(p)] = sorted_keys.size();
  if (p == 1) return bounds;

  const std::uint64_t local_min =
      sorted_keys.empty() ? ~std::uint64_t{0} : sorted_keys.front();
  const std::uint64_t local_max = sorted_keys.empty() ? 0 : sorted_keys.back();
  const std::uint64_t kmin = comm.allreduce(local_min, mpi::OpMin{});
  const std::uint64_t kmax = comm.allreduce(local_max, mpi::OpMax{});
  const std::uint64_t n_total = comm.allreduce(
      static_cast<std::uint64_t>(sorted_keys.size()), mpi::OpSum{});
  if (n_total == 0) return bounds;

  std::vector<std::uint64_t> lo(ns, kmin), hi(ns, kmax);
  std::vector<std::uint64_t> counts(ns), global(ns);
  auto count_leq = [&](std::uint64_t k) {
    return static_cast<std::uint64_t>(
        std::upper_bound(sorted_keys.begin(), sorted_keys.end(), k) -
        sorted_keys.begin());
  };
  for (;;) {
    bool open = false;
    for (std::size_t s = 0; s < ns; ++s)
      if (lo[s] < hi[s]) open = true;
    if (!open) break;
    for (std::size_t s = 0; s < ns; ++s)
      counts[s] = count_leq(lo[s] + (hi[s] - lo[s]) / 2);
    comm.allreduce(counts.data(), global.data(), ns, mpi::OpSum{});
    for (std::size_t s = 0; s < ns; ++s) {
      if (lo[s] >= hi[s]) continue;
      const std::uint64_t mid = lo[s] + (hi[s] - lo[s]) / 2;
      if (global[s] >= target_prefix[s])
        hi[s] = mid;
      else
        lo[s] = mid + 1;
    }
  }

  std::vector<std::uint64_t> local_less(ns), local_ties(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    const auto lb = std::lower_bound(sorted_keys.begin(), sorted_keys.end(), lo[s]);
    const auto ub = std::upper_bound(sorted_keys.begin(), sorted_keys.end(), lo[s]);
    local_less[s] = static_cast<std::uint64_t>(lb - sorted_keys.begin());
    local_ties[s] = static_cast<std::uint64_t>(ub - lb);
  }
  std::vector<std::uint64_t> global_less(ns), ties_before(ns);
  comm.allreduce(local_less.data(), global_less.data(), ns, mpi::OpSum{});
  comm.exscan_v(local_ties.data(), ties_before.data(), ns, mpi::OpSum{});

  for (std::size_t s = 0; s < ns; ++s) {
    FCS_ASSERT(target_prefix[s] >= global_less[s]);
    const std::uint64_t extra = target_prefix[s] - global_less[s];
    std::uint64_t mine = 0;
    if (extra > ties_before[s])
      mine = std::min<std::uint64_t>(extra - ties_before[s], local_ties[s]);
    bounds[s + 1] = static_cast<std::size_t>(local_less[s] + mine);
  }
  return bounds;
}

template <class WeightLeq>
std::vector<std::uint64_t> ref_weighted_splitter_bisect(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<double>& targets, WeightLeq weight_leq) {
  const std::size_t ns = targets.size();
  std::vector<std::uint64_t> splitters(ns, 0);
  if (ns == 0) return splitters;

  const std::uint64_t local_min =
      sorted_keys.empty() ? ~std::uint64_t{0} : sorted_keys.front();
  const std::uint64_t local_max = sorted_keys.empty() ? 0 : sorted_keys.back();
  const std::uint64_t kmin = comm.allreduce(local_min, mpi::OpMin{});
  const std::uint64_t kmax = comm.allreduce(local_max, mpi::OpMax{});
  const std::uint64_t n_total = comm.allreduce(
      static_cast<std::uint64_t>(sorted_keys.size()), mpi::OpSum{});
  if (n_total == 0) return splitters;

  std::vector<std::uint64_t> lo(ns, kmin), hi(ns, kmax);
  std::vector<double> weights(ns), global(ns);
  for (;;) {
    bool open = false;
    for (std::size_t s = 0; s < ns; ++s)
      if (lo[s] < hi[s]) open = true;
    if (!open) break;
    for (std::size_t s = 0; s < ns; ++s)
      weights[s] = weight_leq(lo[s] + (hi[s] - lo[s]) / 2);
    comm.allreduce(weights.data(), global.data(), ns, mpi::OpSum{});
    for (std::size_t s = 0; s < ns; ++s) {
      if (lo[s] >= hi[s]) continue;
      const std::uint64_t mid = lo[s] + (hi[s] - lo[s]) / 2;
      if (global[s] >= targets[s])
        hi[s] = mid;
      else
        lo[s] = mid + 1;
    }
  }
  for (std::size_t s = 0; s < ns; ++s) splitters[s] = lo[s];
  return splitters;
}

std::vector<std::uint64_t> ref_weighted_splitter_search(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    double weight_each, const std::vector<double>& targets) {
  return ref_weighted_splitter_bisect(
      comm, sorted_keys, targets, [&](std::uint64_t k) {
        return weight_each *
               static_cast<double>(
                   std::upper_bound(sorted_keys.begin(), sorted_keys.end(),
                                    k) -
                   sorted_keys.begin());
      });
}

std::vector<std::uint64_t> ref_weighted_splitter_search(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<double>& item_weights,
    const std::vector<double>& targets) {
  std::vector<double> prefix(sorted_keys.size() + 1, 0.0);
  for (std::size_t i = 0; i < item_weights.size(); ++i)
    prefix[i + 1] = prefix[i] + item_weights[i];
  return ref_weighted_splitter_bisect(
      comm, sorted_keys, targets, [&](std::uint64_t k) {
        return prefix[static_cast<std::size_t>(
            std::upper_bound(sorted_keys.begin(), sorted_keys.end(), k) -
            sorted_keys.begin())];
      });
}

// This rank's sorted keys for the splitter differential tests: `n` keys
// below key_mod (offset so kmin > 0 as well as kmin == 0 occur).
std::vector<std::uint64_t> splitter_test_keys(int rank, std::size_t n,
                                              std::uint64_t key_mod,
                                              std::uint64_t offset,
                                              std::uint64_t seed) {
  fcs::Rng rng = fcs::Rng(seed).stream(static_cast<std::uint64_t>(rank));
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = offset + rng() % key_mod;
  std::sort(keys.begin(), keys.end());
  return keys;
}

class SplitterDiff : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, SplitterDiff,
                         ::testing::Values(1, 2, 3, 7, 12, 16));

TEST_P(SplitterDiff, ExactSplitBoundariesMatchBinarySearchVersion) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const std::uint64_t full = ~std::uint64_t{0};
    int round = 0;
    for (std::uint64_t key_mod : {std::uint64_t{1}, std::uint64_t{3},
                                  std::uint64_t{4096}, full}) {
      for (std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{1000}}) {
        if (key_mod == full && offset != 0) continue;
        ++round;
        // Empty ranks: every third rank holds nothing in odd rounds.
        const bool empty = round % 2 == 1 && c.rank() % 3 == 1;
        const std::size_t n =
            empty ? 0 : 50 + 37 * static_cast<std::size_t>(c.rank() % 4);
        const auto keys = splitter_test_keys(c.rank(), n, key_mod, offset,
                                             100 + static_cast<unsigned>(round));
        const std::uint64_t n_total =
            c.allreduce(static_cast<std::uint64_t>(n), mpi::OpSum{});
        // Balanced targets, then custom ones: everything to the last rank,
        // and an uneven ramp.
        std::vector<std::vector<std::uint64_t>> prefixes = {
            sortlib::balanced_target_prefix(n_total, p),
            std::vector<std::uint64_t>(static_cast<std::size_t>(p) - 1, 0)};
        std::vector<std::uint64_t> ramp(static_cast<std::size_t>(p) - 1);
        for (int s = 0; s + 1 < p; ++s)
          ramp[static_cast<std::size_t>(s)] =
              n_total * static_cast<std::uint64_t>((s + 1) * (s + 1)) /
              static_cast<std::uint64_t>(p * p);
        prefixes.push_back(ramp);
        for (const auto& prefix : prefixes) {
          const auto want = ref_exact_split_boundaries(c, keys, prefix);
          const auto got = sortlib::exact_split_boundaries(c, keys, prefix);
          EXPECT_EQ(got, want) << "key_mod " << key_mod << " offset "
                               << offset << " rank " << c.rank();
        }
      }
    }
  });
}

TEST_P(SplitterDiff, WeightedSplitterSearchMatchesBinarySearchVersion) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    for (std::uint64_t key_mod : {std::uint64_t{5}, std::uint64_t{1} << 40}) {
      const bool empty = c.rank() % 3 == 2;
      const std::size_t n = empty ? 0 : 40 + 11 * static_cast<std::size_t>(c.rank());
      const auto keys = splitter_test_keys(c.rank(), n, key_mod, 7, 300);
      const double weight_each = 0.5 + 0.25 * c.rank();
      fcs::Rng rng = fcs::Rng(301).stream(static_cast<std::uint64_t>(c.rank()));
      std::vector<double> item_w(n);
      for (double& w : item_w) w = rng.uniform(0.0, 3.0);

      const double total_each =
          c.allreduce(weight_each * static_cast<double>(n), mpi::OpSum{});
      double local_items = 0.0;
      for (double w : item_w) local_items += w;
      const double total_items = c.allreduce(local_items, mpi::OpSum{});
      auto targets_for = [p](double total) {
        std::vector<double> t(static_cast<std::size_t>(p) - 1);
        for (int s = 0; s + 1 < p; ++s)
          t[static_cast<std::size_t>(s)] = total * (s + 1) / p;
        return t;
      };
      const auto t_each = targets_for(total_each);
      const auto t_items = targets_for(total_items);
      EXPECT_EQ(sortlib::weighted_splitter_search(c, keys, weight_each, t_each),
                ref_weighted_splitter_search(c, keys, weight_each, t_each));
      EXPECT_EQ(sortlib::weighted_splitter_search(c, keys, item_w, t_items),
                ref_weighted_splitter_search(c, keys, item_w, t_items));
    }
  });
}

// The partition sort before it finished with a stable sort: the same
// splitter collectives (reference splitter search), then a pairwise merge
// of the received runs.
template <class T, class KeyFn>
void ref_parallel_sort_partition(const mpi::Comm& comm, std::vector<T>& items,
                                 KeyFn key,
                                 const std::vector<std::uint64_t>* target_counts) {
  std::stable_sort(items.begin(), items.end(),
                   [&](const T& a, const T& b) { return key(a) < key(b); });
  const int p = comm.size();
  if (p == 1) return;
  std::vector<std::uint64_t> keys;
  for (const T& item : items) keys.push_back(key(item));
  const std::uint64_t n_total =
      comm.allreduce(static_cast<std::uint64_t>(items.size()), mpi::OpSum{});
  std::vector<std::uint64_t> target_prefix;
  if (target_counts != nullptr) {
    std::uint64_t acc = 0;
    for (int s = 0; s + 1 < p; ++s) {
      acc += (*target_counts)[static_cast<std::size_t>(s)];
      target_prefix.push_back(acc);
    }
  } else {
    target_prefix = sortlib::balanced_target_prefix(n_total, p);
  }
  const std::vector<std::size_t> bounds =
      ref_exact_split_boundaries(comm, keys, target_prefix);
  std::vector<std::size_t> send_counts(static_cast<std::size_t>(p));
  for (std::size_t d = 0; d < send_counts.size(); ++d)
    send_counts[d] = bounds[d + 1] - bounds[d];
  std::vector<std::size_t> recv_counts;
  std::vector<T> received = comm.alltoallv(items.data(), send_counts, recv_counts);
  std::vector<std::size_t> run_starts;
  std::size_t off = 0;
  for (std::size_t cnt : recv_counts) {
    if (cnt > 0) run_starts.push_back(off);
    off += cnt;
  }
  if (run_starts.empty()) run_starts.push_back(0);
  ref_merge_runs(received, std::move(run_starts), key);
  items = std::move(received);
}

TEST_P(SplitterDiff, PartitionSortMatchesPairwiseMergeVersion) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    for (std::uint64_t key_mod : {std::uint64_t{3}, std::uint64_t{1} << 40}) {
      for (std::size_t n : {std::size_t{0}, std::size_t{300}, std::size_t{3000}}) {
        // Empty ranks in the middle, and runs above the old radix cutoff.
        const std::size_t mine = c.rank() % 4 == 1 ? 0 : n;
        const auto input = random_records(c.rank(), mine, key_mod, 400);
        const std::uint64_t n_total =
            c.allreduce(static_cast<std::uint64_t>(mine), mpi::OpSum{});
        std::vector<std::uint64_t> skewed(static_cast<std::size_t>(p), 0);
        skewed[0] = n_total / 2;
        skewed[static_cast<std::size_t>(p) - 1] = n_total - n_total / 2;
        for (const std::vector<std::uint64_t>* targets :
             std::vector<const std::vector<std::uint64_t>*>{nullptr,
                                                            &skewed}) {
          std::vector<Rec> want = input;
          ref_parallel_sort_partition(c, want, rec_key, targets);
          std::vector<Rec> got = input;
          sortlib::parallel_sort_partition(c, got, rec_key, targets);
          expect_same_records(got, want);
        }
      }
    }
  });
}

TEST_P(ParallelSort, PartitionSortRandomInput) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    auto items = random_records(c.rank(), 200 + 17 * c.rank(), 1000, 11);
    const auto before = items;
    sortlib::parallel_sort_partition(c, items, rec_key);
    expect_globally_sorted(c, before, items, /*check_balanced=*/true);
  });
}

TEST_P(ParallelSort, PartitionSortManyDuplicates) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    // Only 3 distinct keys: exact splitting must still balance perfectly.
    auto items = random_records(c.rank(), 150, 3, 12);
    const auto before = items;
    sortlib::parallel_sort_partition(c, items, rec_key);
    expect_globally_sorted(c, before, items, /*check_balanced=*/true);
  });
}

TEST_P(ParallelSort, PartitionSortAllOnOneRank) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    std::vector<Rec> items;
    if (c.rank() == 0) items = random_records(0, 512, 1u << 20, 13);
    const auto before = items;
    sortlib::parallel_sort_partition(c, items, rec_key);
    expect_globally_sorted(c, before, items, /*check_balanced=*/true);
  });
}

TEST_P(ParallelSort, PartitionSortEmptyGlobal) {
  const int p = GetParam();
  run_ranks(p, [](mpi::Comm& c) {
    std::vector<Rec> items;
    sortlib::parallel_sort_partition(c, items, rec_key);
    EXPECT_TRUE(items.empty());
  });
}

TEST_P(ParallelSort, PartitionSortCustomTargets) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    auto items = random_records(c.rank(), 100, 1u << 30, 14);
    const auto before = items;
    // All elements to the last rank.
    std::vector<std::uint64_t> targets(p, 0);
    targets[p - 1] = c.allreduce(static_cast<std::uint64_t>(items.size()),
                                 mpi::OpSum{});
    sortlib::parallel_sort_partition(c, items, rec_key, &targets);
    if (c.rank() == p - 1)
      EXPECT_EQ(items.size(), static_cast<std::size_t>(targets[p - 1]));
    else
      EXPECT_TRUE(items.empty());
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
  });
}

TEST_P(ParallelSort, MergeSortRandomInputKeepsCounts) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    auto items = random_records(c.rank(), 120 + 31 * (c.rank() % 3), 5000, 15);
    const auto before = items;
    sortlib::parallel_sort_merge(c, items, rec_key);
    EXPECT_EQ(items.size(), before.size());  // counts preserved
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
  });
}

TEST_P(ParallelSort, MergeSortAlmostSortedDoesFewExchanges) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    // Globally sorted input with a small local perturbation: key block per
    // rank, shuffled within the rank only.
    fcs::Rng rng = fcs::Rng(16).stream(c.rank());
    std::vector<Rec> items(300);
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].key = static_cast<std::uint64_t>(c.rank()) * 1000 +
                     rng.uniform_index(1000);
      items[i].payload = i;
    }
    const auto before = items;
    auto stats = sortlib::parallel_sort_merge(c, items, rec_key);
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
    // Already-partitioned data: the probe must avoid every bulk exchange.
    EXPECT_EQ(stats.exchanges, 0u);
    EXPECT_EQ(stats.fallback_rounds, 0u);
  });
}

TEST_P(ParallelSort, MergeSortUnequalCounts) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    // Strongly unequal counts, including empty ranks.
    const std::size_t n = (c.rank() % 3 == 0) ? 0 : 100 * (c.rank() % 4);
    auto items = random_records(c.rank(), n, 1u << 16, 17);
    const auto before = items;
    sortlib::parallel_sort_merge(c, items, rec_key);
    EXPECT_EQ(items.size(), before.size());
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
  });
}

TEST_P(ParallelSort, MergeSortReverseSortedWorstCase) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    // Rank r holds key block (p-1-r): maximal disorder across ranks.
    std::vector<Rec> items(64);
    fcs::Rng rng = fcs::Rng(18).stream(c.rank());
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].key =
          static_cast<std::uint64_t>(p - 1 - c.rank()) * 1000 + rng.uniform_index(1000);
      items[i].payload = i;
    }
    const auto before = items;
    sortlib::parallel_sort_merge(c, items, rec_key);
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
  });
}

// ---------------------------------------------------------------------------
// Adversarial almost-sorted inputs. The adaptive planner (src/plan) now
// routes movement-bounded production steps to the merge sort, so its edge
// cases - duplicate keys straddling rank boundaries, empty ranks, a single
// particle that must cross the whole machine - are no longer benchmark-only
// territory.

/// After a sort whose payloads carry redist::make_index(origin rank, origin
/// position) labels, verify the method-B resort machinery still works on the
/// outcome: invert_origin_indices accepts the labels (it throws on
/// duplicates, gaps, and count mismatches, so acceptance proves the sort
/// kept them a permutation) and routing a per-origin payload through
/// resort_values lands every value on its particle - the inverse side of
/// the permutation.
void expect_resort_roundtrip(mpi::Comm& c, const std::vector<Rec>& after,
                             std::size_t n_original) {
  std::vector<std::uint64_t> origin_of_current(after.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    origin_of_current[i] = after[i].payload;
  std::vector<std::uint64_t> resort;
  redist::invert_origin_indices(c, origin_of_current, n_original,
                                redist::ExchangeKind::kSparse, resort);
  ASSERT_EQ(resort.size(), n_original);
  std::vector<std::int64_t> tags(n_original);
  for (std::size_t i = 0; i < n_original; ++i)
    tags[i] = static_cast<std::int64_t>(redist::make_index(c.rank(), i));
  const auto moved = redist::resort_values(c, resort, tags, 1, after.size(),
                                           redist::ExchangeKind::kSparse);
  ASSERT_EQ(moved.size(), after.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(static_cast<std::uint64_t>(moved[i]), after[i].payload);
}

TEST_P(ParallelSort, MergeSortDuplicateKeysAcrossRankBoundaries) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    // Rank r holds keys r*100 .. (r+1)*100 INCLUSIVE, interleaved locally,
    // so both edge keys are duplicated on the two adjacent ranks. Equal
    // boundary keys must read as already-ordered: no bulk exchange, and the
    // stable local sort's payload order survives.
    std::vector<Rec> items(202);
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].key = 100ull * static_cast<std::uint64_t>(c.rank()) + i % 101;
      items[i].payload = redist::make_index(c.rank(), i);
    }
    const auto before = items;
    const auto stats = sortlib::parallel_sort_merge(c, items, rec_key);
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
    // The boundary probe compares the low rank's max key against the high
    // rank's min; equal keys must not trigger a pointless data exchange.
    EXPECT_EQ(stats.exchanges, 0u);
    EXPECT_EQ(stats.fallback_rounds, 0u);
    // Stability: nothing left the rank, so equal keys must keep their
    // original relative order (ascending payload).
    for (std::size_t i = 1; i < items.size(); ++i) {
      if (items[i - 1].key == items[i].key) {
        EXPECT_LT(items[i - 1].payload, items[i].payload);
      }
    }
    expect_resort_roundtrip(c, items, before.size());
  });
}

TEST_P(ParallelSort, MergeSortEmptyRanksKeepResortIndicesInvertible) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    // Empty ranks interleaved with loaded ones, few distinct keys so
    // duplicates straddle every boundary the data does cross.
    const std::size_t n = (c.rank() % 3 == 1) ? 0 : 60 + 7 * (c.rank() % 5);
    std::vector<Rec> items(n);
    fcs::Rng rng = fcs::Rng(41).stream(c.rank());
    for (std::size_t i = 0; i < n; ++i)
      items[i] = {rng() % 16, redist::make_index(c.rank(), i)};
    const auto before = items;
    sortlib::parallel_sort_merge(c, items, rec_key);
    EXPECT_EQ(items.size(), n);  // counts fixed: empty ranks stay empty
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
    expect_resort_roundtrip(c, items, n);
  });
}

TEST_P(ParallelSort, MergeSortSingleParticleMigratesTheFullRing) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    // One record per rank; rank 0 holds the globally largest key while all
    // others are already in order. Sorting must walk that one record across
    // every rank boundary and shift everyone else down by one.
    std::vector<Rec> items = {
        {c.rank() == 0 ? 1000ull * static_cast<std::uint64_t>(p)
                       : static_cast<std::uint64_t>(c.rank()),
         redist::make_index(c.rank(), 0)}};
    const auto before = items;
    sortlib::parallel_sort_merge(c, items, rec_key);
    ASSERT_EQ(items.size(), 1u);
    expect_globally_sorted(c, before, items, /*check_balanced=*/false);
    if (c.rank() == p - 1) {
      EXPECT_EQ(items[0].key, 1000ull * static_cast<std::uint64_t>(p));
      EXPECT_EQ(items[0].payload, redist::make_index(0, 0));
    } else {
      EXPECT_EQ(items[0].key, static_cast<std::uint64_t>(c.rank() + 1));
      EXPECT_EQ(items[0].payload, redist::make_index(c.rank() + 1, 0));
    }
    expect_resort_roundtrip(c, items, 1);
  });
}

TEST(ParallelSortTiming, MergeBeatsPartitionOnAlmostSorted) {
  // The paper's motivation for switching sort methods: on almost-sorted
  // data, merge-exchange (point-to-point + early exit) must be cheaper in
  // virtual time than a full partition sort.
  auto net = std::make_shared<sim::SwitchedNetwork>();
  const int p = 16;
  auto make_sorted_items = [](int rank) {
    fcs::Rng rng = fcs::Rng(19).stream(rank);
    std::vector<Rec> items(500);
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {static_cast<std::uint64_t>(rank) * 100000 + rng.uniform_index(100000),
                  i};
    return items;
  };
  const double t_merge = run_ranks(p, [&](mpi::Comm& c) {
    auto items = make_sorted_items(c.rank());
    sortlib::parallel_sort_merge(c, items, rec_key);
  }, net);
  const double t_partition = run_ranks(p, [&](mpi::Comm& c) {
    auto items = make_sorted_items(c.rank());
    sortlib::parallel_sort_partition(c, items, rec_key);
  }, net);
  EXPECT_LT(t_merge, t_partition);
}

}  // namespace
