#include "sortlib/partition_sort.hpp"

#include <algorithm>

namespace sortlib {

std::vector<std::uint64_t> balanced_target_prefix(std::uint64_t n_total,
                                                  int p) {
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(p) - 1);
  const std::uint64_t base = n_total / static_cast<std::uint64_t>(p);
  const std::uint64_t rem = n_total % static_cast<std::uint64_t>(p);
  std::uint64_t acc = 0;
  for (int s = 0; s + 1 < p; ++s) {
    acc += base + (static_cast<std::uint64_t>(s) < rem ? 1 : 0);
    prefix[static_cast<std::size_t>(s)] = acc;
  }
  return prefix;
}

void count_leq_probes(const std::vector<std::uint64_t>& sorted_keys,
                      const std::uint64_t* probes, std::size_t m,
                      std::uint64_t* counts) {
  const std::uint64_t* const keys = sorted_keys.data();
  const std::size_t n = sorted_keys.size();
  std::size_t pos = 0;  // every key before pos is <= the current probe
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint64_t q = probes[j];
    if (pos > 0 && keys[pos - 1] > q) pos = 0;  // probe descended: restart
    // Gallop from pos with doubling strides until a key exceeds q, then
    // binary-search the last bracket: the answer lies in [lo, hi].
    std::size_t lo = pos;
    std::size_t hi = pos;
    std::size_t step = 1;
    while (hi < n && keys[hi] <= q) {
      lo = hi + 1;
      hi = n - lo > step ? lo + step : n;
      step *= 2;
    }
    pos = static_cast<std::size_t>(std::upper_bound(keys + lo, keys + hi, q) -
                                   keys);
    counts[j] = pos;
  }
}

namespace {

// The batched splitter bisection shared by exact_split_boundaries and both
// weighted_splitter_search overloads: for each target t[s] find the
// smallest key k[s] with V(k[s]) >= t[s], where V(k) is the global sum of
// weight_of(local count of keys <= k). All ranks iterate on identical lo/hi
// state (the allreduce result is bit-identical everywhere), so the loop
// stays collectively synchronized; each round reduces one value per
// splitter, open or closed. Every splitter bisects from the same
// [kmin, kmax] with the same mid rule, so the intervals of any two are
// disjoint or equal and ordered like the (ascending) targets: the probes
// are ascending and one galloping count_leq_probes sweep serves a round.
// Returns false, with every splitter 0, when there is nothing to split
// (no targets, or no element on any rank).
template <class V, class WeightOfCount>
bool splitter_bisect(const mpi::Comm& comm,
                     const std::vector<std::uint64_t>& sorted_keys,
                     const std::vector<V>& targets, WeightOfCount weight_of,
                     std::vector<std::uint64_t>& lo) {
  const std::size_t ns = targets.size();
  FCS_ASSERT(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  FCS_ASSERT(std::is_sorted(targets.begin(), targets.end()));
  lo.assign(ns, 0);
  if (ns == 0) return false;

  // Global key range (empty ranks contribute neutral elements).
  const std::uint64_t local_min =
      sorted_keys.empty() ? ~std::uint64_t{0} : sorted_keys.front();
  const std::uint64_t local_max = sorted_keys.empty() ? 0 : sorted_keys.back();
  const std::uint64_t kmin = comm.allreduce(local_min, mpi::OpMin{});
  const std::uint64_t kmax = comm.allreduce(local_max, mpi::OpMax{});
  const std::uint64_t n_total = comm.allreduce(
      static_cast<std::uint64_t>(sorted_keys.size()), mpi::OpSum{});
  if (n_total == 0) return false;

  lo.assign(ns, kmin);
  std::vector<std::uint64_t> hi(ns, kmax), mids(ns), counts(ns);
  std::vector<V> local(ns), global(ns);
  for (;;) {
    bool open = false;
    for (std::size_t s = 0; s < ns; ++s) {
      if (lo[s] < hi[s]) open = true;
      mids[s] = lo[s] + (hi[s] - lo[s]) / 2;
    }
    if (!open) break;
    count_leq_probes(sorted_keys, mids.data(), ns, counts.data());
    for (std::size_t s = 0; s < ns; ++s) local[s] = weight_of(counts[s]);
    comm.allreduce(local.data(), global.data(), ns, mpi::OpSum{});
    for (std::size_t s = 0; s < ns; ++s) {
      if (lo[s] >= hi[s]) continue;
      if (global[s] >= targets[s])
        hi[s] = mids[s];
      else
        lo[s] = mids[s] + 1;
    }
  }
  return true;
}

}  // namespace

std::vector<std::uint64_t> weighted_splitter_search(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    double weight_each, const std::vector<double>& targets) {
  std::vector<std::uint64_t> splitters;
  splitter_bisect(
      comm, sorted_keys, targets,
      [&](std::uint64_t c) { return weight_each * static_cast<double>(c); },
      splitters);
  return splitters;
}

std::vector<std::uint64_t> weighted_splitter_search(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<double>& item_weights,
    const std::vector<double>& targets) {
  FCS_CHECK(item_weights.size() == sorted_keys.size(),
            "item_weights must align with sorted_keys");
  // Inclusive prefix sums make W(k) a lookup by count; summing once up
  // front also keeps the floating-point association order fixed, so the
  // collective bisection sees identical values on every probe.
  std::vector<double> prefix(sorted_keys.size() + 1, 0.0);
  for (std::size_t i = 0; i < item_weights.size(); ++i) {
    FCS_ASSERT(item_weights[i] >= 0.0);
    prefix[i + 1] = prefix[i] + item_weights[i];
  }
  std::vector<std::uint64_t> splitters;
  splitter_bisect(
      comm, sorted_keys, targets,
      [&](std::uint64_t c) { return prefix[static_cast<std::size_t>(c)]; },
      splitters);
  return splitters;
}

std::vector<std::size_t> exact_split_boundaries(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<std::uint64_t>& target_prefix) {
  const int p = comm.size();
  const std::size_t ns = target_prefix.size();
  FCS_CHECK(static_cast<int>(ns) == p - 1,
            "need exactly P-1 splitter targets");

  std::vector<std::size_t> bounds(static_cast<std::size_t>(p) + 1, 0);
  bounds[static_cast<std::size_t>(p)] = sorted_keys.size();
  // k[s] = smallest key with G(k) >= target, where G(k) is the global
  // number of elements with key <= k.
  std::vector<std::uint64_t> split;
  if (!splitter_bisect(comm, sorted_keys, target_prefix,
                       [](std::uint64_t c) { return c; }, split))
    return bounds;

  // Tie-breaking: targets may fall inside a group of equal keys. Count the
  // elements strictly below k[s] globally and hand the remaining quota of
  // key == k[s] elements to ranks in rank order. The k[s] ascend, and so do
  // the k[s] - 1 (a k[s] == 0 has nothing below it and comes first).
  std::vector<std::uint64_t> below(ns), local_less(ns), local_ties(ns);
  for (std::size_t s = 0; s < ns; ++s)
    below[s] = split[s] == 0 ? 0 : split[s] - 1;
  count_leq_probes(sorted_keys, below.data(), ns, local_less.data());
  count_leq_probes(sorted_keys, split.data(), ns, local_ties.data());
  for (std::size_t s = 0; s < ns; ++s) {
    if (split[s] == 0) local_less[s] = 0;
    local_ties[s] -= local_less[s];
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
  for (std::size_t s = 1; s < bounds.size(); ++s)
    FCS_ASSERT(bounds[s] >= bounds[s - 1]);
  return bounds;
}

std::vector<std::size_t> partition_send_counts(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<std::uint64_t>* target_counts) {
  const int p = comm.size();
  const std::uint64_t n_total = comm.allreduce(
      static_cast<std::uint64_t>(sorted_keys.size()), mpi::OpSum{});

  std::vector<std::uint64_t> target_prefix;
  if (target_counts != nullptr) {
    FCS_CHECK(static_cast<int>(target_counts->size()) == p,
              "need one target count per rank");
    target_prefix.resize(static_cast<std::size_t>(p) - 1);
    std::uint64_t acc = 0;
    std::uint64_t total_targets = 0;
    for (std::uint64_t c : *target_counts) total_targets += c;
    FCS_CHECK(total_targets == n_total, "target counts must sum to the global "
                  "element count (" << n_total << "), got " << total_targets);
    for (int s = 0; s + 1 < p; ++s) {
      acc += (*target_counts)[static_cast<std::size_t>(s)];
      target_prefix[static_cast<std::size_t>(s)] = acc;
    }
  } else {
    target_prefix = balanced_target_prefix(n_total, p);
  }

  const std::vector<std::size_t> bounds =
      exact_split_boundaries(comm, sorted_keys, target_prefix);
  std::vector<std::size_t> send_counts(static_cast<std::size_t>(p));
  for (std::size_t d = 0; d < send_counts.size(); ++d)
    send_counts[d] = bounds[d + 1] - bounds[d];
  return send_counts;
}

}  // namespace sortlib
