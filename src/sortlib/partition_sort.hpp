// Partition-based parallel sorting (paper reference [12]).
//
// This is the sorting method the FMM solver uses for unsorted particle data:
// every rank sorts locally, P-1 exact global splitters are found by a batched
// binary search on the key space (with tie-breaking so arbitrary duplicate
// distributions still split exactly), and one collective all-to-all moves
// every element to its destination rank. The output distribution matches the
// requested per-rank target counts (balanced by default), so the method also
// *redistributes* while it sorts - which is exactly why it is expensive to
// run in every time step and why the paper's method B tries to avoid it.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "minimpi/comm.hpp"
#include "sortlib/carry.hpp"
#include "sortlib/local_sort.hpp"

namespace sortlib {

/// Compute local segment boundaries for exact splitting. `sorted_keys` are
/// this rank's keys in ascending order; `target_prefix` holds the global
/// number of elements that must end up strictly before each of the P-1
/// splitters. Returns P+1 boundaries b with b[0] = 0, b[P] = n_local;
/// elements [b[s], b[s+1]) go to rank s. Collective.
std::vector<std::size_t> exact_split_boundaries(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<std::uint64_t>& target_prefix);

/// Counting kernel of the splitter searches: counts[j] = number of
/// sorted_keys <= probes[j] (the std::upper_bound offset), for m probes.
/// One forward sweep over the keys serves ascending probes: each count
/// gallops (doubling strides, then a bounded binary search) from the
/// previous one. A probe below its predecessor restarts the sweep, so the
/// result is correct for any probe order.
void count_leq_probes(const std::vector<std::uint64_t>& sorted_keys,
                      const std::uint64_t* probes, std::size_t m,
                      std::uint64_t* counts);

/// Per-destination element counts of the partition sort: the exact
/// splitter segments of this rank's `sorted_keys` for the given per-rank
/// targets (balanced when null; otherwise one count per rank, summing to
/// the global element count). Collective; P > 1.
std::vector<std::size_t> partition_send_counts(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<std::uint64_t>* target_counts);

/// Balanced target prefix: rank s receives n_total/P elements with the
/// remainder spread over the lowest ranks.
std::vector<std::uint64_t> balanced_target_prefix(std::uint64_t n_total, int p);

/// Generalization of the splitter search inside exact_split_boundaries to
/// weighted elements: find, for each target t[s], the smallest key k[s] with
/// W(k[s]) >= t[s], where W(k) is the global weighted count of elements with
/// key <= k and every element on THIS rank weighs `weight_each` (weights may
/// differ between ranks; weight_each = 1 everywhere recovers the count-based
/// search). Targets must be ascending. Returns the k[s] (ascending).
/// Collective; all ranks get identical results. The load-balancing layer
/// (src/lb) uses this to recut Z-curve segments by per-rank cost.
std::vector<std::uint64_t> weighted_splitter_search(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    double weight_each, const std::vector<double>& targets);

/// Per-item-weight variant: element i on this rank weighs item_weights[i]
/// (aligned with sorted_keys, all weights >= 0). This is what lets the cut
/// react to cost variation WITHIN a rank - e.g. a density hotspot whose
/// per-particle cost exceeds the rank average - instead of only to per-rank
/// averages. item_weights = {w, w, ...} recovers the scalar overload.
std::vector<std::uint64_t> weighted_splitter_search(
    const mpi::Comm& comm, const std::vector<std::uint64_t>& sorted_keys,
    const std::vector<double>& item_weights, const std::vector<double>& targets);

/// Sort `items` globally by key across the communicator using exact
/// splitting + alltoallv. Afterwards keys on rank r are all <= keys on rank
/// r+1 and rank r holds target_counts[r] elements (balanced by default).
template <class T, class KeyFn>
void parallel_sort_partition(
    const mpi::Comm& comm, std::vector<T>& items, KeyFn key,
    const std::vector<std::uint64_t>* target_counts = nullptr) {
  sort_by_key(items, key);
  const int p = comm.size();
  if (p == 1) return;

  std::vector<std::uint64_t> keys;
  keys.reserve(items.size());
  for (const T& item : items) keys.push_back(key(item));
  const std::vector<std::size_t> send_counts =
      partition_send_counts(comm, keys, target_counts);

  std::vector<std::size_t> recv_counts;
  std::vector<T> received = comm.alltoallv(items.data(), send_counts, recv_counts);

  // Each source's block arrives sorted; their stable merge is the stable
  // sort of the concatenation.
  sort_by_key(received, key);
  items = std::move(received);
}

/// parallel_sort_partition with attached payload columns: the carry set's
/// rows (aligned with `items`) follow the items through the local sort, the
/// partition exchange and the merge, so after the call column row k still
/// belongs to items[k]. The splitter collectives are identical to the
/// plain variant and the item result is bit-identical to it (the local sort
/// and the merge are realized as THE stable permutation, which is unique);
/// only the data exchange differs - one alltoallv carrying
/// [items][col0][col1]... per destination instead of an items-only payload
/// plus a later per-field resort round.
template <class T, class KeyFn>
void parallel_sort_partition_carry(
    const mpi::Comm& comm, std::vector<T>& items, KeyFn key, CarrySet& carry,
    const std::vector<std::uint64_t>* target_counts = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Local sort as an explicit stable permutation. Items and keys are
  // materialized in sorted order (the splitter search needs them); the
  // COLUMNS are not permuted here - the exchange pack below gathers their
  // rows through `order` directly, fusing the resort permute into the pack
  // (one gather instead of permute + copy-back + identity pack). The packed
  // bytes are identical either way. Equal keys keep their input order,
  // exactly like sort_by_key.
  std::vector<std::uint64_t> keys;
  keys.reserve(items.size());
  for (const T& item : items) keys.push_back(key(item));
  const std::vector<std::uint32_t> order = radix_sort_permutation(keys);
  items = apply_permutation(items, order);
  keys = apply_permutation(keys, order);
  const int p = comm.size();
  if (p == 1) {
    carry.permute(order.data(), order.size());
    return;
  }

  const std::vector<std::size_t> send_counts =
      partition_send_counts(comm, keys, target_counts);

  // Items are already contiguous in destination order (sorted, contiguous
  // splitter segments), so the carried exchange ships them identity-packed;
  // the column rows are gathered through the sort order in the pack itself
  // (the fused gather-permute - columns still hold the pre-sort row order).
  std::vector<std::byte> received_bytes;
  carry_exchange(comm, /*sparse=*/false,
                 reinterpret_cast<const std::byte*>(items.data()), sizeof(T),
                 items.size(), send_counts, nullptr, order.data(), carry,
                 received_bytes);
  std::vector<T> received(received_bytes.size() / sizeof(T));
  if (!received_bytes.empty())
    std::memcpy(received.data(), received_bytes.data(), received_bytes.size());

  // Each source's block arrives sorted; the stable radix permutation of the
  // received keys IS the stable merge of those runs - apply it to items and
  // columns alike.
  keys.clear();
  keys.reserve(received.size());
  for (const T& item : received) keys.push_back(key(item));
  const std::vector<std::uint32_t> merge_order = radix_sort_permutation(keys);
  received = apply_permutation(received, merge_order);
  carry.permute(merge_order.data(), merge_order.size());
  items = std::move(received);
}

}  // namespace sortlib
