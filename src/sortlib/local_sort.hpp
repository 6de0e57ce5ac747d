// Local (single-rank) sorting primitives shared by the parallel sorts.
//
// Elements are arbitrary trivially-copyable records sorted by a 64-bit key
// extracted with a caller-provided function (for particles: the Z-Morton box
// id, or the origin index used when restoring the original order). The radix
// path sorts a permutation of indices by key and then applies it, which is
// how particle codes avoid shuffling wide records more than once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace sortlib {

/// LSD radix sort (8-bit digits) of `keys`, producing the permutation that
/// sorts them: order[i] = index of the i-th smallest key. Stable.
std::vector<std::uint32_t> radix_sort_permutation(
    const std::vector<std::uint64_t>& keys);

/// Apply `order` (from radix_sort_permutation) out-of-place.
template <class T>
std::vector<T> apply_permutation(const std::vector<T>& items,
                                 const std::vector<std::uint32_t>& order) {
  FCS_CHECK(items.size() == order.size(), "permutation size mismatch");
  std::vector<T> out;
  out.reserve(items.size());
  for (std::uint32_t idx : order) out.push_back(items[idx]);
  return out;
}

/// True when the stable radix path of sort_by_key beats a comparison sort
/// for `n` keys whose bitwise OR is `key_or`. The radix path pays one
/// counting/scatter pass per non-zero 8-bit digit of key_or (plus a fixed
/// per-pass table cost); the comparison sort pays ~log2(n) record moves
/// per element.
bool radix_sort_pays_off(std::size_t n, std::uint64_t key_or);

/// Sort `items` in place by `key(item)`. Stable for equal keys. Takes the
/// radix path unless radix_sort_pays_off says a comparison sort is cheaper
/// (tiny inputs, or few records with many key digits); both paths produce
/// THE stable order, so the choice never changes the result.
template <class T, class KeyFn>
void sort_by_key(std::vector<T>& items, KeyFn key) {
  std::vector<std::uint64_t> keys;
  keys.reserve(items.size());
  std::uint64_t key_or = 0;
  for (const T& item : items) {
    keys.push_back(key(item));
    key_or |= keys.back();
  }
  if (!radix_sort_pays_off(items.size(), key_or)) {
    std::stable_sort(items.begin(), items.end(),
                     [&](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  items = apply_permutation(items, radix_sort_permutation(keys));
}

template <class T, class KeyFn>
bool is_sorted_by_key(const std::vector<T>& items, KeyFn key) {
  return std::is_sorted(items.begin(), items.end(),
                        [&](const T& a, const T& b) { return key(a) < key(b); });
}

}  // namespace sortlib
