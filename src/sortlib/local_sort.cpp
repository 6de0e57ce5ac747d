#include "sortlib/local_sort.hpp"

#include <array>

namespace sortlib {

bool radix_sort_pays_off(std::size_t n, std::uint64_t key_or) {
  // Measured on 40-byte records with fresh inputs (bench_micro_core
  // BM_SortRecords*): the radix path overtakes std::stable_sort at ~64
  // records for 12-bit keys (2 passes) and at ~128 records for 63-bit keys
  // (8 passes); at 1024 records it is 4x / 2.2x faster.
  std::size_t passes = 0;
  for (; key_or != 0; key_or >>= 8)
    if ((key_or & 0xff) != 0) ++passes;
  return n >= 64 && n >= 16 * passes;
}

std::vector<std::uint32_t> radix_sort_permutation(
    const std::vector<std::uint64_t>& keys) {
  const std::size_t n = keys.size();
  FCS_CHECK(n <= 0xffffffffULL, "radix permutation limited to 2^32 elements");
  std::vector<std::uint32_t> order(n), order_scratch(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);

  // Determine which digits are actually used so nearly-uniform small key
  // ranges (box ids) do not pay for unused passes.
  std::uint64_t key_or = 0;
  for (std::uint64_t k : keys) key_or |= k;
  if (key_or == 0 || n < 2) return order;  // single bucket: identity

  // Large inputs: 16-bit digits halve the pass count (48-bit Morton keys
  // need 3 scatter sweeps instead of 6) and ALL pass histograms are built in
  // one sequential sweep up front. Key and index travel together in one
  // 16-byte record so every scatter touches a single cache line instead of
  // two separate arrays. Any LSD digit width yields the same stable
  // permutation, so the result is bit-identical to the 8-bit path. The
  // 64K-entry counter tables only pay off once the scatter work dominates
  // their zeroing + prefix cost, hence the cutoff.
  constexpr std::size_t kWideDigitCutoff = std::size_t{1} << 15;
  if (n >= kWideDigitCutoff) {
    struct Pair {
      std::uint64_t key;
      std::uint32_t idx;
      std::uint32_t pad;
    };
    int passes = 0;
    while (passes < 4 && (key_or >> (16 * passes)) != 0) ++passes;
    std::vector<std::uint32_t> hist(static_cast<std::size_t>(passes) << 16, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = keys[i];
      for (int p = 0; p < passes; ++p)
        ++hist[(static_cast<std::size_t>(p) << 16) +
               ((k >> (16 * p)) & 0xffff)];
    }
    std::vector<Pair> cur(n), nxt(n);
    for (std::size_t i = 0; i < n; ++i)
      cur[i] = Pair{keys[i], static_cast<std::uint32_t>(i), 0};
    for (int pass = 0; pass < passes; ++pass) {
      std::uint32_t* h = hist.data() + (static_cast<std::size_t>(pass) << 16);
      const int shift = 16 * pass;
      // Exclusive prefix sum; a bucket holding every key means the scatter
      // would be the identity, so the pass is skipped (stable order kept).
      std::uint32_t run = 0;
      bool single_bucket = false;
      for (std::size_t d = 0; d < (std::size_t{1} << 16); ++d) {
        const std::uint32_t c = h[d];
        if (c == static_cast<std::uint32_t>(n)) single_bucket = true;
        h[d] = run;
        run += c;
      }
      if (single_bucket) continue;
      for (std::size_t i = 0; i < n; ++i)
        nxt[h[(cur[i].key >> shift) & 0xffff]++] = cur[i];
      cur.swap(nxt);
    }
    for (std::size_t i = 0; i < n; ++i) order[i] = cur[i].idx;
    return order;
  }

  // Small inputs: 8-bit digits, carrying the keys alongside the permutation
  // so each pass reads the current key array SEQUENTIALLY (histogram and
  // placement) instead of chasing keys[order[i]] through a random-access
  // gather twice per pass.
  std::vector<std::uint64_t> k_cur(keys), k_scratch(n);

  for (int pass = 0; pass < 8; ++pass) {
    const int shift = 8 * pass;
    if (((key_or >> shift) & 0xff) == 0 && (key_or >> shift) != 0) {
      // No key has bits in this digit but higher digits exist: skip the pass.
      continue;
    }
    if ((key_or >> shift) == 0) break;  // no higher bits at all
    std::array<std::uint32_t, 257> count{};
    for (std::size_t i = 0; i < n; ++i)
      ++count[((k_cur[i] >> shift) & 0xff) + 1];
    for (int d = 0; d < 256; ++d) count[d + 1] += count[d];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t dst = count[(k_cur[i] >> shift) & 0xff]++;
      order_scratch[dst] = order[i];
      k_scratch[dst] = k_cur[i];
    }
    order.swap(order_scratch);
    k_cur.swap(k_scratch);
  }
  return order;
}

}  // namespace sortlib
