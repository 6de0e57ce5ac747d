#include "redist/resort.hpp"

#include <algorithm>

namespace redist {

void ResortPlan::build(const mpi::Comm& comm,
                       const std::vector<std::uint64_t>& resort_indices,
                       const std::vector<std::uint64_t>& origin_of_current,
                       ExchangeKind kind) {
  const int p = comm.size();
  valid_ = false;
  plan_.assign(
      comm, resort_indices.size(),
      [&](std::size_t i, std::vector<int>& targets) {
        targets.push_back(index_rank(resort_indices[i]));
      },
      kind);

  // Receive side: sorting the origin indices (source-rank-major, ascending
  // source position within a rank) reproduces the order in which the plan's
  // slots arrive, so the sources come out as an ascending partner list. The
  // sort also proves the inverse-permutation invariant: a duplicated origin
  // index means two current elements claim the same original particle.
  FCS_CHECK(origin_of_current.size() <= 0xffffffffULL,
            "more than 2^32 local particles");
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(origin_of_current.size());
  for (std::size_t j = 0; j < origin_of_current.size(); ++j)
    order.emplace_back(origin_of_current[j], static_cast<std::uint32_t>(j));
  std::sort(order.begin(), order.end());

  mpi::PartnerList& recv = plan_.recv_;
  recv.clear();
  placement_.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const int src = index_rank(order[k].first);
    FCS_CHECK(src >= 0 && src < p,
              "origin index names invalid rank " << src);
    FCS_CHECK(k == 0 || order[k].first != order[k - 1].first,
              "resort plan: duplicate origin index "
                  << order[k].first << " (resort indices are not an inverse "
                  "permutation)");
    if (recv.empty() || recv.back().rank != src)
      recv.push_back(mpi::Partner{src, 0, 0});
    ++recv.back().count;
    placement_[k] = order[k].second;
  }
  plan_.finish_recv();
  valid_ = true;
  obs::count(comm.ctx().obs(), "redist.resort_plan.builds", 1.0);
}

std::vector<std::uint64_t> consecutive_origin_indices(int rank,
                                                      std::size_t n) {
  FCS_CHECK(n <= 0xffffffffULL, "more than 2^32 local particles");
  std::vector<std::uint64_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = make_index(rank, i);
  return indices;
}

void invert_origin_indices(const mpi::Comm& comm,
                           const std::vector<std::uint64_t>& origin_of_current,
                           std::size_t n_original, ExchangeKind kind,
                           std::vector<std::uint64_t>& resort_indices) {
  struct Packet {
    std::uint64_t origin;   // where the particle came from
    std::uint64_t current;  // where it is now
  };
  std::vector<Packet> packets;
  packets.reserve(origin_of_current.size());
  for (std::size_t i = 0; i < origin_of_current.size(); ++i)
    packets.push_back(
        Packet{origin_of_current[i], make_index(comm.rank(), i)});

  std::vector<Packet> received = fine_grained_redistribute(
      comm, packets,
      [](const Packet& pk, std::size_t, std::vector<int>& targets) {
        targets.push_back(index_rank(pk.origin));
      },
      kind);

  FCS_CHECK(received.size() == n_original,
            "invert: expected " << n_original << " indices, received "
                                << received.size());
  resort_indices.assign(n_original, ~std::uint64_t{0});
  for (const Packet& pk : received) {
    const std::uint32_t pos = index_pos(pk.origin);
    FCS_CHECK(pos < n_original, "invert: origin position out of range");
    FCS_CHECK(resort_indices[pos] == ~std::uint64_t{0},
              "invert: duplicate origin position " << pos);
    resort_indices[pos] = pk.current;
  }
}

void resort_values_bytes(const mpi::Comm& comm,
                         const std::vector<std::uint64_t>& resort_indices,
                         const std::byte* data, std::size_t item_bytes,
                         std::size_t n_changed, ExchangeKind kind,
                         std::vector<std::byte>& out) {
  out.resize(n_changed * item_bytes);
  detail::resort_rows(comm, resort_indices, data, item_bytes, n_changed, kind,
                      out.data());
}

namespace detail {

void resort_rows(const mpi::Comm& comm,
                 const std::vector<std::uint64_t>& resort_indices,
                 const std::byte* data, std::size_t item_bytes,
                 std::size_t n_changed, ExchangeKind kind, std::byte* out) {
  const int p = comm.size();
  const std::size_t elem_bytes = sizeof(std::uint32_t) + item_bytes;

  // Count packet bytes per destination partner; the live index maps each
  // packet's rank to its partner in O(1), so packing costs
  // O(items + partners).
  mpi::PartnerList sends;
  std::vector<std::byte> packed(resort_indices.size() * elem_bytes);
  {
    mpi::PartnerIndex index(comm);
    for (std::uint64_t idx : resort_indices) {
      const int r = index_rank(idx);
      FCS_CHECK(r >= 0 && r < p, "resort index names invalid rank " << r);
      index.add(r, elem_bytes, sends);
    }
    index.finish(sends);
    for (std::size_t i = 0; i < resort_indices.size(); ++i) {
      const std::uint64_t idx = resort_indices[i];
      std::size_t& c = sends[index.entry(index_rank(idx))].offset;
      const std::uint32_t pos = index_pos(idx);
      std::memcpy(packed.data() + c, &pos, sizeof pos);
      std::memcpy(packed.data() + c + sizeof pos, data + i * item_bytes,
                  item_bytes);
      c += elem_bytes;
    }
  }
  for (mpi::Partner& e : sends) e.offset -= e.count;

  std::vector<std::byte> received;
  if (kind == ExchangeKind::kDense) {
    std::vector<std::size_t> send_bytes;
    std::vector<std::size_t> recv_bytes;
    mpi::counts_from_partners(sends, p, send_bytes);
    received = comm.alltoallv_bytes(packed.data(), send_bytes, recv_bytes);
  } else {
    mpi::PartnerList recvs;
    comm.sparse_alltoallv_bytes(packed.data(), sends, recvs, received);
  }
  if (validation_enabled())
    validate_exchange(
        comm, "resort_values", packed.size() / elem_bytes,
        content_checksum(packed.data(), packed.size() / elem_bytes, elem_bytes),
        received.size() / elem_bytes,
        content_checksum(received.data(), received.size() / elem_bytes,
                         elem_bytes));

  FCS_CHECK(received.size() == n_changed * elem_bytes,
            "resort: expected " << n_changed << " packets, received "
                                << received.size() / elem_bytes);
  std::vector<char> filled(n_changed, 0);
  for (std::size_t off = 0; off < received.size(); off += elem_bytes) {
    std::uint32_t pos = 0;
    std::memcpy(&pos, received.data() + off, sizeof pos);
    FCS_CHECK(pos < n_changed, "resort: target position " << pos
                  << " out of range " << n_changed);
    FCS_CHECK(!filled[pos], "resort: duplicate packet for position " << pos);
    filled[pos] = 1;
    std::memcpy(out + pos * item_bytes, received.data() + off + sizeof pos,
                item_bytes);
  }
}

}  // namespace detail

}  // namespace redist
