// Neighborhood exchange over a fixed, symmetric neighbor list.
//
// When the application reports the maximum particle movement and it is small
// enough that particles can only cross into directly neighboring subdomains,
// the P2NFFT-style solver replaces the collective all-to-all with
// point-to-point messages to the grid neighbors only (paper Section III-B).
// Unlike the NBX-style sparse exchange, the partner set is known up front,
// so no synchronization round is needed at all - each rank posts exactly one
// (possibly empty) send and one receive per neighbor.
#pragma once

#include <cstring>
#include <vector>

#include "minimpi/comm.hpp"
#include "obs/obs.hpp"
#include "redist/conserve.hpp"

namespace redist {

/// Exchange typed data with the given neighbors. `neighbors` lists the
/// neighbor ranks in ascending order (as mpi::CartComm::neighbors returns
/// them); self is not a neighbor. `sends` is the rank-ascending partner list
/// of the outgoing data, in elements of T at offsets into `data`; it may name
/// only self and listed neighbors (checked). Every neighbor receives exactly
/// one (possibly empty) message. Returns the received elements grouped by
/// ascending source rank; `recvs` receives the (source, offset, count) list
/// of the non-empty sources, self included.
template <class T>
std::vector<T> neighborhood_alltoallv(const mpi::Comm& comm,
                                      const std::vector<int>& neighbors,
                                      const T* data,
                                      const mpi::PartnerList& sends,
                                      mpi::PartnerList& recvs) {
  static_assert(std::is_trivially_copyable_v<T>);
  obs::Span span(comm.ctx().obs(), "redist.neighborhood");
  const int p = comm.size();
  const int r = comm.rank();
  mpi::detail::check_partners(sends, p, "neighborhood exchange");
  constexpr int kTag = 0x1eab;  // any fixed user tag works: BSP usage

  int prev = -1;
  for (int n : neighbors) {
    FCS_CHECK(n >= 0 && n < p && n != r, "invalid neighbor rank " << n);
    FCS_CHECK(n > prev, "neighbor list must be ascending, got rank "
                            << n << " after " << prev);
    prev = n;
  }
  // Merge walk of the two ascending lists: match each send to its neighbor
  // (send_of[j] is neighbors[j]'s entry, or null) and find the self entry.
  const mpi::Partner* self = nullptr;
  std::vector<const mpi::Partner*> send_of(neighbors.size(), nullptr);
  double moved = 0.0;
  std::size_t sent_total = 0;
  std::uint64_t sent_sum = 0;
  const bool validate = validation_enabled();
  {
    std::size_t j = 0;
    for (const mpi::Partner& e : sends) {
      sent_total += e.count;
      if (validate)
        sent_sum += content_checksum(data + e.offset, e.count, sizeof(T));
      if (e.rank == r) {
        self = &e;
        continue;
      }
      while (j < neighbors.size() && neighbors[j] < e.rank) ++j;
      const bool listed = j < neighbors.size() && neighbors[j] == e.rank;
      FCS_CHECK(e.count == 0 || listed,
                "neighborhood exchange: data for non-neighbor rank " << e.rank);
      if (listed) {
        send_of[j] = &e;
        moved += static_cast<double>(e.count);
      }
    }
  }

  if (obs::RankObs* const o = comm.ctx().obs(); o != nullptr) {
    o->add("redist.neighborhood.calls", 1.0);
    o->add("redist.neighborhood.elements_moved", moved);
    o->add("redist.neighborhood.bytes_moved", moved * sizeof(T));
  }

  // Post all sends (eager), then receive one message from every neighbor.
  for (std::size_t j = 0; j < neighbors.size(); ++j) {
    const mpi::Partner* e = send_of[j];
    comm.send(e == nullptr ? data : data + e->offset,
              e == nullptr ? 0 : e->count, neighbors[j], kTag);
  }

  // Receive raw engine payloads (moved, not copied) and splice them into the
  // output in source-rank order - no per-neighbor typed staging vectors.
  std::vector<std::vector<std::byte>> incoming(neighbors.size());
  recvs.clear();
  std::size_t total = 0;
  const auto add_self = [&] {
    if (self != nullptr && self->count > 0) {
      recvs.push_back(mpi::Partner{r, total, self->count});
      total += self->count;
    }
  };
  bool self_done = false;
  for (std::size_t j = 0; j < neighbors.size(); ++j) {
    incoming[j] = comm.recv_bytes_vec(neighbors[j], kTag, nullptr);
    const std::size_t bytes = incoming[j].size();
    FCS_CHECK(bytes % sizeof(T) == 0,
              "neighborhood exchange: received " << bytes
                  << " bytes, not a multiple of element size " << sizeof(T));
    if (!self_done && r < neighbors[j]) {
      add_self();
      self_done = true;
    }
    if (bytes > 0) {
      recvs.push_back(mpi::Partner{neighbors[j], total, bytes / sizeof(T)});
      total += bytes / sizeof(T);
    }
  }
  if (!self_done) add_self();

  std::vector<T> out(total);
  std::size_t j = 0;
  for (const mpi::Partner& e : recvs) {
    if (e.rank == r) {
      std::memcpy(out.data() + e.offset, data + self->offset,
                  e.count * sizeof(T));
      continue;
    }
    while (neighbors[j] != e.rank) ++j;
    std::memcpy(out.data() + e.offset, incoming[j].data(), incoming[j].size());
  }
  if (validate)
    validate_exchange(comm, "neighborhood_alltoallv", sent_total, sent_sum,
                      out.size(),
                      content_checksum(out.data(), out.size(), sizeof(T)));
  return out;
}

}  // namespace redist
