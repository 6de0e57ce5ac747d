#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace sim {

double NetworkModel::dense_exchange_latency(int rank, int nranks) const {
  double total = 0.0;
  for (int other = 0; other < nranks; ++other)
    if (other != rank) total += p2p_time(rank, other, 0);
  return total;
}

SwitchedNetwork::SwitchedNetwork(double latency, double byte_time)
    : latency_(latency), byte_time_(byte_time) {}

double SwitchedNetwork::dense_exchange_latency(int /*rank*/,
                                               int nranks) const {
  return latency_ * (nranks - 1);
}

double SwitchedNetwork::injection_time(int src, int dst,
                                       std::size_t bytes) const {
  if (src == dst) return 0.0;
  return static_cast<double>(bytes) * byte_time_;
}

double SwitchedNetwork::dense_exchange_byte_time(int nranks) const {
  // High-radix fat tree with oversubscription plus the irregular-alltoallv
  // implementation overhead: effective per-byte cost grows ~P/4 when all
  // ranks inject at once (calibrated against the paper's Fig. 6 gaps).
  return byte_time_ * 0.25 * static_cast<double>(nranks);
}

double SwitchedNetwork::p2p_time(int src, int dst, std::size_t bytes) const {
  if (src == dst) return static_cast<double>(bytes) * byte_time_ * 0.1;
  return latency_ + static_cast<double>(bytes) * byte_time_;
}

TorusNetwork::TorusNetwork(std::vector<int> dims, double base_latency,
                           double hop_latency, double byte_time,
                           double per_hop_byte_factor)
    : dims_(std::move(dims)),
      base_latency_(base_latency),
      hop_latency_(hop_latency),
      byte_time_(byte_time),
      per_hop_byte_factor_(per_hop_byte_factor) {
  FCS_CHECK(!dims_.empty(), "torus needs at least one dimension");
  for (int d : dims_) FCS_CHECK(d >= 1, "torus dimension must be >= 1");
}

void TorusNetwork::coords_of(int rank, std::vector<int>& coords) const {
  coords.resize(dims_.size());
  for (std::size_t i = dims_.size(); i-- > 0;) {
    coords[i] = rank % dims_[i];
    rank /= dims_[i];
  }
}

int TorusNetwork::hops(int src, int dst) const {
  // Per-axis coordinates peeled off row-major, as in coords_of.
  int h = 0;
  for (std::size_t i = dims_.size(); i-- > 0;) {
    const int d = std::abs(src % dims_[i] - dst % dims_[i]);
    h += std::min(d, dims_[i] - d);  // wraparound links
    src /= dims_[i];
    dst /= dims_[i];
  }
  return h;
}

double TorusNetwork::p2p_time(int src, int dst, std::size_t bytes) const {
  if (src == dst) return static_cast<double>(bytes) * byte_time_ * 0.1;
  const int h = hops(src, dst);
  const double byte_cost = static_cast<double>(bytes) * byte_time_ *
                           (1.0 + per_hop_byte_factor_ * std::max(0, h - 1));
  return base_latency_ + hop_latency_ * h + byte_cost;
}

double TorusNetwork::injection_time(int src, int dst,
                                    std::size_t bytes) const {
  if (src == dst) return 0.0;
  return static_cast<double>(bytes) * byte_time_;
}

double TorusNetwork::dense_exchange_byte_time(int nranks) const {
  // Torus bisection: all-to-all traffic crosses O(P^{2/3}) links while P
  // ranks inject, so the effective per-byte cost grows with P^{1/3} (times
  // a small constant for the irregular exchange implementation).
  return byte_time_ * 2.0 * std::cbrt(static_cast<double>(nranks));
}

double TorusNetwork::dense_exchange_latency(int /*rank*/, int nranks) const {
  // The torus is vertex-transitive: the sum of hop distances from any rank
  // to all others is sum over dimensions of nranks/d * S(d), where S(d) is
  // the per-axis cyclic distance sum floor(d^2/4).
  double hop_sum = 0.0;
  double total_ranks = 1.0;
  for (int d : dims_) total_ranks *= d;
  for (int d : dims_)
    hop_sum += total_ranks / d * static_cast<double>((d * d) / 4);
  return base_latency_ * (nranks - 1) + hop_latency_ * hop_sum;
}

std::string TorusNetwork::name() const {
  std::ostringstream oss;
  oss << "torus(";
  for (std::size_t i = 0; i < dims_.size(); ++i)
    oss << (i ? "x" : "") << dims_[i];
  oss << ")";
  return oss.str();
}

std::vector<int> TorusNetwork::balanced_dims(int nranks, int ndims) {
  FCS_CHECK(nranks >= 1 && ndims >= 1, "invalid torus shape request");
  std::vector<int> dims(static_cast<std::size_t>(ndims), 1);
  int remaining = nranks;
  // Repeatedly pull the smallest prime factor into the currently smallest
  // dimension; yields near-cubic shapes for the powers of two used here.
  while (remaining > 1) {
    int factor = 2;
    while (factor * factor <= remaining && remaining % factor != 0) ++factor;
    if (remaining % factor != 0) factor = remaining;
    auto it = std::min_element(dims.begin(), dims.end());
    *it *= factor;
    remaining /= factor;
  }
  std::sort(dims.begin(), dims.end(), std::greater<int>());
  return dims;
}

}  // namespace sim
