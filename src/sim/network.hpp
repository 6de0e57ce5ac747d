// Network cost models for the virtual-time machine model.
//
// The paper's measurements were taken on two machines with very different
// interconnects: JuRoPA (QDR InfiniBand, high-radix switched fabric - the
// distance between any two ranks is essentially uniform) and Juqueen
// (Blue Gene/Q, 5-D torus - neighbor communication is much cheaper than
// global communication). We reproduce both as pluggable cost models: a
// message of `bytes` from rank `src` to rank `dst` takes
//
//     p2p_time = latency(src, dst) + bytes * byte_time(src, dst)
//
// on top of fixed per-message CPU overheads charged by the engine. The
// collectives in minimpi are built on point-to-point, so collective costs
// emerge from the model rather than being postulated.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace sim {

class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// In-flight time of one point-to-point message. src == dst is a local
  /// loopback and should be near-free.
  virtual double p2p_time(int src, int dst, std::size_t bytes) const = 0;

  /// Sum over all other ranks of the zero-byte message time from `rank` -
  /// the latency a dense all-to-all pays even for empty blocks. The default
  /// evaluates p2p_time O(nranks) times; models override with closed forms
  /// so simulating very wide communicators stays cheap.
  virtual double dense_exchange_latency(int rank, int nranks) const;

  /// Time the SENDER's NIC is busy injecting a message - charged to the
  /// sender's clock, which serializes a rank that talks to many partners
  /// (e.g. the single-process initial distribution of Fig. 6).
  virtual double injection_time(int src, int dst, std::size_t bytes) const {
    (void)src;
    (void)dst;
    (void)bytes;
    return 0.0;
  }

  /// Effective seconds per byte a rank pays on top during a DENSE all-to-all
  /// exchange (fabric contention: every rank sends at once and the bisection
  /// is shared). Applied to the rank's total send volume.
  virtual double dense_exchange_byte_time(int nranks) const {
    (void)nranks;
    return 0.0;
  }

  virtual std::string name() const = 0;
};

/// Zero-cost network; used by unit tests where only correctness matters.
class IdealNetwork final : public NetworkModel {
 public:
  double p2p_time(int, int, std::size_t) const override { return 0.0; }
  std::string name() const override { return "ideal"; }
};

/// Uniform-latency switched fabric (JuRoPA-like). Every pair of distinct
/// ranks is one switch traversal apart; neighbor communication has no
/// advantage over communication with a distant rank.
class SwitchedNetwork final : public NetworkModel {
 public:
  /// Defaults approximate QDR InfiniBand: ~1.7 us latency, ~3 GB/s per rank.
  explicit SwitchedNetwork(double latency = 1.7e-6,
                           double byte_time = 1.0 / 3.0e9);

  double p2p_time(int src, int dst, std::size_t bytes) const override;
  double dense_exchange_latency(int rank, int nranks) const override;
  double injection_time(int src, int dst, std::size_t bytes) const override;
  double dense_exchange_byte_time(int nranks) const override;
  std::string name() const override { return "switched"; }

 private:
  double latency_;
  double byte_time_;
};

/// k-dimensional torus (Juqueen-like). Ranks are mapped to torus coordinates
/// row-major; the latency grows with the hop count and a fraction of the
/// per-byte cost is paid per hop (links are traversed cut-through, but
/// intermediate links are still occupied).
class TorusNetwork final : public NetworkModel {
 public:
  /// `dims` must multiply to the number of ranks the model is used with.
  /// Defaults approximate Blue Gene/Q: 0.7 us base latency, ~45 ns per hop,
  /// ~1.8 GB/s link bandwidth, 8% of the byte cost repeated per extra hop.
  explicit TorusNetwork(std::vector<int> dims, double base_latency = 0.7e-6,
                        double hop_latency = 4.5e-8,
                        double byte_time = 1.0 / 1.8e9,
                        double per_hop_byte_factor = 0.08);

  double p2p_time(int src, int dst, std::size_t bytes) const override;
  double dense_exchange_latency(int rank, int nranks) const override;
  double injection_time(int src, int dst, std::size_t bytes) const override;
  double dense_exchange_byte_time(int nranks) const override;
  std::string name() const override;

  /// Torus hop distance between two ranks.
  int hops(int src, int dst) const;

  const std::vector<int>& dims() const { return dims_; }

  /// Factor a rank count into a near-cubic torus shape with `ndims` axes.
  static std::vector<int> balanced_dims(int nranks, int ndims);

 private:
  std::vector<int> dims_;
  double base_latency_;
  double hop_latency_;
  double byte_time_;
  double per_hop_byte_factor_;
};

}  // namespace sim
