// Shared declarations of the workload benchmark (see README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "domain/box.hpp"
#include "md/system.hpp"
#include "sim/network.hpp"

namespace perfbench {

/// One named benchmark workload: every field maps onto a public config field
/// of md::SystemConfig, md::SimulationConfig or the fcs handle.
struct Workload {
  std::string name;
  std::string solver;  // "fmm" | "pm"
  bool torus = false;  // torus (Juqueen-like) instead of switched network
  int nranks = 1;
  std::size_t n = 0;   // global particle count
  md::InitialDistribution dist = md::InitialDistribution::kRandom;
  bool resort = false;    // method B
  bool max_move = false;  // method B + max-movement
  double step = 0.1;      // surrogate displacement per MD step
  std::size_t extra_fields = 0;  // extra vec3 payload fields
  int ckpt_interval = 0;
  int steps = 1;          // MD steps S of one measured run
};

/// The paper's benchmark box: cubic, 248^3, fully periodic.
domain::Box paper_box();

/// PM real-space cutoff for `nranks`: the paper's 4.8, shrunk so the halo
/// fits one subdomain of the dims_create process grid.
double pm_cutoff(int nranks);

/// The workload's network model: Juqueen-like torus or JuRoPA-like switch.
std::shared_ptr<const sim::NetworkModel> network_of(const Workload& w);

/// Engine fiber stack size of every run.
inline constexpr std::size_t kStackBytes = 256 * 1024;

/// Host wall seconds on a monotonic clock.
double host_now();

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> v);

/// Host-speed probe: milliseconds of a fixed single-threaded CPU kernel
/// (sort of 2^20 pseudo-random keys), median of `reps` timings.
double calib_ms(int reps = 3);

/// Host-time metrics are scaled to a reference host on which calib_ms()
/// reads this value: reported = measured * kCalibRefMs / probe, with the
/// probe timed next to the measurement. The shared host drifts by 10-20 %
/// over minutes and the probe drifts with it, so the scaled figures are
/// steadier than raw wall time; raw samples are printed beside them.
inline constexpr double kCalibRefMs = 100.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Host cost of each layer, timed on isolated calls to the layer's public
/// functions with inputs shaped like workload `w` (P, N, partner pattern,
/// payload field count). Values are raw host time.
std::vector<Metric> host_layer_metrics(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
