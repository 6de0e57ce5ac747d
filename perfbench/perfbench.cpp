// Workload benchmark of the coupled particle code: runs one named workload
// through the public sim / md / fcs APIs, checks its outputs, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as one JSON line. See README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--describe <source version>]
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fcs/fcs.hpp"
#include "md/simulation.hpp"
#include "minimpi/cart.hpp"
#include "obs/critpath.hpp"
#include "perfbench.hpp"
#include "pm/pm_solver.hpp"
#include "redist/conserve.hpp"
#include "sim/engine.hpp"

extern char** environ;

namespace perfbench {

domain::Box paper_box() {
  return domain::Box({0, 0, 0}, {248, 248, 248}, {true, true, true});
}

double pm_cutoff(int nranks) {
  const std::vector<int> dims = mpi::dims_create(nranks, 3);
  return std::min(4.8, 0.9 * paper_box().extent().x / dims[0]);
}

std::shared_ptr<const sim::NetworkModel> network_of(const Workload& w) {
  if (w.torus)
    return std::make_shared<sim::TorusNetwork>(
        sim::TorusNetwork::balanced_dims(w.nranks, 3));
  return std::make_shared<sim::SwitchedNetwork>();
}

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

namespace {

// --- workloads -------------------------------------------------------------

// Why each workload exists is documented in README.md. `tiny` shrinks N, P
// and S for the self-test; the shape (solver, network, method, payload,
// checkpointing) stays.
Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  w.n = tiny ? 8000 : 262144;  // cubes: the lattice generator keeps m^3
  if (name == "fmm-restore-dense") {
    w.solver = "fmm";
    w.nranks = tiny ? 16 : 256;
    w.dist = md::InitialDistribution::kRandom;
    w.step = 0.1;
    w.steps = tiny ? 2 : 6;
  } else if (name == "pm-torus-neighbor") {
    w.solver = "pm";
    w.torus = true;
    w.nranks = tiny ? 64 : 1024;
    w.dist = md::InitialDistribution::kProcessGrid;
    w.resort = true;
    w.max_move = true;
    w.step = 1.0;
    w.extra_fields = 2;
    w.steps = tiny ? 2 : 6;
  } else if (name == "pm-resort-ckpt") {
    w.solver = "pm";
    w.nranks = tiny ? 8 : 64;
    w.dist = md::InitialDistribution::kRandom;
    w.resort = true;
    w.step = 0.1;
    w.extra_fields = 4;
    w.ckpt_interval = 5;
    w.steps = tiny ? 5 : 15;
  } else {
    w.nranks = 0;
  }
  return w;
}

const char* const kWorkloads[] = {"fmm-restore-dense", "pm-torus-neighbor",
                                  "pm-resort-ckpt"};

const char* dist_name(md::InitialDistribution d) {
  switch (d) {
    case md::InitialDistribution::kRandom: return "random";
    case md::InitialDistribution::kProcessGrid: return "process-grid";
    default: return "other";
  }
}

// --- JSON output -----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// --- one simulation run ----------------------------------------------------

struct RankOut {
  md::LocalParticles final;          // state after the run
  std::vector<domain::Vec3> pos0;    // generated positions
  std::vector<double> q0;            // generated charges
  std::uint64_t checksum = 0;        // md's rank-local state checksum
};

struct RunOut {
  bool ok = true;
  std::string error;
  double host_s = 0.0;
  double makespan = 0.0;
  md::SimulationResult result;  // rank 0's copy (step times are max over ranks)
  std::vector<RankOut> ranks;
};

/// Run tune + initial solver run + `steps` MD steps of workload `w` on a
/// fresh engine; host seconds cover engine start-up through tear-down.
RunOut run_md(const Workload& w, std::uint64_t seed, int steps,
              std::shared_ptr<obs::Recorder> recorder) {
  RunOut out;
  out.ranks.resize(static_cast<std::size_t>(w.nranks));
  md::SystemConfig sys;
  sys.box = paper_box();
  sys.n_global = w.n;
  sys.jitter = 0.25;
  sys.seed = seed;
  sys.distribution = w.dist;

  md::SimulationConfig cfg;
  cfg.box = sys.box;
  cfg.steps = steps;
  cfg.resort = w.resort;
  cfg.exploit_max_movement = w.max_move;
  cfg.modeled_compute = true;
  cfg.surrogate_motion = true;
  cfg.surrogate_step = w.step;
  cfg.surrogate_seed = seed;
  cfg.extra_vec3_fields = w.extra_fields;
  cfg.checkpoint_interval = w.ckpt_interval;

  sim::EngineConfig ecfg;
  ecfg.nranks = w.nranks;
  ecfg.stack_bytes = kStackBytes;
  ecfg.network = network_of(w);
  ecfg.recorder = std::move(recorder);

  const double t0 = host_now();
  try {
    sim::Engine engine(ecfg);
    engine.run([&](sim::RankCtx& ctx) {
      mpi::Comm comm = mpi::Comm::world(ctx);
      md::LocalParticles particles = md::generate_system(comm, sys);
      RankOut& ro = out.ranks[static_cast<std::size_t>(ctx.rank())];
      ro.pos0 = particles.pos;
      ro.q0 = particles.q;
      fcs::Fcs handle(comm, w.solver);
      handle.set_common(sys.box);
      handle.set_accuracy(1e-3);
      if (w.solver == "pm") {
        auto& pm_solver = dynamic_cast<pm::PmSolver&>(handle.solver());
        pm_solver.set_cutoff(pm_cutoff(w.nranks));
        pm_solver.set_mesh(64);
      }
      md::SimulationResult res =
          md::run_simulation(comm, handle, particles, cfg);
      ro.checksum = res.state_checksum;
      ro.final = std::move(particles);
      if (ctx.rank() == 0) out.result = std::move(res);
    });
    out.makespan = engine.makespan();
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  out.host_s = host_now() - t0;
  return out;
}

// --- correctness checks (host side, after Engine::run) ---------------------

/// What later runs of the same seed and step count must reproduce exactly.
struct Reference {
  std::uint64_t checksum = 0;
  double makespan = 0.0;
  std::vector<double> step_totals;
};

struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) failures.push_back(what);
    }
  }
};

// Checks per run, counted as failed all at once when the run throws:
// count, charge, positions, velocities, accelerations, payload,
// reproduced checksum, reproduced virtual times.
constexpr int kChecksPerRun = 8;

bool finite(const domain::Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

std::uint64_t csum_vec3(const std::vector<domain::Vec3>& v) {
  return redist::content_checksum(v.data(), v.size(), sizeof(domain::Vec3));
}

/// Check one run; returns its reference values. `ref` (may be null) holds the
/// values of an earlier run with the same seed and step count.
Reference check_run(const Workload& w, const RunOut& r, const Reference* ref,
                    const std::string& label, Checks& c) {
  Reference mine;
  if (!r.ok) {
    c.attempted += kChecksPerRun;
    c.failed += kChecksPerRun;
    c.failures.push_back(label + ": threw: " + r.error);
    return mine;
  }
  const domain::Box box = paper_box();
  const domain::Vec3 lo = box.offset();
  const domain::Vec3 hi = box.offset() + box.extent();
  std::size_t count = 0;
  std::size_t count0 = 0;
  double q = 0.0;
  double q0 = 0.0;
  bool sizes_ok = true;
  bool pos_ok = true;
  bool vel_ok = true;
  bool acc_ok = true;
  std::uint64_t payload = 0;
  std::uint64_t payload0 = 0;
  for (const RankOut& ro : r.ranks) {
    const md::LocalParticles& p = ro.final;
    count += p.size();
    count0 += ro.pos0.size();
    sizes_ok = sizes_ok && p.vel.size() == p.size() &&
               p.acc.size() == p.size() && p.q.size() == p.size();
    for (double x : p.q) q += x;
    for (double x : ro.q0) q0 += x;
    for (const auto& x : p.pos)
      pos_ok = pos_ok && finite(x) && x.x >= lo.x && x.y >= lo.y &&
               x.z >= lo.z && x.x <= hi.x && x.y <= hi.y && x.z <= hi.z;
    for (const auto& x : p.vel) vel_ok = vel_ok && finite(x);
    for (const auto& x : p.acc) acc_ok = acc_ok && finite(x);
    // The state checksum is a wrap-around sum of per-element hashes over
    // positions, charges, velocities, accelerations and payload, so the
    // payload's share is what remains after the visible fields. The payload
    // starts as pos * (1 + f) and is only ever moved, so its global sum must
    // equal that of the generated positions scaled the same way.
    payload += ro.checksum - csum_vec3(p.pos) -
               redist::content_checksum(p.q.data(), p.q.size(),
                                        sizeof(double)) -
               csum_vec3(p.vel) - csum_vec3(p.acc);
    for (std::size_t f = 0; f < w.extra_fields; ++f)
      for (const auto& x : ro.pos0) {
        const domain::Vec3 e = x * (1.0 + static_cast<double>(f));
        payload0 += redist::content_checksum(&e, 1, sizeof(e));
      }
    mine.checksum += ro.checksum;
  }
  mine.makespan = r.makespan;
  for (const auto& t : r.result.step_times) mine.step_totals.push_back(t.total);

  c.expect(count == count0 && count0 == w.n && sizes_ok,
           label + ": particle count not conserved");
  c.expect(std::abs(q - q0) <= 1e-9 * static_cast<double>(w.n),
           label + ": net charge not conserved");
  c.expect(pos_ok, label + ": position not finite or outside the box");
  c.expect(vel_ok, label + ": velocity not finite");
  c.expect(acc_ok, label + ": acceleration not finite");
  c.expect(payload == payload0, label + ": payload not conserved");
  c.expect(ref == nullptr || ref->checksum == mine.checksum,
           label + ": state checksum differs from the first run");
  c.expect(ref == nullptr || (ref->makespan == mine.makespan &&
                              ref->step_totals == mine.step_totals),
           label + ": virtual times differ from the first run");
  return mine;
}

/// Method B + max-movement must never fall back to the dense exchange on
/// this workload (needs a recorder; counts redist.fallback over the run).
void check_fallbacks(const Workload& w, const obs::Recorder& rec,
                     const std::string& label, Checks& c) {
  if (!w.max_move) return;
  const auto red = rec.reduce_counters();
  const auto it = red.find("redist.fallback");
  const double n = it == red.end() ? 0.0 : it->second.totals.sum;
  c.expect(n == 0.0, label + ": redist.fallback = " + num(n));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double vstep_ms(const md::SimulationResult& r) {
  std::vector<double> v;
  for (std::size_t i = 1; i < r.step_times.size(); ++i)
    v.push_back(r.step_times[i].total * 1e3);
  return v.empty() ? 0.0 : median(std::move(v));
}

// --- per-layer virtual metrics from the recorder ---------------------------

class CounterView {
 public:
  CounterView(const obs::Recorder& rec, int steps)
      : red_(rec.reduce_counters()), steps_(steps) {}

  /// Sum over ranks and MD steps 1..S.
  double steps_sum(const std::vector<std::string>& names) const {
    double s = 0.0;
    for (const auto& name : names) {
      const auto it = red_.find(name);
      if (it == red_.end()) continue;
      for (const auto& [epoch, summary] : it->second.by_epoch)
        if (epoch >= 1 && epoch <= steps_) s += summary.sum;
    }
    return s;
  }
  double per_step(const std::vector<std::string>& names) const {
    return steps_sum(names) / steps_;
  }
  double run_total(const std::string& name) const {
    const auto it = red_.find(name);
    return it == red_.end() ? 0.0 : it->second.totals.sum;
  }

 private:
  std::map<std::string, obs::CounterReduction> red_;
  int steps_;
};

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Max over ranks of the virtual seconds spent in `span` after the rank's
/// first MD step began (checkpoints run between steps, outside md.step).
double span_seconds_after_first_step(const obs::Recorder& rec,
                                     const std::string& span) {
  const int span_id = rec.find_name(span);
  const int step_id = rec.find_name("md.step");
  if (span_id < 0 || step_id < 0) return 0.0;
  double worst = 0.0;
  for (int r = 0; r < rec.nranks(); ++r) {
    const auto& spans = rec.rank(r).spans();
    double first = std::numeric_limits<double>::infinity();
    for (const auto& ev : spans)
      if (ev.name_id == step_id) first = std::min(first, ev.begin);
    double s = 0.0;
    for (const auto& ev : spans)
      if (ev.name_id == span_id && ev.begin >= first) s += ev.end - ev.begin;
    worst = std::max(worst, s);
  }
  return worst;
}

std::vector<Metric> virtual_layer_metrics(const Workload& w,
                                          const obs::Recorder& rec) {
  const int s = w.steps;
  const CounterView cv(rec, s);
  const obs::CritPathReport cp = obs::build_critpath(rec);
  const obs::CritStep& tot = cp.total;
  auto phase_ms = [&](std::initializer_list<const char*> names) {
    double v = 0.0;
    for (const char* n : names) {
      const auto it = tot.phases.find(n);
      if (it != tot.phases.end()) v += it->second;
    }
    return v / s * 1e3;
  };
  double mpi_phase = 0.0;
  for (const auto& [name, secs] : tot.phases)
    if (name.rfind("mpi.", 0) == 0) mpi_phase += secs;

  const std::vector<std::string> redist_bytes = {
      "redist.dense.bytes_moved", "redist.sparse.bytes_moved",
      "redist.neighborhood.bytes_moved", "redist.fused.bytes_moved"};
  const double vsort = phase_ms({"fmm.sort", "pm.sort"});
  const double vrestore = phase_ms({"fcs.restore"});
  const double vresort = phase_ms({"fcs.resort"});

  return {
      {"sim.msgs_per_step", cv.per_step({"sim.send.msgs"}), "count"},
      {"sim.wire_mb_per_step", cv.per_step({"sim.send.bytes"}) / 1e6, "MB"},
      {"sim.vcomm_frac", ratio(tot.comm, tot.path), "frac"},
      {"minimpi.alltoallv_mb_per_step",
       cv.per_step({"mpi.alltoallv.bytes", "mpi.alltoallv_known.bytes",
                    "mpi.ialltoallv_known.bytes"}) /
           1e6,
       "MB"},
      {"minimpi.vcoll_ms", mpi_phase / s * 1e3, "ms"},
      {"minimpi.sparse_partners_per_step",
       cv.per_step({"mpi.sparse_alltoallv.partners",
                    "mpi.sparse_alltoallv_known.partners",
                    "mpi.isparse_alltoallv_known.partners"}),
       "count"},
      {"minimpi.pool_reuse_ratio",
       ratio(cv.steps_sum({"pool.reuse"}), cv.steps_sum({"pool.acquire"})),
       "frac"},
      {"minimpi.pool_allocs_per_step", cv.per_step({"pool.alloc"}), "count"},
      {"redist.mb_per_step", cv.per_step(redist_bytes) / 1e6, "MB"},
      {"redist.vfused_ms", phase_ms({"redist.exchange.fused"}), "ms"},
      {"redist.vneighborhood_ms", phase_ms({"redist.neighborhood"}), "ms"},
      {"redist.moved_frac",
       cv.per_step({"redist.dense.elements_moved",
                    "redist.sparse.elements_moved",
                    "redist.neighborhood.elements_moved"}) /
           static_cast<double>(w.n),
       "frac"},
      {"redist.fallbacks", cv.run_total("redist.fallback"), "count"},
      {"redist.ledger_ratio",
       ratio(cv.steps_sum(redist_bytes), cv.steps_sum({"sim.send.bytes"})),
       "frac"},
      {"fcs.vredist_ms", vsort + vrestore + vresort, "ms"},
      {"fcs.vsort_ms", vsort, "ms"},
      {"fcs.vrestore_ms", vrestore, "ms"},
      {"fcs.vresort_ms", vresort, "ms"},
      {"fcs.ckpt_mb_per_step", cv.per_step({"recover.ckpt.bytes"}) / 1e6,
       "MB"},
      {"fcs.vckpt_ms",
       span_seconds_after_first_step(rec, "recover.ckpt") / s * 1e3, "ms"},
      {"fmm.vcompute_ms", phase_ms({"fmm.compute"}), "ms"},
      {"pm.vcompute_ms", phase_ms({"pm.compute"}), "ms"},
      {"md.vmove_ms", phase_ms({"md.move"}), "ms"},
      {"obs.critpath_coverage", ratio(tot.path, tot.makespan), "frac"},
  };
}

// --- main program ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string describe = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--describe <version>]\nworkloads:",
               why.c_str());
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed " + val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds >= 0.0))
        usage("bad --seconds " + val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1" ? 1 : 0;
    } else if (key == "--scale") {
      if (val != "full" && val != "tiny") usage("--scale takes full or tiny");
      a.tiny = val == "tiny";
    } else if (key == "--describe") {
      a.describe = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return a;
}

/// A stray FCS_* / FIG_* knob would change what is measured: refuse.
void refuse_knobs() {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "FCS_", 4) == 0 || std::strncmp(*e, "FIG_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; unset every "
                   "FCS_* and FIG_* variable\n",
                   *e);
      std::exit(2);
    }
}

void print_manifest(const Workload& w, const Args& a, double calib) {
  std::ostringstream os;
  os << "manifest {\"workload\":" << quoted(w.name)
     << ",\"seed\":" << a.seed << ",\"seconds\":" << num(a.seconds)
     << ",\"trace\":" << a.trace << ",\"scale\":\""
     << (a.tiny ? "tiny" : "full") << "\",\"solver\":" << quoted(w.solver)
     << ",\"network\":\"" << (w.torus ? "torus" : "switched")
     << "\",\"nranks\":" << w.nranks << ",\"n\":" << w.n
     << ",\"distribution\":\"" << dist_name(w.dist) << "\",\"method\":\""
     << (w.resort ? (w.max_move ? "B+mm" : "B") : "A")
     << "\",\"surrogate_step\":" << num(w.step)
     << ",\"extra_vec3_fields\":" << w.extra_fields
     << ",\"checkpoint_interval\":" << w.ckpt_interval
     << ",\"steps\":" << w.steps << ",\"stack_bytes\":" << kStackBytes
     << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
     << ",\"describe\":" << quoted(a.describe)
     << ",\"host.calib_ms\":" << num(calib)
     << ",\"calib_ref_ms\":" << num(kCalibRefMs) << "}";
  std::printf("%s\n", os.str().c_str());
}

void print_result(const Checks& c, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\":" << (c.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << c.attempted << ",\"failed\":" << c.failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i == 0 ? "" : ",") << quoted(metrics[i].name)
       << ":{\"value\":" << num(metrics[i].value)
       << ",\"unit\":" << quoted(metrics[i].unit) << "}";
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

/// Raw host-time samples behind the medians, for inspecting the spread.
void print_samples(
    const std::vector<std::pair<std::string, std::vector<double>>>& series) {
  std::ostringstream os;
  os << "samples {";
  for (std::size_t i = 0; i < series.size(); ++i) {
    os << (i == 0 ? "" : ",") << quoted(series[i].first) << ":[";
    for (std::size_t j = 0; j < series[i].second.size(); ++j)
      os << (j == 0 ? "" : ",") << num(series[i].second[j]);
    os << "]";
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());
}

void print_checks(const Checks& c, std::uint64_t checksum, int vstep_samples) {
  std::ostringstream os;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(checksum));
  os << "checks {\"attempted\":" << c.attempted << ",\"failed\":" << c.failed
     << ",\"fail_frac\":"
     << num(ratio(static_cast<double>(c.failed),
                  static_cast<double>(c.attempted)))
     << ",\"state_checksum\":\"" << hex
     << "\",\"vstep_samples\":" << vstep_samples << ",\"failures\":[";
  for (std::size_t i = 0; i < c.failures.size(); ++i)
    os << (i == 0 ? "" : ",") << quoted(c.failures[i]);
  os << "]}";
  std::printf("%s\n", os.str().c_str());
}

/// Untraced run: end-to-end metrics. The first full run is a warm-up that
/// fixes the reference values (with a counters-only recorder, for the
/// fallback check); then a calibration probe, a set-up-only run (S = 0) and
/// a full run repeat until the time is up. Each repetition gives one set-up
/// sample and one host step sample, (full run - set-up run) / S, both scaled
/// by the probe timed just before them; the metrics are their medians.
int run_untraced(const Workload& w, const Args& a, double t_start) {
  Checks checks;
  auto counters = std::make_shared<obs::Recorder>(/*record_spans=*/false);
  RunOut first = run_md(w, a.seed, w.steps, counters);
  const Reference ref = check_run(w, first, nullptr, "warm-up run", checks);
  check_fallbacks(w, *counters, "warm-up run", checks);
  counters.reset();
  const double vstep = vstep_ms(first.result);
  const double vtts = first.makespan;
  // Read before the repetitions: their count depends on host speed, and
  // allocator fragmentation lets the peak creep up with every run.
  const double rss = peak_rss_mb();
  first = RunOut{};

  std::vector<double> calib, setup_s, full_s, setup_ref, step_ref;
  Reference ref0;
  do {
    const double c = calib_ms();
    const RunOut s0 = run_md(w, a.seed, 0, nullptr);
    const Reference r0 = check_run(w, s0, setup_s.empty() ? nullptr : &ref0,
                                   "set-up run", checks);
    if (setup_s.empty()) ref0 = r0;
    const RunOut full = run_md(w, a.seed, w.steps, nullptr);
    check_run(w, full, &ref, "full run", checks);
    const double scale = kCalibRefMs / c;
    calib.push_back(c);
    setup_s.push_back(s0.host_s);
    full_s.push_back(full.host_s);
    setup_ref.push_back(s0.host_s * scale);
    step_ref.push_back((full.host_s - s0.host_s) / w.steps * 1e3 * scale);
  } while (host_now() - t_start < a.seconds);

  print_checks(checks, ref.checksum, w.steps);
  print_samples({{"calib_ms", calib},
                 {"setup_s", setup_s},
                 {"full_run_s", full_s},
                 {"setup_s_scaled", setup_ref},
                 {"host_step_ms_scaled", step_ref}});
  print_result(checks, {
                           {"vstep_ms", vstep, "ms"},
                           {"vtts_s", vtts, "s"},
                           {"host_step_ms", median(step_ref), "ms"},
                           {"setup_s", median(setup_ref), "s"},
                           {"peak_rss_mb", rss, "MB"},
                       });
  return 0;
}

/// Traced run: per-layer metrics. Virtual ones come from a fully recorded
/// run (spans, flows, counters); host ones from isolated layer calls,
/// scaled by the calibration probe timed before and after them.
int run_traced(const Workload& w, const Args& a, double calib) {
  Checks checks;
  const RunOut plain = run_md(w, a.seed, w.steps, nullptr);
  const Reference ref = check_run(w, plain, nullptr, "untraced run", checks);

  std::vector<Metric> metrics;
  {
    auto rec = std::make_shared<obs::Recorder>(/*record_spans=*/true);
    const RunOut traced = run_md(w, a.seed, w.steps, rec);
    check_run(w, traced, &ref, "traced run", checks);
    check_fallbacks(w, *rec, "traced run", checks);
    if (traced.ok) metrics = virtual_layer_metrics(w, *rec);
    metrics.push_back(
        {"obs.trace_overhead", ratio(traced.host_s, plain.host_s), "frac"});
  }
  const double c_before = calib_ms();
  const auto host = host_layer_metrics(w, a.seed);
  const double c_after = calib_ms();
  const double scale = kCalibRefMs / (0.5 * (c_before + c_after));
  for (Metric m : host) {
    m.value *= scale;
    metrics.push_back(m);
  }
  metrics.push_back({"host.calib_ms", calib, "ms"});
  print_checks(checks, ref.checksum, w.steps);
  print_samples({{"calib_ms", {calib, c_before, c_after}}});
  print_result(checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const double t_start = host_now();
  const Args args = parse_args(argc, argv);
  refuse_knobs();
  const Workload w = make_workload(args.workload, args.tiny);
  if (w.nranks == 0) usage("unknown workload " + args.workload);

  const double calib = calib_ms();
  print_manifest(w, args, calib);
  std::fflush(stdout);
  return args.trace == 1 ? run_traced(w, args, calib)
                         : run_untraced(w, args, t_start);
}
