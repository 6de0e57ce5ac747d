// Host cost per layer, from isolated calls.
//
// Every simulated rank runs on one OS thread, so a host timer wrapped around
// a communicating call on one rank would also time whatever the scheduler
// runs on the other ranks meanwhile. Each layer is therefore timed alone:
// communicating layers in an engine whose rank body makes only that call
// (minus the cost of spawning the same engine with an empty body), local
// kernels directly on one shard per rank. The shapes follow the workload:
// its rank count P, particle count N, partner pattern and payload fields.
#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <numeric>

#include "domain/cart_grid.hpp"
#include "domain/morton.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "perfbench.hpp"
#include "sim/engine.hpp"
#include "sortlib/local_sort.hpp"
#include "store/particle_store.hpp"
#include "support/rng.hpp"

namespace perfbench {

// Results of timed kernels are folded in here so they cannot be optimized
// away; external linkage keeps the compiler from dropping the stores.
std::uint64_t g_sink = 0;

namespace {

/// A particle record as the solvers redistribute it: position, charge and
/// a 64-bit sort key.
struct Record {
  domain::Vec3 pos;
  double q = 0.0;
  std::uint64_t key = 0;
};

double engine_seconds(const Workload& w,
                      const std::function<void(sim::RankCtx&)>& body) {
  sim::EngineConfig cfg;
  cfg.nranks = w.nranks;
  cfg.network = network_of(w);
  cfg.stack_bytes = kStackBytes;
  const double t0 = host_now();
  {
    sim::Engine engine(cfg);
    engine.run(body);
  }
  return host_now() - t0;
}

template <class Fn>
double median_of(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return median(std::move(v));
}

std::size_t share(std::size_t n, int nranks, int rank) {
  const std::size_t p = static_cast<std::size_t>(nranks);
  const std::size_t r = static_cast<std::size_t>(rank);
  return n / p + (r < n % p ? 1 : 0);
}

/// Uniform random positions in the box: one shard of N/P per rank.
std::vector<std::vector<domain::Vec3>> position_shards(const Workload& w,
                                                       std::uint64_t seed) {
  const domain::Box box = paper_box();
  std::vector<std::vector<domain::Vec3>> shards(
      static_cast<std::size_t>(w.nranks));
  for (int r = 0; r < w.nranks; ++r) {
    fcs::Rng rng = fcs::Rng(seed).stream(static_cast<std::uint64_t>(r));
    auto& s = shards[static_cast<std::size_t>(r)];
    s.resize(share(w.n, w.nranks, r));
    for (auto& p : s)
      p = {box.offset().x + rng.uniform() * box.extent().x,
           box.offset().y + rng.uniform() * box.extent().y,
           box.offset().z + rng.uniform() * box.extent().z};
  }
  return shards;
}

domain::CartGrid process_grid(int nranks) {
  const std::vector<int> d = mpi::dims_create(nranks, 3);
  return domain::CartGrid(paper_box(), {d[0], d[1], d[2]});
}

/// The up to 26 distinct neighbours of `rank` on the periodic process grid.
std::vector<int> grid_neighbors(const domain::CartGrid& grid, int rank) {
  const std::array<int, 3> c = grid.coords_of_rank(rank);
  std::vector<int> out;
  for (int dx = -1; dx <= 1; ++dx)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dz = -1; dz <= 1; ++dz) {
        const int nb = grid.rank_of_coords({c[0] + dx, c[1] + dy, c[2] + dz});
        if (nb >= 0 && nb != rank) out.push_back(nb);
      }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Record> records(std::size_t n, int rank) {
  std::vector<Record> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i].key = (static_cast<std::uint64_t>(rank) << 32) | i;
  return v;
}

}  // namespace

double calib_ms(int reps) {
  return median_of(reps, [] {
    std::vector<std::uint64_t> keys(std::size_t{1} << 20);
    std::uint64_t state = 0x5eed;
    for (auto& k : keys) k = fcs::splitmix64(state);
    const double t0 = host_now();
    std::sort(keys.begin(), keys.end());
    const double ms = (host_now() - t0) * 1e3;
    g_sink += keys[keys.size() / 2];
    return ms;
  });
}

std::vector<Metric> host_layer_metrics(const Workload& w,
                                       std::uint64_t seed) {
  std::vector<Metric> out;
  const int p = w.nranks;
  const domain::Box box = paper_box();
  const domain::CartGrid grid = process_grid(p);

  // sim: fiber spawn + scheduling of an empty rank body.
  const double spawn_s = median_of(5, [&] {
    return engine_seconds(w, [](sim::RankCtx&) {});
  });
  out.push_back({"sim.host_spawn_us_per_rank", spawn_s / p * 1e6, "us"});

  // sim: small point-to-point messages, each rank to `k` partners (every
  // other rank on the switched workloads, the 26 grid neighbours' count on
  // the torus). Rounds repeat until ~2e5 messages dilute the spawn cost.
  {
    const int k = w.torus ? std::min(26, p - 1) : p - 1;
    const int rounds = std::max(1, 200000 / std::max(1, p * k));
    const double total = median_of(3, [&] {
      return engine_seconds(w, [&](sim::RankCtx& ctx) {
        const int r = ctx.rank();
        std::array<std::byte, 64> msg{};
        for (int round = 0; round < rounds; ++round) {
          for (int j = 1; j <= k; ++j)
            ctx.send((r + j) % p, 7, msg.data(), msg.size());
          for (int j = 1; j <= k; ++j) ctx.recv((r - j + p) % p, 7);
        }
      });
    });
    const double msgs = static_cast<double>(p) * k * rounds;
    out.push_back({"sim.host_ns_per_msg",
                   std::max(0.0, total - spawn_s) / msgs * 1e9, "ns"});
  }

  // minimpi: one dense alltoallv of N/P particle records per rank, spread
  // evenly over all P destinations (a random layout's restore).
  {
    const double total = median_of(3, [&] {
      return engine_seconds(w, [&](sim::RankCtx& ctx) {
        mpi::Comm comm = mpi::Comm::world(ctx);
        const std::size_t n = share(w.n, p, comm.rank());
        const std::vector<Record> data = records(n, comm.rank());
        std::vector<std::size_t> counts(static_cast<std::size_t>(p));
        for (int d = 0; d < p; ++d)
          counts[static_cast<std::size_t>(d)] = share(n, p, d);
        std::vector<std::size_t> recv_counts;
        g_sink += comm.alltoallv(data.data(), counts, recv_counts).size();
      });
    });
    out.push_back({"minimpi.host_alltoallv_ms",
                   std::max(0.0, total - spawn_s) * 1e3, "ms"});
  }

  // minimpi: one sparse exchange over the process-grid neighbours, each
  // rank shipping an eighth of its N/P records split evenly among them.
  {
    const double total = median_of(3, [&] {
      return engine_seconds(w, [&](sim::RankCtx& ctx) {
        mpi::Comm comm = mpi::Comm::world(ctx);
        const std::vector<int> nbs = grid_neighbors(grid, comm.rank());
        const std::size_t n = share(w.n, p, comm.rank()) / 8;
        const std::vector<Record> data = records(n, comm.rank());
        std::vector<std::size_t> counts(static_cast<std::size_t>(p), 0);
        const int nn = static_cast<int>(nbs.size());
        for (int i = 0; i < nn; ++i)
          counts[static_cast<std::size_t>(nbs[static_cast<std::size_t>(i)])] =
              share(n, nn, i);
        if (nbs.empty()) counts[static_cast<std::size_t>(comm.rank())] = n;
        std::vector<std::size_t> recv_counts;
        g_sink +=
            comm.sparse_alltoallv(data.data(), counts, recv_counts).size();
      });
    });
    out.push_back({"minimpi.host_sparse_ms",
                   std::max(0.0, total - spawn_s) * 1e3, "ms"});
  }

  const auto shards = position_shards(w, seed);

  // sortlib: local sort of every rank's N/P records by Morton key.
  {
    std::vector<std::vector<Record>> master(shards.size());
    for (std::size_t r = 0; r < shards.size(); ++r) {
      master[r].resize(shards[r].size());
      for (std::size_t i = 0; i < shards[r].size(); ++i)
        master[r][i] = {shards[r][i], 1.0,
                        domain::morton_key(box, domain::kMaxMortonLevel,
                                           shards[r][i])};
    }
    const double ms = median_of(3, [&] {
      std::vector<std::vector<Record>> work = master;
      const double t0 = host_now();
      for (auto& s : work)
        sortlib::sort_by_key(s, [](const Record& rec) { return rec.key; });
      const double dt = host_now() - t0;
      for (const auto& s : work)
        if (!s.empty()) g_sink += s.front().key;
      return dt * 1e3;
    });
    out.push_back({"sortlib.host_sort_ms", ms, "ms"});
  }

  // domain: batched Morton encoding of every rank's N/P positions.
  {
    std::vector<std::uint64_t> keys(share(w.n, p, 0));
    const double ms = median_of(5, [&] {
      const double t0 = host_now();
      for (const auto& s : shards) {
        domain::morton_keys_batch(box, domain::kMaxMortonLevel, s.data(),
                                  s.size(), keys.data());
        g_sink += s.empty() ? 0 : keys[0];
      }
      return (host_now() - t0) * 1e3;
    });
    out.push_back({"domain.host_morton_ms", ms, "ms"});
  }

  // domain: ghost images of all N particles on the process grid, with the
  // PM cutoff of this rank count as the halo.
  {
    const double halo = pm_cutoff(p);
    const double ms = median_of(3, [&] {
      const double t0 = host_now();
      std::size_t ghosts = 0;
      for (const auto& s : shards)
        for (const auto& pos : s) ghosts += grid.ghost_images(pos, halo).size();
      g_sink += ghosts;
      return (host_now() - t0) * 1e3;
    });
    out.push_back({"domain.host_ghost_ms", ms, "ms"});
  }

  // store: gather-permute of every rank's N/P rows (positions, velocities,
  // accelerations, keys and the workload's extra vec3 fields).
  {
    std::vector<store::ParticleStore> stores(shards.size());
    std::vector<std::vector<std::uint32_t>> orders(shards.size());
    for (std::size_t r = 0; r < shards.size(); ++r) {
      for (std::size_t f = 0; f < w.extra_fields; ++f)
        stores[r].register_field("extra" + std::to_string(f),
                                 store::FieldType::kVec3);
      stores[r].resize(shards[r].size());
      std::copy(shards[r].begin(), shards[r].end(), stores[r].pos());
      orders[r].resize(shards[r].size());
      std::iota(orders[r].begin(), orders[r].end(), 0u);
      fcs::Rng rng = fcs::Rng(seed ^ 0x5707e).stream(r);
      std::shuffle(orders[r].begin(), orders[r].end(), rng);
    }
    const double ms = median_of(3, [&] {
      const double t0 = host_now();
      for (std::size_t r = 0; r < stores.size(); ++r)
        stores[r].permute(orders[r].data(), orders[r].size());
      return (host_now() - t0) * 1e3;
    });
    out.push_back({"store.host_permute_ms", ms, "ms"});
  }

  // md: deterministic system generation on every rank.
  {
    md::SystemConfig sys;
    sys.box = box;
    sys.n_global = w.n;
    sys.seed = seed;
    sys.distribution = w.dist;
    const double total = median_of(3, [&] {
      return engine_seconds(w, [&](sim::RankCtx& ctx) {
        mpi::Comm comm = mpi::Comm::world(ctx);
        g_sink += md::generate_system(comm, sys).size();
      });
    });
    out.push_back(
        {"md.host_generate_s", std::max(0.0, total - spawn_s), "s"});
  }
  return out;
}

}  // namespace perfbench
