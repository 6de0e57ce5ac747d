#include "pm/pm_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <unordered_map>

#include "domain/linked_cells.hpp"
#include "lb/lb.hpp"
#include "lb/weighted_split.hpp"
#include "minimpi/cart.hpp"
#include "pm/charge_grid.hpp"
#include "redist/neighborhood.hpp"
#include "redist/resort.hpp"
#include "sortlib/local_sort.hpp"

namespace pm {

using domain::Vec3;

void PmSolver::set_box(const domain::Box& box) {
  FCS_CHECK(box.fully_periodic(),
            "the pm solver requires a fully periodic box");
  box_ = box;
  tuned_ = false;
}

void PmSolver::set_cutoff(double rcut) {
  FCS_CHECK(rcut > 0, "cutoff must be positive");
  rcut_ = rcut;
  tuned_ = false;
}

void PmSolver::set_mesh(std::size_t mesh) {
  FCS_CHECK(mesh == 0 || is_pow2(mesh), "mesh size must be a power of two");
  mesh_override_ = mesh;
  tuned_ = false;
}

void PmSolver::tune(const mpi::Comm& comm,
                    const std::vector<domain::Vec3>& positions,
                    const std::vector<double>& charges) {
  FCS_CHECK(positions.size() == charges.size(), "positions/charges mismatch");
  const std::uint64_t n_total = comm.allreduce(
      static_cast<std::uint64_t>(positions.size()), mpi::OpSum{});
  const double lmin =
      std::min({box_.extent().x, box_.extent().y, box_.extent().z});
  double rcut = rcut_;
  if (rcut <= 0) {
    // Aim for O(100) near-field partners per particle in a homogeneous
    // system, bounded by half the box.
    const double density = static_cast<double>(n_total) / box_.volume();
    rcut = std::cbrt(75.0 / (4.0 / 3.0 * std::numbers::pi * density));
    rcut = std::min(rcut, 0.45 * lmin);
  }
  FCS_CHECK(rcut < 0.5 * lmin, "cutoff must be below half the box extent");
  params_ = tune_ewald(box_, rcut, accuracy_);

  // Mesh: resolve the Gaussians; ~2 alpha L / pi modes needed per axis for
  // the Gaussian tail, doubled for the CIC window's accuracy.
  for (int d = 0; d < 3; ++d) {
    std::size_t m = 8;
    const double L = box_.extent()[d];
    const double needed = 2.0 * static_cast<double>(params_.kmax) * L / lmin;
    while (m < 2 * needed && m < 512) m <<= 1;
    mesh_[static_cast<std::size_t>(d)] = mesh_override_ ? mesh_override_ : m;
  }
  tuned_ = true;
}

fcs::SolveResult PmSolver::solve(const mpi::Comm& comm,
                                 const std::vector<domain::Vec3>& positions,
                                 const std::vector<double>& charges,
                                 const fcs::SolveOptions& options) {
  return finish_solve(comm, begin_solve(comm, positions, charges, options),
                      options);
}

fcs::SolveStage PmSolver::begin_solve(const mpi::Comm& comm,
                                      const std::vector<domain::Vec3>& positions,
                                      const std::vector<double>& charges,
                                      const fcs::SolveOptions& options) {
  FCS_CHECK(tuned_, "pm solver: call tune() before solve()");
  FCS_CHECK(positions.size() == charges.size(), "positions/charges mismatch");
  sim::RankCtx& ctx = comm.ctx();
  fcs::SolveStage stage;
  auto st = std::make_shared<StageState>();
  fcs::SolveResult& result = stage.partial;
  const double t0 = ctx.now();

  // --- Sort phase: redistribute to the Cartesian grid, create ghosts -------
  fcs::PhaseScope sort_phase(ctx, result.times, &fcs::PhaseTimes::sort,
                             "pm.sort");
  const std::vector<int> cdims = mpi::dims_create(comm.size(), 3);
  mpi::CartComm cart(comm, cdims, {true, true, true});
  const double halo = params_.rcut;

  // Dynamic load balancing: recut the grid's per-axis planes by the cost
  // model when the balancer asks for it, otherwise keep the current plan
  // (uniform grid when load balancing is off). The minimum cell width keeps
  // the ghost halo inside the narrowest cell, so the neighborhood exchange
  // machinery below works unchanged on the recut grid.
  lb::Balancer* const bal =
      options.balancer != nullptr && options.balancer->active()
          ? options.balancer
          : nullptr;
  std::vector<domain::Vec3> wrapped(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    wrapped[i] = box_.wrap(positions[i]);
  domain::CartGrid grid(box_, {cdims[0], cdims[1], cdims[2]});
  if (bal != nullptr) {
    if (!bal->has_cuts() || bal->should_rebalance()) {
      std::array<double, 3> min_frac;
      for (int d = 0; d < 3; ++d)
        min_frac[static_cast<std::size_t>(d)] =
            halo * (1.0 + 1e-9) / box_.extent()[d];
      bal->set_cuts(lb::weighted_axis_cuts(comm, box_, wrapped, bal->weight(),
                                           {cdims[0], cdims[1], cdims[2]},
                                           min_frac));
      bal->note_rebalanced();
      obs::count(ctx.obs(), "lb.plans", 1.0);
    }
    grid = domain::CartGrid(box_, {cdims[0], cdims[1], cdims[2]},
                            bal->cuts());
  }

  // Checked once per grid, before any exchange: a halo wider than the
  // narrowest cell fails on every rank alike, including ranks that hold no
  // particles.
  const double min_ext = grid.check_halo(halo);

  // Method B with max movement (paper Sect. III-B): when the input is in
  // solver order and the reported bound plus the ghost halo fits within one
  // subdomain, every copy can only target this rank or a direct grid
  // neighbor, so point-to-point neighborhood communication replaces the
  // collective all-to-all.
  const std::vector<int> neighbors = cart.neighbors(1);
  const bool bound_claims_safe =
      options.input_in_solver_order && options.max_particle_move >= 0.0 &&
      options.max_particle_move + halo <= min_ext;
  // Plan override (src/plan): an explicit exchange choice replaces the bound
  // heuristic. A forced neighborhood exchange still runs the target scan
  // below - the planner can route a degenerate step here (zero-particle
  // ranks, movement spanning more than one neighbor shell), and that must
  // degrade to the dense all-to-all, never trip the non-neighbor check
  // inside neighborhood_alltoallv.
  bool want_neighborhood = bound_claims_safe;
  if (options.plan != nullptr &&
      options.plan->exchange != plan::Exchange::kAuto)
    want_neighborhood =
        options.plan->exchange == plan::Exchange::kNeighborhood;

  // Expand each particle into its owner copy plus explicit ghost copies
  // with image-shifted positions. Ghost copies carry the paper's "invalid
  // index" marker (high bit of the origin index) so the receiver can tell
  // them apart. The same pass verifies the neighborhood claim against the
  // actual copy targets: a particle that moved beyond the reported bound
  // may target a non-neighbor rank, and trusting the bound would strand it.
  // On a violation the step degrades gracefully to the dense all-to-all
  // (counted as redist.fallback) instead of losing particles or aborting.
  constexpr std::uint64_t kGhostBit = 1ULL << 63;
  std::vector<PmParticle> plain;
  std::vector<int> targets;
  plain.reserve(2 * positions.size());
  targets.reserve(2 * positions.size());
  bool targets_ok = want_neighborhood;
  // The neighborhood exchange's partners: this rank and its neighbors, in
  // ascending rank. The check below records each copy's partner slot, so
  // the exchange counts per slot without any per-rank array.
  std::vector<int> slot_rank;
  std::vector<std::uint32_t> copy_slot;
  if (targets_ok) {
    slot_rank = neighbors;
    slot_rank.insert(
        std::lower_bound(slot_rank.begin(), slot_rank.end(), comm.rank()),
        comm.rank());
    copy_slot.reserve(2 * positions.size());
  }
  auto add_copy = [&](const PmParticle& particle, int target) {
    plain.push_back(particle);
    targets.push_back(target);
    if (!targets_ok) return;
    const auto it =
        std::lower_bound(slot_rank.begin(), slot_rank.end(), target);
    if (it == slot_rank.end() || *it != target) {
      targets_ok = false;
      return;
    }
    copy_slot.push_back(static_cast<std::uint32_t>(it - slot_rank.begin()));
  };
  domain::CartGrid::Placement placed;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::uint64_t origin = redist::make_index(comm.rank(), i);
    grid.place(wrapped[i], halo, placed);
    add_copy(PmParticle{wrapped[i], charges[i], origin}, placed.owner);
    for (int k = 0; k < placed.nimages; ++k) {
      const auto& img = placed.images[static_cast<std::size_t>(k)];
      add_copy(PmParticle{wrapped[i] + img.shift, charges[i],
                          origin | kGhostBit},
               img.rank);
    }
  }
  if (want_neighborhood && !targets_ok)
    obs::count(ctx.obs(), "redist.fallback", 1.0);
  const bool neighborhood_ok =
      comm.allreduce(targets_ok ? 1 : 0, mpi::OpMin{}) == 1;
  last_used_neighborhood_ = neighborhood_ok;

  // Carried column exchange (src/store) is only possible on the collective
  // branch: the neighborhood path would need per-edge column packets. The
  // gate is rank-consistent because neighborhood_ok is allreduced and the
  // carry set's shape is symmetric across ranks.
  const bool carrying = !neighborhood_ok && options.carry != nullptr &&
                        !options.carry->empty();
  std::vector<PmParticle> received;
  if (neighborhood_ok) {
    // Partner list over the slots: count, prefix-sum, then pack
    // destination-major (each slot's offset is its cursor, rewound after).
    mpi::PartnerList sends(slot_rank.size());
    for (std::size_t k = 0; k < slot_rank.size(); ++k)
      sends[k].rank = slot_rank[k];
    for (const std::uint32_t k : copy_slot) ++sends[k].count;
    std::size_t n_copies = 0;
    for (mpi::Partner& e : sends) {
      e.offset = n_copies;
      n_copies += e.count;
    }
    // Destination-major packing staged in the communicator's buffer pool -
    // steady-state neighborhood steps reuse the same scratch allocation.
    mpi::PooledBuffer packed(comm.pool(), n_copies * sizeof(PmParticle),
                             ctx.obs());
    PmParticle* const pk = reinterpret_cast<PmParticle*>(packed.data());
    for (std::size_t i = 0; i < plain.size(); ++i)
      pk[sends[copy_slot[i]].offset++] = plain[i];
    for (mpi::Partner& e : sends) e.offset -= e.count;
    mpi::PartnerList recvs;
    received =
        redist::neighborhood_alltoallv(comm, neighbors, pk, sends, recvs);
  } else if (carrying) {
    // Ship the store's payload columns inside the same alltoallv as the
    // particle records. Each copy (owner or ghost) carries the column row of
    // its source particle (col_src); the owned-first truncation below drops
    // the ghost duplicates again. The stable destination-major slot order
    // matches ExchangePlan's packing, so the received particle sequence is
    // byte-identical to the fine_grained_redistribute branch.
    std::vector<std::size_t> dest_counts(
        static_cast<std::size_t>(comm.size()), 0);
    for (const int t : targets) ++dest_counts[static_cast<std::size_t>(t)];
    std::vector<std::size_t> cursor(dest_counts.size() + 1, 0);
    for (std::size_t d = 0; d < dest_counts.size(); ++d)
      cursor[d + 1] = cursor[d] + dest_counts[d];
    std::vector<std::uint32_t> slot_src(plain.size());
    std::vector<std::uint32_t> col_src(plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const std::size_t slot = cursor[static_cast<std::size_t>(targets[i])]++;
      slot_src[slot] = static_cast<std::uint32_t>(i);
      col_src[slot] = redist::index_pos(plain[i].origin);
    }
    std::vector<std::byte> out_items;
    sortlib::carry_exchange(comm, /*sparse=*/false,
                            reinterpret_cast<const std::byte*>(plain.data()),
                            sizeof(PmParticle), plain.size(), dest_counts,
                            slot_src.data(), col_src.data(), *options.carry,
                            out_items);
    received.resize(out_items.size() / sizeof(PmParticle));
    std::memcpy(received.data(), out_items.data(), out_items.size());
  } else {
    received = redist::fine_grained_redistribute(
        comm, plain,
        [&](const PmParticle&, std::size_t i, std::vector<int>& t) {
          t.push_back(targets[i]);
        },
        redist::ExchangeKind::kDense);
  }

  // Owned particles first, ghosts after.
  auto is_owned = [](const PmParticle& pt) {
    return (pt.origin & kGhostBit) == 0;
  };
  std::size_t n_owned = 0;
  if (carrying) {
    // Explicit stable owned-first permutation (same result as the
    // stable_partition branch) so the carried columns reorder identically,
    // then drop the ghost rows from the columns.
    std::vector<std::uint32_t> perm;
    perm.reserve(received.size());
    for (std::size_t i = 0; i < received.size(); ++i)
      if (is_owned(received[i])) perm.push_back(static_cast<std::uint32_t>(i));
    n_owned = perm.size();
    for (std::size_t i = 0; i < received.size(); ++i)
      if (!is_owned(received[i])) perm.push_back(static_cast<std::uint32_t>(i));
    received = sortlib::apply_permutation(received, perm);
    options.carry->permute(perm.data(), perm.size());
    options.carry->resize_rows(n_owned);
    result.fields_carried = true;
  } else {
    std::stable_partition(received.begin(), received.end(), is_owned);
    while (n_owned < received.size() && is_owned(received[n_owned])) ++n_owned;
  }
  sort_phase.stop();

  // Everything the fcs layer needs BEFORE the compute phase: the origin
  // indices (resort machinery) and the communication regime.
  result.origin.resize(n_owned);
  for (std::size_t i = 0; i < n_owned; ++i)
    result.origin[i] = received[i].origin;
  result.resort_kind = neighborhood_ok ? redist::ExchangeKind::kSparse
                                       : redist::ExchangeKind::kDense;
  result.exchange_used = neighborhood_ok ? plan::Exchange::kNeighborhood
                                         : plan::Exchange::kAllToAll;
  result.times.total += ctx.now() - t0;
  st->grid = std::move(grid);
  st->received = std::move(received);
  st->n_owned = n_owned;
  st->neighborhood_ok = neighborhood_ok;
  stage.state = std::move(st);
  return stage;
}

fcs::SolveResult PmSolver::finish_solve(const mpi::Comm& comm,
                                        fcs::SolveStage&& stage,
                                        const fcs::SolveOptions& options) {
  auto st = std::static_pointer_cast<StageState>(stage.state);
  FCS_CHECK(st != nullptr, "finish_solve: stage missing pm state");
  sim::RankCtx& ctx = comm.ctx();
  fcs::SolveResult result = std::move(stage.partial);
  const domain::CartGrid& grid = st->grid;
  const std::vector<PmParticle>& received = st->received;
  const std::size_t n_owned = st->n_owned;
  const double t0 = ctx.now();

  // --- Compute phase --------------------------------------------------------
  fcs::PhaseScope compute_phase(ctx, result.times, &fcs::PhaseTimes::compute,
                                "pm.compute");
  std::vector<double> potentials(n_owned, 0.0);
  std::vector<Vec3> field(n_owned, Vec3{});
  if (options.modeled_compute) {
    // Charge the virtual clock with a calibrated estimate: real-space pair
    // work + this rank's share of the mesh transform work. The pair count
    // scales with the LOCAL subdomain density (owned particles over this
    // rank's cell volume) - for a homogeneous system this equals the old
    // global density, but clustered distributions now charge their genuine
    // per-rank near-field cost, which is the signal the load balancer
    // re-cuts the grid on.
    domain::Vec3 cell_lo, cell_hi;
    grid.subdomain(comm.rank(), cell_lo, cell_hi);
    const double cell_volume = (cell_hi.x - cell_lo.x) *
                               (cell_hi.y - cell_lo.y) *
                               (cell_hi.z - cell_lo.z);
    const double density =
        cell_volume > 0.0 ? static_cast<double>(n_owned) / cell_volume : 0.0;
    const double pairs_per_particle =
        4.0 / 3.0 * std::numbers::pi * params_.rcut * params_.rcut *
        params_.rcut * density;
    const double mesh_total = static_cast<double>(mesh_[0] * mesh_[1] * mesh_[2]);
    const double mesh_share = mesh_total / comm.size();
    ctx.charge_ops(60.0 * static_cast<double>(n_owned) * pairs_per_particle +
                   5.0 * 40.0 * mesh_share * std::log2(mesh_total + 2.0) +
                   80.0 * static_cast<double>(n_owned));
  } else {
    compute_fields(comm, grid, received, n_owned, potentials, field);
  }
  compute_phase.stop();

  // --- Output in solver order (ghosts removed, paper Sect. III-B) ----------
  result.positions.resize(n_owned);
  result.charges.resize(n_owned);
  for (std::size_t i = 0; i < n_owned; ++i) {
    result.positions[i] = received[i].pos;
    result.charges[i] = received[i].charge;
  }
  result.potentials = std::move(potentials);
  result.field = std::move(field);
  result.times.total += ctx.now() - t0;
  return result;
}

void PmSolver::compute_fields(const mpi::Comm& comm,
                              const domain::CartGrid& grid,
                              const std::vector<PmParticle>& particles,
                              std::size_t n_owned,
                              std::vector<double>& potentials,
                              std::vector<Vec3>& field) const {
  sim::RankCtx& ctx = comm.ctx();
  const double alpha = params_.alpha;
  const double rcut = params_.rcut;
  const double two_over_sqrt_pi = 2.0 / std::sqrt(std::numbers::pi);

  // Real-space part: linked cells over owned + ghost particles. Owned
  // positions are wrapped into this rank's subdomain; ghost copies carry
  // explicit periodic-image coordinates, so plain Euclidean distances are
  // the correct minimum-image distances.
  Vec3 lo, hi;
  grid.subdomain(comm.rank(), lo, hi);
  std::vector<Vec3> local_pos(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i)
    local_pos[i] = particles[i].pos;

  domain::LinkedCells cells(lo - Vec3{rcut, rcut, rcut},
                            hi + Vec3{rcut, rcut, rcut}, rcut, local_pos);
  double pair_ops = 0;
  cells.for_each_pair_within(rcut, [&](std::size_t i, std::size_t j,
                                       const Vec3& d, double r2) {
    if (i >= n_owned && j >= n_owned) return;  // ghost-ghost: not ours
    if (r2 == 0.0) return;
    const double r = std::sqrt(r2);
    const double erfc_term = std::erfc(alpha * r) / r;
    const double fmag =
        (erfc_term + two_over_sqrt_pi * alpha * std::exp(-alpha * alpha * r2)) /
        r2;
    if (i < n_owned) {
      potentials[i] += particles[j].charge * erfc_term;
      field[i] += d * (particles[j].charge * fmag);
    }
    if (j < n_owned) {
      potentials[j] += particles[i].charge * erfc_term;
      field[j] -= d * (particles[i].charge * fmag);
    }
    pair_ops += 1;
  });
  ctx.charge_ops(60.0 * pair_ops);

  // --- k-space part ---------------------------------------------------------
  DistFft3d fft(comm, mesh_[0], mesh_[1], mesh_[2]);

  // Local CIC accumulation (owned particles only) into a sparse cell map.
  std::unordered_map<std::uint64_t, double> local_mesh;
  local_mesh.reserve(8 * n_owned);
  for (std::size_t i = 0; i < n_owned; ++i) {
    for (const CicPoint& pt :
         cic_stencil(box_, mesh_, particles[i].pos))
      local_mesh[pt.cell] += pt.weight * particles[i].charge;
  }
  ctx.charge_ops(30.0 * static_cast<double>(n_owned));

  // Ship contributions to the slab owners; remember the request list so the
  // values can be returned along the same edges afterwards.
  struct CellVal {
    std::uint64_t cell;
    double value;
  };
  std::vector<CellVal> contributions;
  contributions.reserve(local_mesh.size());
  for (const auto& [cell, value] : local_mesh)
    contributions.push_back(CellVal{cell, value});
  std::sort(contributions.begin(), contributions.end(),
            [](const CellVal& a, const CellVal& b) { return a.cell < b.cell; });

  const std::size_t plane_cells = mesh_[1] * mesh_[2];
  mpi::PartnerList sources;
  std::vector<CellVal> incoming = redist::fine_grained_redistribute(
      comm, contributions,
      [&](const CellVal& cv, std::size_t, std::vector<int>& t) {
        t.push_back(fft.owner_of_plane(cv.cell / plane_cells));
      },
      redist::ExchangeKind::kSparse, &sources);

  // Accumulate into my slab.
  std::vector<Complex> rho(fft.slab_planes() * plane_cells, Complex{0, 0});
  const std::size_t slab_offset = fft.slab_begin() * plane_cells;
  for (const CellVal& cv : incoming) {
    FCS_ASSERT(cv.cell >= slab_offset &&
               cv.cell < slab_offset + rho.size());
    rho[cv.cell - slab_offset] += cv.value;
  }

  fft.forward(rho);

  // Influence function and ik differentiation. Normalization: the sampled
  // Ewald kernel has DFT (M^3/V) g(k), and the unnormalized backward
  // transform contributes the 1/M^3, leaving exactly 1/V here.
  const double inv_v_mesh = 1.0 / box_.volume();
  std::vector<Complex> phi(rho.size());
  std::array<std::vector<Complex>, 3> efield;
  for (auto& e : efield) e.assign(rho.size(), Complex{0, 0});
  for (std::size_t xl = 0; xl < fft.slab_planes(); ++xl) {
    const std::size_t mx = fft.slab_begin() + xl;
    for (std::size_t my = 0; my < mesh_[1]; ++my)
      for (std::size_t mz = 0; mz < mesh_[2]; ++mz) {
        const std::array<std::size_t, 3> m{mx, my, mz};
        const std::size_t idx = (xl * mesh_[1] + my) * mesh_[2] + mz;
        const double g = influence(box_, mesh_, m, alpha) * inv_v_mesh;
        const Complex ph = rho[idx] * g;
        phi[idx] = ph;
        const Vec3 k = wave_vector(box_, mesh_, m);
        const Complex minus_i(0.0, -1.0);
        efield[0][idx] = minus_i * k.x * ph;
        efield[1][idx] = minus_i * k.y * ph;
        efield[2][idx] = minus_i * k.z * ph;
      }
  }
  ctx.charge_ops(20.0 * static_cast<double>(rho.size()));

  fft.backward(phi);
  for (auto& e : efield) fft.backward(e);

  // Return the values along the request edges.
  struct CellFields {
    std::uint64_t cell;
    double phi;
    double ex, ey, ez;
  };
  std::vector<CellFields> replies;
  {
    // incoming is grouped by source rank; answer in the same per-source
    // order so each source can match its sorted request list.
    replies.reserve(incoming.size());
    std::vector<int> reply_target(incoming.size());
    for (const mpi::Partner& src : sources)
      std::fill_n(reply_target.begin() +
                      static_cast<std::ptrdiff_t>(src.offset),
                  src.count, src.rank);
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      const std::size_t idx = incoming[i].cell - slab_offset;
      replies.push_back(CellFields{incoming[i].cell, phi[idx].real(),
                                   efield[0][idx].real(),
                                   efield[1][idx].real(),
                                   efield[2][idx].real()});
    }
    std::vector<CellFields> back = redist::fine_grained_redistribute(
        comm, replies,
        [&](const CellFields&, std::size_t i, std::vector<int>& t) {
          t.push_back(reply_target[i]);
        },
        redist::ExchangeKind::kSparse);
    replies = std::move(back);
  }

  // Interpolate back to the owned particles.
  std::unordered_map<std::uint64_t, CellFields> value_of;
  value_of.reserve(replies.size());
  for (const CellFields& cf : replies) value_of.emplace(cf.cell, cf);
  const double qtot_local = [&] {
    double s = 0;
    for (std::size_t i = 0; i < n_owned; ++i) s += particles[i].charge;
    return s;
  }();
  const double qtot = comm.allreduce(qtot_local, mpi::OpSum{});
  const double background =
      std::numbers::pi / (alpha * alpha * box_.volume()) * qtot;
  for (std::size_t i = 0; i < n_owned; ++i) {
    double ph = 0;
    Vec3 e{};
    for (const CicPoint& pt : cic_stencil(box_, mesh_, particles[i].pos)) {
      auto it = value_of.find(pt.cell);
      FCS_ASSERT(it != value_of.end());
      ph += pt.weight * it->second.phi;
      e += Vec3{it->second.ex, it->second.ey, it->second.ez} * pt.weight;
    }
    potentials[i] += ph - two_over_sqrt_pi * alpha * particles[i].charge -
                     background;
    field[i] += e;
  }
  ctx.charge_ops(40.0 * static_cast<double>(n_owned));
}

}  // namespace pm
