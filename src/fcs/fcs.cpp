#include "fcs/fcs.hpp"

#include <cstdlib>
#include <optional>

#include "redist/conserve.hpp"
#include "redist/exchange_plan.hpp"
#include "redist/resort.hpp"
#include "store/particle_store.hpp"
#include "task/task_graph.hpp"

namespace fcs {

using domain::Vec3;

namespace {

int g_task_override = -1;
std::size_t g_slab_override = 0;

bool env_task() {
  static const bool enabled = [] {
    const char* v = std::getenv("FCS_TASK");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

std::size_t env_task_slabs() {
  static const std::size_t slabs = [] {
    const char* v = std::getenv("FCS_TASK_SLABS");
    if (v == nullptr || v[0] == '\0') return std::size_t{4};
    const long n = std::strtol(v, nullptr, 10);
    return n > 0 ? static_cast<std::size_t>(n) : std::size_t{1};
  }();
  return slabs;
}

}  // namespace

bool task_enabled() {
  if (g_task_override >= 0) return g_task_override != 0;
  return env_task();
}

void set_task_mode(int enabled) { g_task_override = enabled; }

std::size_t task_slabs() {
  return g_slab_override > 0 ? g_slab_override : env_task_slabs();
}

void set_task_slabs(std::size_t slabs) { g_slab_override = slabs; }

namespace {

int g_store_override = -1;

bool env_store() {
  static const bool enabled = [] {
    const char* v = std::getenv("FCS_STORE");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

}  // namespace

bool store_enabled() {
  if (g_store_override >= 0) return g_store_override != 0;
  return env_store();
}

void set_store_mode(int enabled) { g_store_override = enabled; }

namespace {

/// Conservation validation of a whole run (FCS_REDIST_VALIDATE): the global
/// particle count and an order-independent charge checksum must be the same
/// before and after all redistribution. Charges are copied, never
/// recomputed, so the comparison is exact down to the bit pattern.
void validate_run(const mpi::Comm& comm, std::size_t n_in,
                  std::uint64_t charge_sum_in,
                  const std::vector<double>& charges_out) {
  std::uint64_t local[4] = {
      n_in, charges_out.size(), charge_sum_in,
      redist::content_checksum(charges_out.data(), charges_out.size(),
                               sizeof(double))};
  std::uint64_t global[4];
  comm.allreduce(local, global, 4, mpi::OpSum{});
  FCS_CHECK(global[0] == global[1],
            "fcs.run conservation violated: " << global[0]
                << " particles in, " << global[1] << " out");
  FCS_CHECK(global[2] == global[3],
            "fcs.run conservation violated: charge checksum changed across "
            "redistribution ("
                << global[0] << " particles)");
  obs::count(comm.ctx().obs(), "fcs.validate.checks", 1.0);
}

}  // namespace

Fcs::Fcs(const mpi::Comm& comm, const std::string& method)
    : comm_(comm), solver_(create_solver(method)) {}

void Fcs::set_common(const domain::Box& box) {
  box_ = box;
  solver_->set_box(box);
}

void Fcs::set_load_balance(const lb::LbConfig& cfg) {
  balancer_ = std::make_unique<lb::Balancer>(cfg);
}

void Fcs::set_plan(const plan::PlanConfig& cfg) {
  planner_ = cfg.mode == plan::PlanMode::kOff
                 ? nullptr
                 : std::make_unique<plan::Planner>(cfg);
}

void Fcs::set_accuracy(double accuracy) { solver_->set_accuracy(accuracy); }

void Fcs::tune(const std::vector<domain::Vec3>& positions,
               const std::vector<double>& charges) {
  solver_->tune(comm_, positions, charges);
}

RunResult Fcs::run(std::vector<domain::Vec3>& positions,
                   std::vector<double>& charges,
                   std::vector<double>& potentials,
                   std::vector<domain::Vec3>& field,
                   const RunOptions& options) {
  FCS_CHECK(positions.size() == charges.size(),
            "positions/charges size mismatch");
  sim::RankCtx& ctx = comm_.ctx();
  obs::Span run_span(ctx, "fcs.run");
  obs::count(ctx.obs(), "fcs.run.calls", 1.0);
  const std::size_t n_original = positions.size();
  const bool validate = redist::validation_enabled();
  const std::uint64_t charge_sum_in =
      validate ? redist::content_checksum(charges.data(), charges.size(),
                                          sizeof(double))
               : 0;

  // Adaptive planning (src/plan): an active planner overrides the per-run
  // coupling options. decide() communicates only in auto mode, so fixed
  // plans replay the legacy virtual-time behaviour bit-identically.
  plan::RedistPlan rplan;
  const bool planned = planner_ != nullptr && planner_->active();
  bool want_resort = options.resort;
  double bound = options.max_particle_move;
  // Extra per-particle fields the app resorted since the previous run: with
  // fusion they ride the planned exchange at marginal cost, without it each
  // one pays a full exchange - the planner's cost model needs to know.
  const std::size_t extra_fields = resort_field_count_;
  resort_field_count_ = 0;
  if (planned) {
    plan::DecideInputs din;
    din.n_local = positions.size();
    din.max_move = options.max_particle_move;
    din.input_in_solver_order = last_resorted_;
    din.volume = box_.volume();
    din.extra_fields = static_cast<double>(extra_fields);
    din.fused_exchange = redist::fuse_enabled();
    rplan = planner_->decide(comm_, din);
    want_resort = rplan.method != plan::Method::kA;
    // Only the movement-bound arm exploits the bound: methods A and B must
    // run the paper's bound-free code paths (FCS_PLAN=fixed:A / fixed:B
    // reproduce the corresponding figure series).
    if (rplan.method != plan::Method::kBMaxMove) bound = -1.0;
  }

  SolveOptions sopts;
  sopts.resort = want_resort;
  sopts.max_particle_move = bound;
  sopts.max_local = options.max_local;
  sopts.modeled_compute = options.modeled_compute;
  sopts.input_in_solver_order = last_resorted_;
  sopts.balancer =
      balancer_ != nullptr && balancer_->active() ? balancer_.get() : nullptr;
  sopts.plan = planned ? &rplan : nullptr;

  // Columnar store coupling (src/store): hand the store's payload columns to
  // the solver, so a carrying solver path ships them inside its own
  // redistribution exchange instead of a separate resort round.
  if (staged_store_ != nullptr) {
    FCS_CHECK(staged_store_->size() == n_original,
              "stage_store: store holds " << staged_store_->size()
                  << " rows for " << n_original << " local particles");
    if (want_resort) sopts.carry = &staged_store_->exchange_columns();
  }

  // Queue a staged field into a fused batch (shared by the overlapped and
  // the phased staged-field paths below).
  const auto add_field = [](redist::FusedBatch& b, const ResortBatch::Field& f) {
    switch (f.kind) {
      case ResortBatch::Kind::kFloats: {
        auto* v = static_cast<std::vector<double>*>(f.vec);
        b.add(*v, f.components, *v);
        break;
      }
      case ResortBatch::Kind::kInts: {
        auto* v = static_cast<std::vector<std::int64_t>*>(f.vec);
        b.add(*v, f.components, *v);
        break;
      }
      case ResortBatch::Kind::kVec3: {
        auto* v = static_cast<std::vector<domain::Vec3>*>(f.vec);
        b.add(*v, f.components, *v);
        break;
      }
    }
  };

  // --- Solve: phased, or overlapped through the task graph ------------------
  const bool use_task =
      task_enabled() && want_resort && solver_->supports_staged_solve();
  SolveResult solved;
  PhaseTimes task_times;       // resort-machinery time of the overlapped path
  bool task_resorted = false;  // the graph already ran the resort machinery
  bool staged_done = false;    // staged fields already exchanged by the graph
  bool store_done = false;     // store columns already exchanged by the graph

  if (use_task) {
    auto stage = std::make_shared<SolveStage>(
        solver_->begin_solve(comm_, positions, charges, sopts));
    bool fits_cap = true;
    if (options.max_local > 0) {
      const int fits =
          stage->partial.origin.size() <= options.max_local ? 1 : 0;
      fits_cap = comm_.allreduce(fits, mpi::OpMin{}) == 1;
    }
    if (!fits_cap) {
      // Capacity fallback: finish sequentially; the common path below
      // re-checks the capacity and takes the restore branch.
      solved = solver_->finish_solve(comm_, std::move(*stage), sopts);
    } else {
      obs::count(ctx.obs(), "fcs.task.runs", 1.0);
      // Resort prologue, sequential: the origin inversion communicates and
      // the slab layout needs the plan. Identical to the phased machinery.
      std::optional<redist::FusedBatch> batch;
      std::size_t nslabs = 0;
      {
        PhaseScope phase(ctx, task_times, &PhaseTimes::resort, "fcs.resort",
                         /*add_to_total=*/true);
        redist::invert_origin_indices(comm_, stage->partial.origin,
                                      n_original, stage->partial.resort_kind,
                                      resort_indices_);
        resort_n_original_ = n_original;
        resort_n_changed_ = stage->partial.origin.size();
        resort_kind_ = stage->partial.resort_kind;
        if (redist::fuse_enabled())
          resort_plan_.build(comm_, resort_indices_, stage->partial.origin,
                             stage->partial.resort_kind);
        else
          resort_plan_.reset();
        // Store columns ride the same slabbed batch - unless the solver
        // already carried them inside its own exchange.
        const bool store_pending =
            staged_store_ != nullptr && !stage->partial.fields_carried;
        if (resort_plan_.valid() &&
            (!staged_fields_.empty() || store_pending)) {
          batch.emplace(comm_, resort_plan_.plan(), resort_plan_.placement());
          for (const ResortBatch::Field& f : staged_fields_)
            add_field(*batch, f);
          if (store_pending) staged_store_->stage_into(*batch);
          nslabs = batch->async_begin(task_slabs());
          resort_field_count_ +=
              staged_fields_.size() +
              (store_pending ? staged_store_->payload_fields() : 0);
          staged_done = !staged_fields_.empty();
          store_done = store_pending;
        }
      }
      // The overlapped graph: per-slab pack -> async exchange, the force
      // computation running while the slabs are in flight, one unpack once
      // every slab has landed. Comm nodes start in ascending id order (the
      // task executor contract), so all ranks create the slab collectives in
      // the same sequence.
      task::Graph g;
      std::vector<task::NodeId> xchg;
      for (std::size_t k = 0; k < nslabs; ++k) {
        const task::NodeId pk = g.add_compute(
            "pack" + std::to_string(k), [&batch, k] { batch->async_pack(k); });
        xchg.push_back(g.add_comm(
            "xchg" + std::to_string(k),
            [&batch, k] { return batch->async_start(k); }, nullptr, {pk}));
      }
      double force_dur = 0.0;
      g.add_compute("force", [&] {
        const double f0 = ctx.now();
        solved = solver_->finish_solve(comm_, std::move(*stage), sopts);
        force_dur = ctx.now() - f0;
      });
      if (nslabs > 0)
        g.add_compute("unpack", [&batch] { batch->async_finish(); }, xchg);
      const double g0 = ctx.now();
      task::Executor ex;
      const task::Executor::Stats ts = ex.run(g, ctx);
      // Everything in the graph window that was not the force computation is
      // resort machinery: packs, residual arrival waits, the unpack.
      const double resort_part = (ctx.now() - g0) - force_dur;
      task_times.resort += resort_part;
      task_times.total += resort_part;
      obs::count(ctx.obs(), "fcs.resort", resort_part);
      if (obs::RankObs* const o = ctx.obs(); o != nullptr && ts.comm_s > 0.0)
        o->observe("fcs.task.overlap_ratio", ts.overlap_s / ts.comm_s);
      task_resorted = true;
    }
  } else {
    solved = solver_->solve(comm_, positions, charges, sopts);
  }

  // Load-balancing cost model: feed the balancer this epoch's measured
  // compute time and particle count of the solver decomposition (the bytes
  // moved since the last observation are read from the obs counters inside).
  // Collective, like the solve itself.
  if (sopts.balancer != nullptr)
    sopts.balancer->observe(comm_, solved.positions.size(),
                            solved.times.compute);

  RunResult result;
  result.times = solved.times;
  result.times += task_times;  // zero when the phased path ran

  // Model calibration (auto mode only): after the run completes, feed the
  // planner the observed phase costs of the decision it made. Collective
  // (one allreduce), like the solve itself.
  auto feed_planner = [&](bool resorted) {
    if (!planned || !planner_->auto_mode()) return;
    plan::ObserveInputs oin;
    oin.t_sort = solved.times.sort;
    oin.t_restore = result.times.restore - solved.times.restore;
    oin.t_resort = result.times.resort - solved.times.resort;
    oin.resorted = resorted;
    oin.sparse_resort = solved.resort_kind == redist::ExchangeKind::kSparse;
    planner_->observe(comm_, oin);
  };

  bool do_resort = want_resort;
  if (!task_resorted && do_resort && options.max_local > 0) {
    // Paper: the changed distribution can only be returned if every rank's
    // local arrays are large enough.
    const int fits =
        solved.positions.size() <= options.max_local ? 1 : 0;
    do_resort = comm_.allreduce(fits, mpi::OpMin{}) == 1;
  }
  if (want_resort && !do_resort)
    obs::count(ctx.obs(), "fcs.resort_fallback", 1.0);

  if (do_resort) {
    // --- Method B: hand back the solver order, create resort indices ------
    if (!task_resorted) {
      PhaseScope phase(ctx, result.times, &PhaseTimes::resort, "fcs.resort",
                       /*add_to_total=*/true);
      redist::invert_origin_indices(comm_, solved.origin, n_original,
                                    solved.resort_kind, resort_indices_);
      resort_n_original_ = n_original;
      resort_n_changed_ = solved.positions.size();
      resort_kind_ = solved.resort_kind;
      // The reusable schedule for all subsequent per-field resorts: rebuilt
      // in place with zero communication from the two index arrays already
      // in hand.
      if (redist::fuse_enabled())
        resort_plan_.build(comm_, resort_indices_, solved.origin,
                           solved.resort_kind);
      else
        resort_plan_.reset();
      positions = std::move(solved.positions);
      charges = std::move(solved.charges);
      potentials = std::move(solved.potentials);
      field = std::move(solved.field);
      last_resorted_ = true;
    } else {
      // The overlapped graph already ran the machinery; just hand the
      // solver-ordered arrays back.
      positions = std::move(solved.positions);
      charges = std::move(solved.charges);
      potentials = std::move(solved.potentials);
      field = std::move(solved.field);
      last_resorted_ = true;
    }
    // Staged fields travel with the run (the overlapped graph may have
    // exchanged them already; otherwise they go through the same machinery
    // a resort_batch() call would use).
    if (!staged_fields_.empty()) {
      if (!staged_done) {
        PhaseScope phase(ctx, result.times, &PhaseTimes::resort, "fcs.resort",
                         /*add_to_total=*/true);
        if (resort_plan_.valid()) {
          redist::FusedBatch batch(comm_, resort_plan_.plan(),
                                   resort_plan_.placement());
          for (const ResortBatch::Field& f : staged_fields_)
            add_field(batch, f);
          batch.execute();
          resort_field_count_ += staged_fields_.size();
        } else {
          for (const ResortBatch::Field& f : staged_fields_) {
            switch (f.kind) {
              case ResortBatch::Kind::kFloats:
                resort_floats(*static_cast<std::vector<double>*>(f.vec),
                              f.components);
                break;
              case ResortBatch::Kind::kInts:
                resort_ints(*static_cast<std::vector<std::int64_t>*>(f.vec),
                            f.components);
                break;
              case ResortBatch::Kind::kVec3:
                resort_vec3(*static_cast<std::vector<domain::Vec3>*>(f.vec));
                break;
            }
          }
        }
      }
      staged_fields_.clear();
    }
    // Staged store columns travel with the run too: either they already rode
    // the solver's own exchange (fields_carried - zero extra communication)
    // or they go through the same resort machinery as the staged fields.
    if (staged_store_ != nullptr) {
      if (!solved.fields_carried && !store_done) {
        PhaseScope phase(ctx, result.times, &PhaseTimes::resort, "fcs.resort",
                         /*add_to_total=*/true);
        if (resort_plan_.valid()) {
          redist::FusedBatch batch(comm_, resort_plan_.plan(),
                                   resort_plan_.placement());
          staged_store_->stage_into(batch);
          batch.execute();
        } else {
          staged_store_->resort_payload(comm_, resort_indices_,
                                        resort_n_changed_, resort_kind_);
        }
        resort_field_count_ += staged_store_->payload_fields();
      }
      // Sync the row count (and the non-travelling position/key columns) to
      // the changed distribution; the payload column buffers already hold
      // exactly resort_n_changed_ rows.
      staged_store_->resize(resort_n_changed_);
      staged_store_ = nullptr;
    }
    if (validate) validate_run(comm_, n_original, charge_sum_in, charges);
    feed_planner(/*resorted=*/true);
    result.resorted = true;
    result.n_local = positions.size();
    return result;
  }
  // A run that restores leaves staged fields untouched (the caller checks
  // last_run_resorted(), exactly as with resort_*); the queue still clears.
  staged_fields_.clear();

  // --- Method A (or capacity fallback): restore original order/distribution
  {
    PhaseScope phase(ctx, result.times, &PhaseTimes::restore, "fcs.restore",
                     /*add_to_total=*/true);
    struct ResultPacket {
      std::uint64_t origin;
      double potential;
      Vec3 field;
    };
    std::vector<ResultPacket> packets(solved.positions.size());
    for (std::size_t i = 0; i < packets.size(); ++i)
      packets[i] =
          ResultPacket{solved.origin[i], solved.potentials[i], solved.field[i]};
    std::vector<ResultPacket> restored = redist::restore_to_origin(
        comm_, packets, [](const ResultPacket& pk) { return pk.origin; },
        n_original, redist::ExchangeKind::kDense);
    potentials.resize(n_original);
    field.resize(n_original);
    for (std::size_t i = 0; i < n_original; ++i) {
      potentials[i] = restored[i].potential;
      field[i] = restored[i].field;
    }
    last_resorted_ = false;
    resort_indices_.clear();
    resort_plan_.reset();
    resort_n_changed_ = n_original;
  }
  // A restoring run normally leaves a staged store untouched, like the
  // staged fields. The one exception is a capacity fallback AFTER the solver
  // already carried the columns into its order: ship every row home again so
  // the store matches the (restored) caller arrays.
  if (staged_store_ != nullptr) {
    if (solved.fields_carried) {
      PhaseScope phase(ctx, result.times, &PhaseTimes::restore, "fcs.restore",
                       /*add_to_total=*/true);
      staged_store_->restore_payload(comm_, solved.origin, n_original,
                                     redist::ExchangeKind::kDense);
      staged_store_->resize(n_original);
    }
    staged_store_ = nullptr;
  }
  // Method A leaves positions/charges untouched, so count conservation is
  // trivial - but the checksum still guards against buffer corruption.
  if (validate) validate_run(comm_, n_original, charge_sum_in, charges);
  feed_planner(/*resorted=*/false);
  result.resorted = false;
  result.n_local = n_original;
  return result;
}

void Fcs::resort_floats(std::vector<double>& values,
                        std::size_t components) const {
  FCS_CHECK(last_resorted_,
            "resort_floats: the last run did not return the changed order");
  ++resort_field_count_;
  values = resort_plan_.valid()
               ? resort_plan_.resort(comm_, values, components)
               : redist::resort_values(comm_, resort_indices_, values,
                                       components, resort_n_changed_,
                                       resort_kind_);
}

void Fcs::resort_ints(std::vector<std::int64_t>& values,
                      std::size_t components) const {
  FCS_CHECK(last_resorted_,
            "resort_ints: the last run did not return the changed order");
  ++resort_field_count_;
  values = resort_plan_.valid()
               ? resort_plan_.resort(comm_, values, components)
               : redist::resort_values(comm_, resort_indices_, values,
                                       components, resort_n_changed_,
                                       resort_kind_);
}

void Fcs::resort_vec3(std::vector<domain::Vec3>& values) const {
  FCS_CHECK(last_resorted_,
            "resort_vec3: the last run did not return the changed order");
  ++resort_field_count_;
  values = resort_plan_.valid()
               ? resort_plan_.resort(comm_, values, 1)
               : redist::resort_values(comm_, resort_indices_, values, 1,
                                       resort_n_changed_, resort_kind_);
}

Fcs& Fcs::stage_floats(std::vector<double>& values, std::size_t components) {
  staged_fields_.push_back(
      ResortBatch::Field{ResortBatch::Kind::kFloats, &values, components});
  return *this;
}

Fcs& Fcs::stage_ints(std::vector<std::int64_t>& values,
                     std::size_t components) {
  staged_fields_.push_back(
      ResortBatch::Field{ResortBatch::Kind::kInts, &values, components});
  return *this;
}

Fcs& Fcs::stage_vec3(std::vector<domain::Vec3>& values) {
  staged_fields_.push_back(
      ResortBatch::Field{ResortBatch::Kind::kVec3, &values, 1});
  return *this;
}

Fcs& Fcs::stage_store(store::ParticleStore& s) {
  staged_store_ = &s;
  return *this;
}

ResortBatch Fcs::resort_batch() {
  FCS_CHECK(last_resorted_,
            "resort_batch: the last run did not return the changed order");
  return ResortBatch(*this);
}

ResortBatch& ResortBatch::add_floats(std::vector<double>& values,
                                     std::size_t components) {
  fields_.push_back(Field{Kind::kFloats, &values, components});
  return *this;
}

ResortBatch& ResortBatch::add_ints(std::vector<std::int64_t>& values,
                                   std::size_t components) {
  fields_.push_back(Field{Kind::kInts, &values, components});
  return *this;
}

ResortBatch& ResortBatch::add_vec3(std::vector<domain::Vec3>& values) {
  fields_.push_back(Field{Kind::kVec3, &values, 1});
  return *this;
}

void ResortBatch::run() {
  if (fields_.empty()) return;
  Fcs& fcs = *fcs_;
  FCS_CHECK(fcs.last_resorted_,
            "ResortBatch::run: the last run did not return the changed order");
  if (!fcs.resort_plan_.valid()) {
    // Fusion off: the legacy path, one full exchange per field.
    for (const Field& f : fields_) {
      switch (f.kind) {
        case Kind::kFloats:
          fcs.resort_floats(*static_cast<std::vector<double>*>(f.vec),
                            f.components);
          break;
        case Kind::kInts:
          fcs.resort_ints(*static_cast<std::vector<std::int64_t>*>(f.vec),
                          f.components);
          break;
        case Kind::kVec3:
          fcs.resort_vec3(*static_cast<std::vector<domain::Vec3>*>(f.vec));
          break;
      }
    }
    fields_.clear();
    return;
  }
  fcs.resort_field_count_ += fields_.size();
  redist::FusedBatch batch(fcs.comm_, fcs.resort_plan_.plan(),
                           fcs.resort_plan_.placement());
  for (const Field& f : fields_) {
    switch (f.kind) {
      case Kind::kFloats: {
        auto* v = static_cast<std::vector<double>*>(f.vec);
        batch.add(*v, f.components, *v);
        break;
      }
      case Kind::kInts: {
        auto* v = static_cast<std::vector<std::int64_t>*>(f.vec);
        batch.add(*v, f.components, *v);
        break;
      }
      case Kind::kVec3: {
        auto* v = static_cast<std::vector<domain::Vec3>*>(f.vec);
        batch.add(*v, f.components, *v);
        break;
      }
    }
  }
  batch.execute();
  fields_.clear();
}

}  // namespace fcs
