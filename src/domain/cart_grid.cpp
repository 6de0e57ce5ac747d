#include "domain/cart_grid.hpp"

#include <algorithm>

namespace domain {

void CartGrid::face_distances(int d, int cell, double t, double& local,
                              double& w) const {
  if (cuts_[static_cast<std::size_t>(d)].empty()) {
    w = box_.extent()[d] / dims_[d];
    local = t * box_.extent()[d] - cell * w;
  } else {
    const double b = cell_begin(d, cell);
    w = (cell_begin(d, cell + 1) - b) * box_.extent()[d];
    local = (t - b) * box_.extent()[d];
  }
}

double CartGrid::check_halo(double halo) const {
  const Vec3 sub = min_cell_extent();
  const double narrowest = std::min({sub.x, sub.y, sub.z});
  FCS_CHECK(halo >= 0 && halo <= narrowest,
            "ghost halo " << halo << " exceeds a subdomain extent");
  return narrowest;
}

void CartGrid::place(const Vec3& p, double halo, Placement& out) const {
  const Vec3 t = box_.normalized(p);

  // Per axis, the neighbor offsets the halo reaches (-1 below the lower
  // face, +1 above the upper one), each with its wrapped cell and image
  // shift. Offsets that leave a non-periodic axis are dropped.
  struct Step {
    int off, cell;
    double shift;
  };
  Step steps[3][3]{};
  int nsteps[3]{};
  int cell[3]{};
  for (int d = 0; d < 3; ++d) {
    cell[d] = cell_on_axis(d, t[d]);
    double local, w;  // local in [0, w)
    face_distances(d, cell[d], t[d], local, w);
    const int lo = local < halo ? -1 : 0;
    const int hi = local >= w - halo ? 1 : 0;
    for (int off = lo; off <= hi; ++off) {
      int c = cell[d] + off;
      double shift = 0.0;
      if (c < 0 || c >= dims_[d]) {
        if (!box_.periodic()[d]) continue;
        // Wrapped below: the image the target sees is above its domain.
        shift = c < 0 ? box_.extent()[d] : -box_.extent()[d];
        c = c < 0 ? c + dims_[d] : c - dims_[d];
      }
      steps[d][nsteps[d]++] = Step{off, c, shift};
    }
  }

  out.owner = (cell[0] * dims_[1] + cell[1]) * dims_[2] + cell[2];
  // Distinct offsets never repeat a (rank, shift) pair nor give the owner
  // an unshifted copy: they differ in cell or in shift along some axis.
  int n = 0;
  for (int i = 0; i < nsteps[0]; ++i)
    for (int j = 0; j < nsteps[1]; ++j)
      for (int k = 0; k < nsteps[2]; ++k) {
        const Step& x = steps[0][i];
        const Step& y = steps[1][j];
        const Step& z = steps[2][k];
        if (x.off == 0 && y.off == 0 && z.off == 0) continue;
        out.images[static_cast<std::size_t>(n++)] =
            GhostImage{(x.cell * dims_[1] + y.cell) * dims_[2] + z.cell,
                       Vec3{x.shift, y.shift, z.shift}};
      }
  out.nimages = n;
}

std::vector<CartGrid::GhostImage> CartGrid::ghost_images(const Vec3& p,
                                                         double halo) const {
  check_halo(halo);
  Placement pl;
  place(p, halo, pl);
  return {pl.images.begin(), pl.images.begin() + pl.nimages};
}

std::vector<int> CartGrid::ghost_targets(const Vec3& p, double halo) const {
  check_halo(halo);
  Placement pl;
  place(p, halo, pl);
  std::vector<int> targets;
  for (int k = 0; k < pl.nimages; ++k) {
    const int r = pl.images[static_cast<std::size_t>(k)].rank;
    if (r != pl.owner &&
        std::find(targets.begin(), targets.end(), r) == targets.end())
      targets.push_back(r);
  }
  return targets;
}

}  // namespace domain
