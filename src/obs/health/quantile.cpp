#include "obs/health/quantile.hpp"

#include <algorithm>

namespace swiftest::obs::health {

P2Quantile::P2Quantile(double q) : q_(std::clamp(q, 0.0, 1.0)) {
  increment_ = {q_ / 2.0, q_, (1.0 + q_) / 2.0};
}

template <std::size_t i>
inline void P2Quantile::adjust(Markers& m) {
  auto& h = m.heights;
  auto& p = m.positions;
  const double gap = m.desired[i - 1] - static_cast<double>(p[i]);
  const bool up = gap >= 1.0 && p[i + 1] - p[i] > 1;
  const bool down = gap <= -1.0 && p[i - 1] - p[i] < -1;
  if (!up && !down) return;
  const double d = up ? 1.0 : -1.0;
  // The parabolic prediction of the marker's height after moving d; where it
  // leaves the neighbours' bracket, the linear one toward the neighbour.
  const auto left = static_cast<double>(p[i] - p[i - 1]);
  const auto right = static_cast<double>(p[i + 1] - p[i]);
  const auto span = static_cast<double>(p[i + 1] - p[i - 1]);
  double height = h[i] + d / span *
                             ((left + d) * (h[i + 1] - h[i]) / right +
                              (right - d) * (h[i] - h[i - 1]) / left);
  if (height <= h[i - 1] || height >= h[i + 1]) {
    const double toward = up ? h[i + 1] : h[i - 1];
    const std::int64_t at = up ? p[i + 1] : p[i - 1];
    height = h[i] + d * (toward - h[i]) / static_cast<double>(at - p[i]);
  }
  h[i] = height;
  p[i] += up ? 1 : -1;
}

inline void P2Quantile::step(Markers& m, const std::array<double, 3>& increment,
                             double x) {
  auto& h = m.heights;
  auto& p = m.positions;
  // Stretch the extreme markers, then move every marker above the cell the
  // observation falls into. An interior cell is counted from three
  // comparisons without branching on them; NaN observations and heights
  // land exactly where the sequential cell search puts them.
  const bool below = x < h[0];
  const bool above = !below && x >= h[4];
  if (below) h[0] = x;
  if (above && h[4] < x) h[4] = x;
  if (below || above) {
    p[1] += below;
    p[2] += below;
    p[3] += below;
  } else {
    const std::int64_t past1 = x >= h[1];
    const std::int64_t past2 = past1 & static_cast<std::int64_t>(x >= h[2]);
    const std::int64_t past3 = past2 & static_cast<std::int64_t>(x >= h[3]);
    p[1] += 1 - past1;
    p[2] += 1 - past2;
    p[3] += 1 - past3;
  }
  p[4] += 1;
  m.desired[0] += increment[0];
  m.desired[1] += increment[1];
  m.desired[2] += increment[2];

  // Adjust the three interior markers toward their desired positions.
  adjust<1>(m);
  adjust<2>(m);
  adjust<3>(m);
}

void P2Quantile::warm_up(double x) {
  auto& h = markers_.heights;
  h[count_] = x;
  ++count_;
  std::sort(h.begin(), h.begin() + static_cast<long>(count_));
  if (count_ == 5) {
    for (std::size_t i = 0; i < 5; ++i) {
      markers_.positions[i] = static_cast<std::int64_t>(i + 1);
    }
    for (std::size_t i = 0; i < 3; ++i) markers_.desired[i] = 1.0 + 4.0 * increment_[i];
  }
}

void P2Quantile::observe(double x) {
  if (count_ < 5) {
    warm_up(x);
    return;
  }
  ++count_;
  step(markers_, increment_, x);
}

void P2Quantile::observe_all(std::span<const double> xs) {
  while (!xs.empty() && count_ < 5) {
    warm_up(xs.front());
    xs = xs.subspan(1);
  }
  if (xs.empty()) return;
  count_ += xs.size();
  // Local copies keep the markers in registers across the loop.
  Markers m = markers_;
  const std::array<double, 3> increment = increment_;
  for (const double x : xs) step(m, increment, x);
  markers_ = m;
}

double P2Quantile::value() const {
  const auto& h = markers_.heights;
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact interpolated quantile of the sorted prefix.
    const double rank = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min<std::size_t>(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return h[lo] + frac * (h[hi] - h[lo]);
  }
  return h[2];
}

}  // namespace swiftest::obs::health
