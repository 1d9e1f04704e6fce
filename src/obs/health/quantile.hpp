// Streaming quantile estimation for the health layer.
//
// P2Quantile is the P² algorithm (Jain & Chlamtac, CACM 1985): five markers
// track one quantile of an unbounded stream in O(1) memory, no samples
// retained. The estimate is deterministic for a given observation sequence,
// which keeps health reports byte-identical across same-seed runs. Until the
// fifth observation the exact (interpolated) quantile of the seen values is
// returned.
//
// Bit-exactness contract: the state after a sequence of observations is the
// same whether it is fed value by value (observe) or in spans of any split
// (observe_all), and value() equals, bit for bit, that of the textbook
// formulation with double marker positions (tests/obs/health_test.cpp keeps
// a copy of it) — NaN for NaN, since which NaN an operation on non-finite
// operands returns follows the compiler's operand order. Marker positions
// are integers here — they only ever move by one and convert exactly to the
// doubles the formulas read — and only the three interior desired positions
// are kept, because the outer two are never read. Every floating-point
// operation on heights and desired positions is the textbook one, in the
// textbook order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace swiftest::obs::health {

class P2Quantile {
 public:
  /// `q` in (0, 1): the quantile to track (0.5 = median).
  explicit P2Quantile(double q);

  void observe(double x);
  /// Observes every value of `xs` in order: the same state as calling
  /// observe() on each, from one tight loop over register-held markers.
  void observe_all(std::span<const double> xs);

  /// Current estimate; 0 before any observation.
  [[nodiscard]] double value() const;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  /// The marker state one P² step reads and writes.
  struct Markers {
    std::array<double, 5> heights{};          // marker heights (sorted)
    std::array<std::int64_t, 5> positions{};  // actual marker positions (1-based)
    std::array<double, 3> desired{};          // desired positions of markers 1-3
  };

  /// One P² step from the sixth observation on.
  static void step(Markers& m, const std::array<double, 3>& increment, double x);
  /// Moves interior marker i one position toward its desired one, if due.
  template <std::size_t i>
  static void adjust(Markers& m);
  void warm_up(double x);  // one of the first five observations

  double q_;
  std::uint64_t count_ = 0;
  Markers markers_;
  std::array<double, 3> increment_{};  // desired-position increments, markers 1-3
};

}  // namespace swiftest::obs::health
