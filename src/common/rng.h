// Deterministic random number generation.
//
// Every stochastic component of the simulator draws from an `Rng` that is
// seeded explicitly, so a simulation run is a pure function of its
// configuration. The generator is xoshiro256**, which is fast, has a 256-bit
// state, and passes BigCrush; we avoid std::mt19937 because its 5 KB state
// makes per-entity generators expensive and its distributions are not
// reproducible across standard library implementations. All distribution
// sampling is implemented here so results are bit-identical on any platform.
#pragma once

#include <cstdint>

namespace eo {

/// Deterministic xoshiro256** generator with portable distribution sampling.
class Rng {
 public:
  /// Seeds the generator. Two `Rng`s with the same seed produce identical
  /// streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Returns the next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). `bound` must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Poisson-distributed count with the given mean (>= 0). Uses inversion for
  /// small means and a normal approximation (rounded, clamped at 0) for large
  /// means; both paths are deterministic.
  std::uint64_t poisson(double mean);

  /// Returns `poisson(mean) != 0`, consuming exactly the draws `poisson(mean)`
  /// would, so the stream after it is the same. Below a mean of 32 it runs
  /// the same inversion loop (the count decides how many draws it takes);
  /// from 32 up it skips the normal approximation's log/sqrt/cos whenever
  /// the first uniform alone proves the count is at least 2.
  bool poisson_positive(double mean);

  /// Standard normal deviate (Box-Muller, deterministic).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability p in [0, 1].
  bool chance(double p);

  /// Splits off an independent generator; used to give each simulated entity
  /// its own stream so adding an entity does not perturb the others.
  Rng split();

 private:
  /// Knuth inversion for 0 < mean < 32.
  std::uint64_t knuth_poisson(double mean);
  /// Box-Muller deviate from the two uniforms `normal` draws, in order.
  static double box_muller(double mean, double stddev, double u1, double u2);
  /// The normal approximation's count for mean >= 32, from its two uniforms.
  static std::uint64_t normal_count(double mean, double u1, double u2);

  std::uint64_t s_[4];
};

}  // namespace eo
