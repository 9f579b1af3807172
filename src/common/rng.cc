#include "common/rng.h"

#include <cmath>

namespace eo {
namespace {

// splitmix64: used to expand the seed into the xoshiro state and to derive
// split streams. Reference: Vigna, "Further scramblings of Marsaglia's
// xorshift generators".
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // A zero state would be absorbing; splitmix64 cannot emit four zeros for
  // any seed, but keep the guard for clarity.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded sampling with rejection to remove
  // modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::exponential(double mean) {
  double u = next_double();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 32.0) return knuth_poisson(mean);
  const double u1 = next_double();
  const double u2 = next_double();
  return normal_count(mean, u1, u2);
}

bool Rng::poisson_positive(double mean) {
  if (mean <= 0.0) return false;
  if (mean < 32.0) return knuth_poisson(mean) != 0;
  const double u1 = next_double();
  const double u2 = next_double();
  // u1 > 2^-20 bounds the Box-Muller radius sqrt(-2 ln u1) below 5.27, so
  // the deviate is at least mean - 5.27 sqrt(mean) >= 2.2 for every
  // mean >= 32 and the rounded count is at least 2.
  if (u1 > 0x1.0p-20) return true;
  return normal_count(mean, u1, u2) != 0;
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller; draws two uniforms per deviate (no caching keeps splits
  // simple and deterministic).
  const double u1 = next_double();
  const double u2 = next_double();
  return box_muller(mean, stddev, u1, u2);
}

std::uint64_t Rng::knuth_poisson(double mean) {
  const double limit = std::exp(-mean);
  double prod = next_double();
  std::uint64_t n = 0;
  while (prod > limit) {
    prod *= next_double();
    ++n;
  }
  return n;
}

double Rng::box_muller(double mean, double stddev, double u1, double u2) {
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // guard against log(0)
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  return mean + stddev * r * std::cos(theta);
}

std::uint64_t Rng::normal_count(double mean, double u1, double u2) {
  // Normal approximation with continuity correction; adequate for the large
  // counter means used by the PMC models (thousands per interval).
  const double v = box_muller(mean, std::sqrt(mean), u1, u2);
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ull); }

}  // namespace eo
