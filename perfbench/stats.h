// Host-side measurement helpers shared by the workloads and the ladder:
// wall-clock timing, quartiles, the simulated-results digest, and the span
// log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the same rule as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method), so the benchmark's own spreads read
/// like the ones computed over its runs. Fewer than two values give that
/// value (or 0) everywhere.
Quartiles quartiles(std::vector<double> v);

/// 64-bit FNV-1a over simulated results. Host timings never enter it, so it
/// repeats exactly across runs and host-thread counts at a fixed seed.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(x >> (8 * i)));
  }
  void add(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    add(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One traced interval around a call into a layer.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the log's origin
  double dur_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the top
  int tid = 0;      ///< host thread (0 = main)
};

/// In-memory span log of the traced run, written out once at the end.
/// Thread-safe: fleet hosts report from pool threads.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span and returns its index (close it with `close`).
  int open(const std::string& name, int parent = -1, int tid = 0);
  void close(int idx);
  /// Records a span whose endpoints were measured elsewhere.
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, int tid);

  std::size_t size() const;
  /// Chrome trace-event JSON ("X" events, microseconds). Returns false if
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
