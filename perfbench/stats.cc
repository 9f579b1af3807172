#include "stats.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld < 2) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), n = 4.
  const std::size_t n = 4;
  const std::size_t m = ld + 1;
  double out[3];
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t j = i * m / n;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * n);
    out[i - 1] = (v[j - 1] * (static_cast<double>(n) - delta) + v[j] * delta) /
                 static_cast<double>(n);
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

int SpanLog::open(const std::string& name, int parent, int tid) {
  const double start = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back({name, start, 0.0, parent, tid});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int idx) {
  const double end = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> g(mu_);
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.dur_s = end - s.start_s;
}

int SpanLog::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent, int tid) {
  Span s{name, seconds_between(origin_, start), seconds_between(start, end),
         parent, tid};
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_.size();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> g(mu_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers from this benchmark (no escaping).
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_s * 1e6,
                 s.dur_s * 1e6, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
