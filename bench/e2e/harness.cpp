#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/gemm.h"

namespace e2e {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank > 0) --rank;
  return samples[std::min(rank, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double v : samples) total += v;
  return total;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return sum(samples) / static_cast<double>(samples.size());
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const char* name, int parent) {
  spans_.push_back({name, parent, op_, now_ns(), -1});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) { spans_[static_cast<size_t>(id)].end_ns = now_ns(); }

double Tracer::seconds(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end_ns < 0 ? 0.0 : static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns >= 0 && name == spans_[i].name) {
      out.push_back(seconds(static_cast<int>(i)));
    }
  }
  return out;
}

double Tracer::children_seconds(int parent) const {
  double sum = 0.0;
  for (size_t i = static_cast<size_t>(parent) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == parent) sum += seconds(static_cast<int>(i));
  }
  return sum;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"hitopk_e2e (wall clock)\"}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"op\": %d}}",
                 s.name, static_cast<double>(s.begin_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, i,
                 s.parent, s.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double Tracer::seconds_per_span() {
  constexpr int kSpans = 100000;
  Tracer scratch;
  scratch.spans_.reserve(kSpans);
  const Stopwatch sw;
  for (int i = 0; i < kSpans; ++i) scratch.end(scratch.begin("probe"));
  return sw.seconds() / kSpans;
}

// ---- calibration ------------------------------------------------------------

namespace {
volatile int g_sink = 0;  // keeps the calibration results observable
}  // namespace

Calibration calibrate() {
  Calibration cal;
  {
    // 256 MB copied in total through two 8 MB buffers: the kernel stays
    // small next to the workloads' own resident set (peak_rss_mb).
    constexpr size_t kBytes = size_t{8} << 20;
    constexpr int kCopies = 32;
    std::vector<char> a(kBytes, 1), b(kBytes, 2);
    const Stopwatch sw;
    for (int i = 0; i < kCopies; ++i) {
      if (i % 2 == 0) {
        std::memcpy(b.data(), a.data(), kBytes);
      } else {
        std::memcpy(a.data(), b.data(), kBytes);
      }
    }
    const double s = sw.seconds();
    cal.memcpy_gbs = static_cast<double>(kBytes) * kCopies / s * 1e-9;
    g_sink = g_sink + a[kBytes - 1] + b[0];
  }
  {
    constexpr size_t n = 512;
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (size_t i = 0; i < n * n; ++i) {
      a[i] = static_cast<float>(i % 13) * 0.25f - 1.5f;
      b[i] = static_cast<float>(i % 7) * 0.5f - 1.5f;
    }
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const Stopwatch sw;
      hitopk::gemm::sgemm(hitopk::gemm::Trans::kNo, hitopk::gemm::Trans::kNo,
                          n, n, n, a.data(), n, b.data(), n, c.data(), n,
                          /*accumulate=*/false);
      best = std::min(best, sw.seconds());
    }
    cal.sgemm_gflops = 2.0 * n * n * n / best * 1e-9;
    g_sink = g_sink + static_cast<int>(c[n + 1]);
  }
  return cal;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Result -----------------------------------------------------------------

double Result::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) {
      std::cerr << "hitopk_e2e: check failed: " << what << "\n";
    }
  }
  return ok;
}

std::string Result::json(const std::vector<MetricSpec>& specs) const {
  std::string out = format("{\"correct\": %s, \"attempted\": %ld, "
                           "\"failed\": %ld, \"metrics\": {",
                           correct() ? "true" : "false", attempted_, failed_);
  for (size_t i = 0; i < specs.size(); ++i) {
    // JSON has no NaN/Inf; main() fails the run on a non-finite metric
    // before printing, so the -1 placeholder never passes as correct.
    const double v = get(specs[i].name);
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name,
                  std::isfinite(v) ? v : -1.0, specs[i].unit);
  }
  out += "}}";
  return out;
}

void report_op_walls(const std::vector<double>& walls, Result& result) {
  const double n = static_cast<double>(walls.size());
  const double tail_q = std::clamp(1.0 - 10.0 / n, 0.5, 0.9);
  result.set("op_ms_p50", median(walls) * 1e3);
  result.set("op_ms_p90", (tail_q > 0.5 ? percentile(walls, tail_q)
                                        : median(walls)) * 1e3);
  result.note(format("%zu operations; op ms p10 %.4f p25 %.4f p50 %.4f "
                     "p%.0f %.4f",
                     walls.size(), percentile(walls, 0.1) * 1e3,
                     percentile(walls, 0.25) * 1e3, median(walls) * 1e3,
                     tail_q * 100, result.get("op_ms_p90")));
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(std::max(n, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace e2e
