// Measurement plumbing shared by the hitopk_e2e workloads: wall clock,
// sample statistics, the in-memory span recorder of the traced run, the
// calibration kernels and the result record printed as the final JSON line.
//
// Everything here runs on the benchmark's main thread.  The library's own
// thread pool is never instrumented: spans wrap *calls into* the library
// from the outside, so the code under test is the code users run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

// Nearest-rank percentile, q in [0, 1]: always one of the samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double sum(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

// Spans (name, start, end, parent, op) kept in memory and written at exit as
// Chrome-trace JSON (chrome://tracing, ui.perfetto.dev).  `op` is the index
// of the timed operation a span belongs to (training step, replay, plan
// pass), so the spans of one operation share an identifier.
class Tracer {
 public:
  Tracer();

  int begin(const char* name, int parent = -1);
  void end(int id);
  void set_op(int op) { op_ = op; }

  // RAII span: begin on construction, end on destruction.  A null tracer
  // makes it a no-op, so one code path serves the traced and untraced runs.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int parent = -1)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer* tracer_;
    int id_;
  };

  double seconds(int id) const;
  // Durations (seconds) of every closed span with this name, in begin order.
  std::vector<double> durations(const std::string& name) const;
  // Durations of the direct children of `parent`, summed.
  double children_seconds(int parent) const;
  size_t size() const { return spans_.size(); }

  bool write_chrome_json(const std::string& path) const;

  // Cost of recording one span (begin + end), measured on a scratch tracer;
  // the traced run multiplies it by its span count to report its overhead.
  static double seconds_per_span();

 private:
  struct Span {
    const char* name;
    int parent;
    int op;
    int64_t begin_ns;
    int64_t end_ns;
  };
  int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int op_ = 0;
};

// Fixed-size machine calibration, run at the start and the end of every
// workload so a reader can tell machine drift from a slow commit.
struct Calibration {
  double memcpy_gbs = 0.0;    // 256 MB copied as 32 x 8 MB memcpy
  double sgemm_gflops = 0.0;  // gemm::sgemm at 512^3, best of 3
};
Calibration calibrate();

// getrusage max resident set size of this process, in MB.
double peak_rss_mb();

// One reported metric: its name and unit as BENCHMARK.json declares them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

// What one workload run reports: metric values plus the correctness tally
// (every check() is one attempted operation; a false one is a failure).
class Result {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  double get(const std::string& name) const;
  bool check(bool ok, const std::string& what);
  bool correct() const { return failed_ == 0; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  // Human-readable lines printed before the JSON (values outside the metric
  // lists, e.g. model quality or the calibration of the untraced run).
  void note(const std::string& line) { notes_.push_back(line); }
  const std::vector<std::string>& notes() const { return notes_; }

  // The final JSON line: every metric of `specs`, in order.
  std::string json(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  long attempted_ = 0;
  long failed_ = 0;
};

// Sets op_ms_p50 and op_ms_p90 from per-operation wall seconds and notes
// the sample count with the lower percentiles.  op_ms_p90 is the p90 or,
// below 100 operations, the highest percentile with at least ten operations
// beyond it, floored at the median (so a run of 20 or fewer operations
// reports its median).
void report_op_walls(const std::vector<double>& walls, Result& result);

// Printf-style formatting into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace e2e
