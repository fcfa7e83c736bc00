// Shared plumbing of the benchmark: clocks, the in-memory span recorder,
// percentiles over raw samples, and the result record every workload fills.
//
// Nothing here reads the library's own observability (obs::, server::
// LatencyHistogram): every latency the benchmark reports is computed from
// the per-operation samples it took itself, and every per-layer time from
// the spans it recorded around calls into the library's public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Set when the process starts (static initialization), so set-up time is
/// measured from the process's start rather than from main().
Clock::time_point process_start();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where span dumps go (created on demand).
  std::string out_dir = ".";
};

/// One recorded span: a layer call inside one operation. `parent` is the
/// id of the enclosing span (0 for an operation's root span).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder. Disabled (the untraced runs), every call is a
/// branch and nothing else: no clock reads, no locking. Enabled, spans are
/// appended under one mutex — a few hundred spans a second, never the
/// bottleneck — and written out once, at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserve an id for a span whose start is known now and whose end is
  /// recorded later with record().
  std::uint64_t next_id();
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t op, Clock::time_point start,
              Clock::time_point end);

  std::vector<Span> spans() const;

  /// Mean duration (ms) of the spans named `name`, 0 when there are none.
  double mean_ms(const std::string& name) const;
  /// Mean self time (ms) of the spans named `name`: each span's duration
  /// minus the time its child spans cover.
  double mean_self_ms(const std::string& name) const;

  /// Write every span as one JSON object per line.
  void dump(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span around one layer call; a no-op when tracing is off.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t op,
        std::uint64_t parent)
      : tracer_(tracer), name_(name), op_(op), parent_(parent) {
    if (tracer_.enabled()) {
      id_ = tracer_.next_id();
      start_ = Clock::now();
    }
  }
  ~Scope() {
    if (tracer_.enabled())
      tracer_.record(name_, id_, parent_, op_, start_, Clock::now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t op_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
};

/// Nearest-rank percentile (q in (0, 1]) of raw samples; sorts in place.
double percentile(std::vector<double>& samples, double q);

/// One named output check. `expect_pass` is false for the negative
/// self-tests: the check is re-run on a deliberately corrupted copy of a
/// real output and must reject it.
struct CheckResult {
  std::string name;
  bool expect_pass = true;
  bool passed = false;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<CheckResult> checks;
  /// name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;

  void check(const std::string& name, bool passed) {
    checks.push_back({name, true, passed});
  }
  /// Negative self-test: `passed` is the verdict of the check on a
  /// corrupted output; it must be false.
  void must_reject(const std::string& name, bool passed) {
    checks.push_back({name, false, passed});
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  bool correct() const;
};

/// Peak resident set of this process, in MiB (getrusage).
double peak_rss_mb();

/// Restrict this process (and the threads it starts later) to the first
/// `n` CPUs of its current affinity mask.
void pin_to_first_cpus(std::size_t n);

/// The end-to-end metrics every workload reports, from its own raw samples:
/// setup_s, peak_rss_mb, op_per_s, op_p50_ms, op_p99_ms.
void end_to_end_metrics(Report& report, double setup_s, double ops_per_s,
                        std::vector<double>& latencies_ms);

/// One line describing the host and the build (nproc, CPUs this process
/// runs on, CPU model, compiler, build type).
std::string host_fingerprint();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Report& report);

}  // namespace perfbench
