#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::uint64_t op, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, op, start, end});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::mean_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    sum += ms_between(s.start, s.end);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Tracer::mean_self_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of one span run one after another (a client thread calls one
  // layer at a time), so the time they cover is the sum of their spans.
  std::unordered_map<std::uint64_t, double> child_ms;
  for (const Span& s : spans_)
    if (s.parent != 0) child_ms[s.parent] += ms_between(s.start, s.end);
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    const auto it = child_ms.find(s.id);
    sum += ms_between(s.start, s.end) - (it == child_ms.end() ? 0.0 : it->second);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_ns\":"
        << std::chrono::duration_cast<std::chrono::nanoseconds>(
               s.start - kProcessStart).count()
        << ",\"end_ns\":"
        << std::chrono::duration_cast<std::chrono::nanoseconds>(
               s.end - kProcessStart).count()
        << "}\n";
  }
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

void end_to_end_metrics(Report& report, double setup_s, double ops_per_s,
                        std::vector<double>& latencies_ms) {
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("op_per_s", ops_per_s, "1/s");
  report.metric("op_p50_ms", percentile(latencies_ms, 0.50), "ms");
  report.metric("op_p99_ms", percentile(latencies_ms, 0.99), "ms");
}

bool Report::correct() const {
  return std::all_of(checks.begin(), checks.end(), [](const CheckResult& c) {
    return c.passed == c.expect_pass;
  });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void pin_to_first_cpus(std::size_t n) {
  cpu_set_t current;
  CPU_ZERO(&current);
  if (sched_getaffinity(0, sizeof current, &current) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0; cpu < CPU_SETSIZE && n > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &current)) continue;
    CPU_SET(cpu, &pinned);
    --n;
  }
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

std::string host_fingerprint() {
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  sched_getaffinity(0, sizeof pinned, &pinned);
  std::ostringstream out;
  out << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpus_used\": " << CPU_COUNT(&pinned) << ", \"cpu\": \""
      << json_escape(cpu_model()) << "\", \"compiler\": \""
      << json_escape(__VERSION__) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\"}}";
  return out.str();
}

std::string result_json(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct() ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(name) << "\": {\"value\": "
        << number(value.first) << ", \"unit\": \"" << json_escape(value.second)
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
