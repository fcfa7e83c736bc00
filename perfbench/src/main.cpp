// perfbench — one workload per invocation:
//
//   perfbench --workload <attested_start|retrieval_open|cluster_spend>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the host fingerprint, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics (from spans, server counters and
// probes) with --trace 1. Exits 1 when an output check fails, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in every traced run (BENCHMARK.json lists the
// same). A layer a workload does not exercise reads 0 there (no spans, no
// counter movement). retrieval_open, which BENCHMARK.json leaves out (see
// README), reports server.cache_hits, server.mint_batches and
// loadgen.late_max_ms on top.
constexpr MetricName kPerLayer[] = {
    {"cas.get_instance_ms", "ms"},
    {"runtime.start_enclave_ms", "ms"},
    {"quote.quote_ms", "ms"},
    {"net.channel_keygen_ms", "ms"},
    {"net.attest_ms", "ms"},
    {"net.get_config_ms", "ms"},
    {"fs.volume_open_ms", "ms"},
    {"sgx.eremove_ms", "ms"},
    {"harness.op_self_ms", "ms"},
    {"trace.op_per_s", "1/s"},
    {"server.cache_misses", "count"},
    {"server.inflight_high_water", "count"},
    {"cas.mint_credential_ms", "ms"},
    {"cluster.prepare_token_ms", "ms"},
    {"cluster.spend_ms", "ms"},
    {"raft.sealed_blob_bytes", "bytes"},
    {"raft.seal_ms", "ms"},
    {"raft.entries_per_spend", "entries/op"},
    {"raft.elections_won", "count"},
    {"client.leader_redirects", "count"},
    {"crypto.rsa_sign_ms", "ms"},
    {"crypto.rsa_verify_ms", "ms"},
    {"crypto.dh_keygen_ms", "ms"},
    {"crypto.dh_shared_ms", "ms"},
    {"crypto.sha256_mb_s", "MB/s"},
    {"crypto.aead_seal_mb_s", "MB/s"},
};

// The CPUs each workload runs on: the first `cpus` of those the process may
// use. Pinning keeps thread placement from depending on which of a shared
// host's CPUs happen to be idle. retrieval_open gets one: with a second CPU,
// whether the worker woken to refill a pool lands beside the worker
// answering the request (which then waits for the signature) or on an idle
// CPU changes from run to run, and its latency flips between two modes ~10x
// apart.
struct Workload {
  const char* name;
  Report (*run)(const RunArgs&);
  std::size_t cpus;
};

constexpr Workload kWorkloads[] = {
    {"attested_start", run_attested_start, 2},
    {"retrieval_open", run_retrieval_open, 1},
    {"cluster_spend", run_cluster_spend, 2},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <attested_start|retrieval_open|"
               "cluster_spend> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

bool parse_uint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_uint(value, &n)) {
      args.seed = n;
    } else if (flag == "--seconds" && parse_uint(value, &n) && n >= 1 &&
               n <= 600) {
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && parse_uint(value, &n) && n <= 1) {
      args.trace = n == 1;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) return usage();

  Report report;
  try {
    pin_to_first_cpus(workload->cpus);
    report = workload->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace) {
    for (const MetricName& m : kPerLayer)
      if (!report.metrics.count(m.name)) report.metric(m.name, 0.0, m.unit);
  }

  for (const CheckResult& c : report.checks) {
    if (c.passed == c.expect_pass) continue;
    std::fprintf(stderr, "perfbench: %s check failed: %s\n",
                 c.expect_pass ? "output" : "self-test", c.name.c_str());
  }
  std::printf("%s\n%s\n", host_fingerprint().c_str(),
              result_json(report).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
