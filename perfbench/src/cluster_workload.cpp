// cluster_spend: attested spends against a 3-node replicated CAS.
//
// Every round boots a fresh cluster (empty ledger) and grows it through
// kSpendsPerRound spends, one fresh token each, so each round does the same
// work: the ledger passes through the same sizes, including the range
// where resealing the whole state on every log write dominates. Rounds
// repeat until the run's seconds are used; a round, once started, is
// finished.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "cas/persistence.h"
#include "checks.h"
#include "common/error.h"
#include "workload/cluster.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kPlatformSeed = 0x5c1a7e;  // the deployment, fixed
constexpr std::size_t kRsaBits = 1024;
constexpr std::size_t kNodes = 3;
constexpr std::size_t kClients = 2;
constexpr std::size_t kSpendsPerRound = 1200;
// Room for a split vote or two at the election window set in bed_config().
constexpr std::chrono::milliseconds kBootstrapTimeout{5000};

struct SpendSample {
  double latency_ms = 0.0;
  bool attested = false;
  std::string error;
};

struct RoundResult {
  std::vector<SpendSample> samples;
  double spend_seconds = 0.0;
  std::size_t accepted = 0;
  bool converged = false;
  bool missing_spend_detected = false;
  bool replay_refused = false;
  std::size_t blob_bytes = 0;
  double entries_per_spend = 0.0;
  std::uint64_t elections_won = 0;
  std::uint64_t redirects = 0;
};

workload::ClusterBedConfig bed_config() {
  workload::ClusterBedConfig config;
  config.seed = kPlatformSeed;
  config.nodes = kNodes;
  config.rsa_bits = kRsaBits;
  // The default 40-80 ms election window is shorter than the stalls a
  // shared host deals out: a follower that misses heartbeats for one such
  // stall starts an election, and spends racing the leader change fail or
  // are consumed without the client hearing so. The wider window keeps
  // leadership fixed through a round, so every spend is measured on the
  // replicated write path; heartbeats stay at the default 10 ms.
  config.raft.election_timeout_min = 400ms;
  config.raft.election_timeout_max = 800ms;
  return config;
}

RoundResult run_round(workload::ClusterBed& bed, std::size_t leader,
                      std::uint64_t nonce_base, Tracer& tracer,
                      std::uint64_t op_base) {
  RoundResult r;
  std::vector<cas::CasClient> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.push_back(bed.make_client(leader));
  const std::uint64_t commit_before = bed.node(leader).raft().stats().commit_index;

  std::atomic<std::size_t> next{0};
  std::vector<std::vector<SpendSample>> per_client(kClients);
  std::vector<workload::ClusterBed::PreparedToken> last_prepared(kClients);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= kSpendsPerRound) return;
          const std::uint64_t op = op_base + i;
          const std::uint64_t root = tracer.enabled() ? tracer.next_id() : 0;
          SpendSample s;
          const Clock::time_point t0 = Clock::now();
          workload::ClusterBed::PreparedToken prepared;
          {
            Scope span(tracer, "cluster.prepare_token", op, root);
            prepared = bed.prepare_token(clients[c]);
          }
          if (prepared.ok()) {
            Scope span(tracer, "cluster.spend", op, root);
            const workload::ClusterBed::AttestedSpend spend =
                bed.spend_with_retry(prepared, nonce_base + i,
                                     clients[c].current_address());
            s.attested = spend.attested;
            if (!spend.attested)
              s.error = spend.error.empty()
                            ? "handshake rejected: " +
                                  std::string(to_string(spend.reject))
                            : spend.error;
          } else {
            s.error = prepared.error.empty()
                          ? prepared.instance.status.message()
                          : prepared.error;
          }
          const Clock::time_point t1 = Clock::now();
          tracer.record("spend", root, 0, op, t0, t1);
          s.latency_ms = ms_between(t0, t1);
          if (s.attested) last_prepared[c] = std::move(prepared);
          per_client[c].push_back(std::move(s));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  r.spend_seconds = std::chrono::duration<double>(Clock::now() - start).count();

  for (auto& v : per_client)
    for (auto& s : v) {
      if (s.attested) ++r.accepted;
      r.samples.push_back(std::move(s));
    }
  const std::uint64_t commit_after = bed.node(leader).raft().stats().commit_index;
  r.entries_per_spend =
      r.accepted == 0 ? 0.0
                      : static_cast<double>(commit_after - commit_before) /
                            static_cast<double>(r.accepted);
  r.blob_bytes = bed.node(leader).store().blob().size();

  // A spent token presented again, with a fresh channel and quote.
  const auto kept = std::find_if(
      last_prepared.begin(), last_prepared.end(),
      [](const workload::ClusterBed::PreparedToken& p) { return p.ok(); });
  if (kept != last_prepared.end()) {
    const workload::ClusterBed::AttestedSpend replay =
        bed.spend_with_retry(*kept, nonce_base + kSpendsPerRound,
                             bed.address(leader));
    r.replay_refused = !replay.attested && replay.error.empty();
  }
  r.converged = bed.audit_spends(r.accepted, 10'000ms).converged;
  // Negative self-test: the audit must not accept a count one short.
  r.missing_spend_detected =
      r.accepted > 0 && !bed.audit_spends(r.accepted - 1, 50ms).converged;

  for (std::size_t n = 0; n < bed.size(); ++n)
    r.elections_won += bed.node(n).raft().stats().elections_won;
  for (const cas::CasClient& c : clients) r.redirects += c.stats().leader_redirects;
  return r;
}

}  // namespace

Report run_cluster_spend(const RunArgs& args) {
  Report report;
  Tracer tracer(args.trace);
  auto bed = std::make_unique<workload::ClusterBed>(bed_config());
  std::size_t leader = bed->bootstrap(kBootstrapTimeout);
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - process_start()).count();

  std::vector<RoundResult> rounds;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 0;; ++round) {
    if (round > 0) {
      bed.reset();
      // Hand the freed cluster back to the OS: otherwise the next round's
      // threads allocate from fresh malloc arenas and peak RSS grows with
      // the number of rounds, i.e. with throughput.
      malloc_trim(0);
      bed = std::make_unique<workload::ClusterBed>(bed_config());
      leader = bed->bootstrap(kBootstrapTimeout);
    }
    const std::uint64_t nonce_base =
        (args.seed << 32) + round * (kSpendsPerRound + 1);
    rounds.push_back(run_round(*bed, leader, nonce_base, tracer,
                               round * kSpendsPerRound));
    if (Clock::now() - start >= std::chrono::seconds(args.seconds)) break;
  }

  std::vector<double> latencies;
  double spend_seconds = 0.0, entries = 0.0;
  std::size_t accepted = 0;
  std::uint64_t elections = 0, redirects = 0;
  bool converged = true, detected = true, replays = true;
  for (const RoundResult& r : rounds) {
    for (const SpendSample& s : r.samples) {
      ++report.attempted;
      if (!s.attested) {
        ++report.failed;
        std::fprintf(stderr, "cluster_spend: spend failed: %s\n",
                     s.error.c_str());
        continue;
      }
      latencies.push_back(s.latency_ms);
    }
    spend_seconds += r.spend_seconds;
    accepted += r.accepted;
    entries += r.entries_per_spend;
    elections += r.elections_won;
    redirects += r.redirects;
    converged = converged && r.converged;
    detected = detected && r.missing_spend_detected;
    replays = replays && r.replay_refused;
  }
  report.check("audit_spends converges on every node to the client count",
               converged);
  report.check("replayed token is refused", replays);
  report.must_reject("spend missing from the client count", !detected);

  const double per_s = spend_seconds > 0 ? accepted / spend_seconds : 0.0;
  if (!args.trace) {
    end_to_end_metrics(report, setup_s, per_s, latencies);
    return report;
  }
  const double n_rounds = static_cast<double>(rounds.size());
  report.metric("cluster.prepare_token_ms",
                tracer.mean_ms("cluster.prepare_token"), "ms");
  report.metric("cluster.spend_ms", tracer.mean_ms("cluster.spend"), "ms");
  report.metric("harness.op_self_ms", tracer.mean_self_ms("spend"), "ms");
  report.metric("trace.op_per_s", per_s, "1/s");
  report.metric("raft.sealed_blob_bytes",
                static_cast<double>(rounds.back().blob_bytes), "bytes");
  report.metric("raft.entries_per_spend", entries / n_rounds, "entries/op");
  report.metric("raft.elections_won", elections / n_rounds, "count");
  report.metric("client.leader_redirects", redirects / n_rounds, "count");

  // Reseal cost at the final ledger size, timed alone.
  crypto::Drbg rng = crypto::Drbg::from_seed(11, "perfbench-seal");
  const Bytes key = rng.generate(32);
  const Bytes state(rounds.back().blob_bytes, 0x5a);
  cas::MonotonicCounter counter;
  const Clock::time_point s0 = Clock::now();
  for (int i = 0; i < 20; ++i) cas::seal_state(key, counter, state, rng);
  report.metric("raft.seal_ms", ms_between(s0, Clock::now()) / 20, "ms");

  crypto::Drbg key_rng = crypto::Drbg::from_seed(kPlatformSeed, "perfbench-key");
  crypto_probes(report, crypto::RsaKeyPair::generate(key_rng, kRsaBits));
  tracer.dump(args.out_dir + "/trace-cluster_spend-" +
              std::to_string(args.seed) + ".jsonl");
  return report;
}

}  // namespace perfbench
