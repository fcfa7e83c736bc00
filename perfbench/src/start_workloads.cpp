// attested_start and retrieval_open: one simulated SGX platform and a
// single-node CasServer serving 16 singleton sessions at RSA-3072.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <random>
#include <thread>

#include "cas/client.h"
#include "cas/service.h"
#include "checks.h"
#include "common/error.h"
#include "core/predictor.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "fs/encrypted_volume.h"
#include "net/secure_channel.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"
#include "workloads.h"

namespace perfbench {

namespace {

// The deployment (keys, CPU fuses) is the same in every run, so set-up does
// the same work whatever the seed; the seed drives the inputs: session
// configs, volume contents, session choice, channel keys, arrivals.
constexpr std::uint64_t kPlatformSeed = 0x5c1a7e;
constexpr std::size_t kRsaBits = 3072;  // SGX's SigStruct modulus
constexpr std::size_t kSessions = 16;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCodeBytes = 256 << 10;
constexpr std::uint64_t kHeapBytes = 1 << 20;
constexpr std::size_t kVolumeFiles = 4;
constexpr std::size_t kFileBytes = 4096;
constexpr const char* kServerAddress = "cas.perfbench";
// Operations in the first kWarmup of the loop are checked but not timed:
// the first starts pay one-off costs (connections, lazily built key
// contexts, allocator growth) that no later start pays.
constexpr std::chrono::seconds kWarmup{2};

// retrieval_open
constexpr double kOfferedPerSecond = 100.0;
constexpr double kZipfSkew = 1.0;
// Default refill policy: every take below full depth schedules a refill,
// which wakes a second worker to sign while the first one answers.
constexpr std::size_t kPremintDepth = 8;
constexpr std::size_t kEinitSample = 256;

std::uint64_t mix(std::uint64_t seed, std::uint64_t n) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + n + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Bytes random_bytes(std::mt19937_64& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

struct Session {
  std::string name;
  /// The benchmark's own copy of what the verifier must deliver.
  cas::AppConfig config;
  /// The volume as the host stores it (ciphertext) and as it was written.
  std::map<std::string, Bytes> blobs;
  std::vector<std::pair<std::string, Bytes>> files;
};

/// One platform and verifier with kSessions singleton sessions installed.
struct Fixture {
  explicit Fixture(std::uint64_t seed);

  workload::Testbed bed;
  core::EnclaveImage image;
  core::SinclaveSignedImage signed_image;
  std::vector<Session> sessions;
  /// The simulated CPU and quoting enclave are not internally
  /// synchronized; client threads take turns on them.
  std::mutex platform;
};

workload::TestbedConfig testbed_config() {
  workload::TestbedConfig config;
  config.seed = kPlatformSeed;
  config.rsa_bits = kRsaBits;
  config.cas_address = "cas.direct";
  return config;
}

Fixture::Fixture(std::uint64_t seed)
    : bed(testbed_config()),
      image(core::EnclaveImage::synthetic("perfbench", kCodeBytes, kHeapBytes)),
      signed_image(core::Signer(&bed.user_signer()).sign_sinclave(image)) {
  std::mt19937_64 rng(seed);
  const Hash256 signer_id =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  for (std::size_t i = 0; i < kSessions; ++i) {
    Session s;
    s.name = "app-" + std::to_string(i);
    s.config.program = "noop";
    s.config.args = {"--shard", std::to_string(rng() % 1024)};
    s.config.env["TENANT"] = std::to_string(rng());
    s.config.secrets["db-password"] = random_bytes(rng, 32);
    s.config.fs_key = random_bytes(rng, 32);
    fs::EncryptedVolume volume(
        s.config.fs_key,
        crypto::Drbg::from_seed(mix(seed, i), "perfbench-volume"));
    for (std::size_t f = 0; f < kVolumeFiles; ++f) {
      const std::string name = "data/" + std::to_string(f);
      s.files.emplace_back(name, random_bytes(rng, kFileBytes));
      volume.write_file(name, s.files.back().second);
    }
    s.config.fs_manifest_root = volume.manifest_root();
    s.blobs = volume.host_export();

    cas::Policy policy;
    policy.session_name = s.name;
    policy.expected_signer = signer_id;
    policy.require_singleton = true;
    policy.base_hash = signed_image.base_hash;
    policy.config = s.config;
    bed.cas().install_policy(policy);
    sessions.push_back(std::move(s));
  }
}

cas::CasClientConfig client_config() {
  cas::CasClientConfig config;
  config.address = kServerAddress;
  return config;
}

double seconds_since_start() {
  return std::chrono::duration<double>(Clock::now() - process_start()).count();
}

// --- attested_start ---------------------------------------------------------

struct StartOutcome {
  bool ok = false;  // every step returned success
  std::string error;
  cas::InstanceResult instance;
  sgx::Measurement measured;  // MRENCLAVE the CPU computed
  bool config_matches = false;
  bool volume_matches = false;
  bool spent = false;  // the verifier accepted the token
  sgx::SgxCpu::EnclaveId enclave = 0;
};

/// Quote `enclave` over a fresh channel's key and run the handshake that
/// spends `token`.
Status attest(Fixture& fx, cas::AttestedChannel& channel,
              sgx::SgxCpu::EnclaveId enclave, const Session& session,
              const core::AttestationToken& token, Tracer& tracer,
              std::uint64_t op, std::uint64_t root) {
  std::optional<quote::Quote> quote;
  {
    std::lock_guard<std::mutex> lock(fx.platform);
    Scope span(tracer, "quote.quote", op, root);
    const sgx::Report report =
        fx.bed.cpu().ereport(enclave, fx.bed.qe().target_info(),
                             net::channel_binding(channel.dh_public()));
    quote = fx.bed.qe().generate_quote(report);
  }
  if (!quote.has_value())
    return Status(StatusCode::kInternal, "quoting enclave refused the report");
  cas::AttestPayload payload;
  payload.session_name = session.name;
  payload.quote = *quote;
  payload.token = token;
  Scope span(tracer, "net.attest", op, root);
  return channel.attest(fx.bed.cas().identity(), payload);
}

/// The paper's full singleton start, step by step, each step in its span.
StartOutcome full_start(Fixture& fx, cas::CasClient& client,
                        const Session& session, std::size_t file,
                        std::uint64_t channel_seed, bool keep_enclave,
                        Tracer& tracer, std::uint64_t op, std::uint64_t root) {
  StartOutcome out;
  {
    Scope span(tracer, "cas.get_instance", op, root);
    out.instance = client.get_instance(session.name,
                                       fx.signed_image.sigstruct);
  }
  if (!out.instance.ok()) {
    out.error = "get_instance: " + out.instance.status.message();
    return out;
  }

  core::InstancePage page;
  page.token = out.instance.token;
  page.verifier_id = out.instance.verifier_id;
  runtime::StartedEnclave enclave;
  {
    std::lock_guard<std::mutex> lock(fx.platform);
    Scope span(tracer, "runtime.start_enclave", op, root);
    enclave = runtime::start_enclave(fx.bed.cpu(), fx.image,
                                     out.instance.singleton_sigstruct, page);
    if (enclave.ok()) out.measured = fx.bed.cpu().identity(enclave.id).mr_enclave;
  }
  out.enclave = enclave.id;
  const auto remove = [&] {
    if (keep_enclave) return;
    std::lock_guard<std::mutex> lock(fx.platform);
    Scope span(tracer, "sgx.eremove", op, root);
    fx.bed.cpu().eremove(enclave.id);
  };
  if (!enclave.ok()) {
    out.error = std::string("einit: ") + to_string(enclave.einit_verdict);
    remove();
    return out;
  }

  std::optional<cas::AttestedChannel> channel;
  {
    Scope span(tracer, "net.channel_keygen", op, root);
    channel.emplace(&fx.bed.network(), kServerAddress,
                    crypto::Drbg::from_seed(channel_seed, "perfbench-channel"));
  }
  Status attested;
  try {
    attested = attest(fx, *channel, enclave.id, session, page.token, tracer,
                      op, root);
  } catch (const Error& e) {
    attested = Status(StatusCode::kInternal, e.what());
  }
  if (!attested.ok()) {
    out.error = "attest: " + attested.message();
    remove();
    return out;
  }
  out.spent = true;

  Result<cas::AppConfig> config = Status(StatusCode::kInternal);
  {
    Scope span(tracer, "net.get_config", op, root);
    config = channel->get_config();
  }
  if (!config.ok()) {
    out.error = "get_config: " + config.status().message();
    remove();
    return out;
  }
  out.config_matches = config.value() == session.config;
  {
    Scope span(tracer, "fs.volume_open", op, root);
    const auto& [name, plaintext] = session.files[file];
    out.volume_matches =
        volume_matches(config.value().fs_key, session.blobs,
                       config.value().fs_manifest_root, name, plaintext);
  }
  remove();
  out.ok = true;
  return out;
}

/// What the checks need from one start. Starts are reduced to this right
/// after they are timed, so the benchmark's memory does not grow with the
/// number of starts a run completes.
struct StartRecord {
  std::uint64_t op = 0;
  bool measured = false;  // started after the warm-up
  double latency_ms = 0.0;
  Clock::time_point end;
  bool ok = false;
  bool spent = false;
  std::string error;
  core::AttestationToken token;
  sgx::Measurement measured_mr;
  /// CPU-measured MRENCLAVE == the SigStruct's == the benchmark's own
  /// prediction from the signed image's base hash and the instance page.
  bool predicted = false;
  bool signed_ok = false;  // SigStruct verifies under the user signer
  bool config_matches = false;
  bool volume_matches = false;
};

bool prediction_holds(const Fixture& fx, const StartOutcome& o) {
  core::InstancePage page;
  page.token = o.instance.token;
  page.verifier_id = o.instance.verifier_id;
  return o.measured == o.instance.singleton_sigstruct.enclave_hash &&
         o.measured ==
             core::MeasurementPredictor::predict(fx.signed_image.base_hash, page);
}

StartRecord reduce(const Fixture& fx, const StartOutcome& o) {
  StartRecord r;
  r.ok = o.ok;
  r.spent = o.spent;
  r.error = o.error;
  if (!o.ok) return r;
  r.token = o.instance.token;
  r.measured_mr = o.measured;
  r.predicted = prediction_holds(fx, o);
  r.signed_ok = sigstruct_verifies(o.instance.singleton_sigstruct,
                                   fx.bed.user_signer().public_key());
  r.config_matches = o.config_matches;
  r.volume_matches = o.volume_matches;
  return r;
}

}  // namespace

Report run_attested_start(const RunArgs& args) {
  Report report;
  Tracer tracer(args.trace);
  Fixture fx(args.seed);
  server::CasServerConfig server_config;
  server_config.workers = kWorkers;
  server::CasServer server(&fx.bed.cas(), server_config);
  server.bind(fx.bed.network(), kServerAddress);
  const double setup_s = seconds_since_start();

  const auto session_of = [&](std::uint64_t op) -> const Session& {
    return fx.sessions[mix(args.seed, op) % kSessions];
  };
  const auto file_of = [&](std::uint64_t op) {
    return static_cast<std::size_t>(mix(args.seed ^ 0xf11e, op) % kVolumeFiles);
  };
  const auto channel_seed = [&](std::uint64_t op) {
    return mix(args.seed ^ 0xc4a7, op);
  };

  const std::size_t used_before = fx.bed.cas().tokens_used();
  std::atomic<std::uint64_t> next_op{0};
  std::vector<std::vector<StartRecord>> per_client(kClients);
  Tracer warmup_tracer(false);
  const Clock::time_point start = Clock::now() + kWarmup;
  const Clock::time_point deadline = start + std::chrono::seconds(args.seconds);
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        cas::CasClient client(&fx.bed.network(),
                              client_config());
        while (Clock::now() < deadline) {
          const std::uint64_t op = next_op.fetch_add(1);
          const Clock::time_point t0 = Clock::now();
          Tracer& spans = t0 >= start ? tracer : warmup_tracer;
          const std::uint64_t root = spans.enabled() ? spans.next_id() : 0;
          const StartOutcome outcome =
              full_start(fx, client, session_of(op), file_of(op),
                         channel_seed(op), false, spans, op, root);
          const Clock::time_point t1 = Clock::now();
          spans.record("start", root, 0, op, t0, t1);
          StartRecord r = reduce(fx, outcome);
          r.op = op;
          r.measured = t0 >= start;
          r.latency_ms = ms_between(t0, t1);
          r.end = t1;
          per_client[c].push_back(std::move(r));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  Clock::time_point last_end = start;
  std::vector<double> latencies;
  std::vector<core::AttestationToken> tokens;
  std::vector<sgx::Measurement> measurements;
  std::size_t spent = 0;
  bool predicted = true, signed_ok = true, configs = true, volumes = true;
  for (const auto& records : per_client) {
    for (const StartRecord& r : records) {
      ++report.attempted;
      if (r.spent) ++spent;
      if (!r.ok) {
        ++report.failed;
        std::fprintf(stderr, "attested_start: op %llu failed: %s\n",
                     static_cast<unsigned long long>(r.op), r.error.c_str());
        continue;
      }
      if (r.measured) {
        last_end = std::max(last_end, r.end);
        latencies.push_back(r.latency_ms);
      }
      tokens.push_back(r.token);
      measurements.push_back(r.measured_mr);
      predicted = predicted && r.predicted;
      signed_ok = signed_ok && r.signed_ok;
      configs = configs && r.config_matches;
      volumes = volumes && r.volume_matches;
    }
  }

  // Replay: one more start that keeps its enclave, then a fresh channel
  // and a fresh quote presenting the already-spent token.
  cas::CasClient replay_client(&fx.bed.network(),
                               client_config());
  const Session& replay_session = fx.sessions.front();
  Tracer off(false);
  const StartOutcome first = full_start(fx, replay_client, replay_session, 0,
                                        mix(args.seed, ~0ull), true, off, 0, 0);
  bool replay_refused = false;
  if (first.ok) {
    ++spent;
    cas::AttestedChannel again(
        &fx.bed.network(), kServerAddress,
        crypto::Drbg::from_seed(mix(args.seed, ~1ull), "perfbench-replay"));
    try {
      replay_refused = !attest(fx, again, first.enclave, replay_session,
                               first.instance.token, off, 0, 0)
                            .ok();
    } catch (const Error&) {
      replay_refused = false;  // a throw is not a refusal by the verifier
    }
    std::lock_guard<std::mutex> lock(fx.platform);
    fx.bed.cpu().eremove(first.enclave);
  }
  const std::size_t used_delta = fx.bed.cas().tokens_used() - used_before;

  report.check("CPU-measured MRENCLAVE equals the verifier's prediction",
               predicted && first.ok && prediction_holds(fx, first));
  report.check("singleton SigStructs verify under the user signer", signed_ok);
  report.check("tokens are pairwise distinct", pairwise_distinct(tokens));
  report.check("MRENCLAVEs are pairwise distinct",
               pairwise_distinct(measurements));
  report.check("delivered config equals the benchmark's copy", configs);
  report.check("volume decrypts to the plaintext written", volumes);
  report.check("tokens_used delta equals client-counted spends",
               ledger_matches(used_delta, spent));
  report.check("re-presented spent token is refused", replay_refused);

  // Negative self-tests: each check must reject a corrupted output, here
  // the replay fixture's start and session.
  if (first.ok && !tokens.empty()) {
    const crypto::RsaPublicKey& signer = fx.bed.user_signer().public_key();
    sgx::SigStruct flipped = first.instance.singleton_sigstruct;
    flipped.enclave_hash.data[0] ^= 0x01;
    report.must_reject("flipped SigStruct byte",
                       sigstruct_verifies(flipped, signer));
    StartOutcome mismatched = first;
    mismatched.measured.data[0] ^= 0x01;
    report.must_reject("flipped MRENCLAVE byte",
                       prediction_holds(fx, mismatched));
    std::vector<core::AttestationToken> duplicated = tokens;
    duplicated.push_back(tokens.front());
    report.must_reject("duplicated token", pairwise_distinct(duplicated));
    report.must_reject("spend missing from the client count",
                       ledger_matches(used_delta, spent - 1));
    const Session& s = replay_session;
    const auto& [name, plaintext] = s.files.front();
    std::map<std::string, Bytes> blobs = s.blobs;
    blobs[name] = flip_byte(blobs[name], blobs[name].size() / 2);
    report.must_reject("wrong volume byte",
                       volume_matches(s.config.fs_key, blobs,
                                      s.config.fs_manifest_root, name,
                                      plaintext));
    cas::AppConfig changed = s.config;
    changed.secrets.begin()->second =
        flip_byte(changed.secrets.begin()->second, 0);
    report.must_reject("changed config byte", changed == s.config);
  } else {
    report.check("first start available for the self-tests", false);
  }

  const double window_s =
      std::chrono::duration<double>(last_end - start).count();
  const double per_s =
      window_s > 0 ? static_cast<double>(latencies.size()) / window_s : 0.0;
  if (!args.trace) {
    end_to_end_metrics(report, setup_s, per_s, latencies);
    return report;
  }
  for (const char* layer :
       {"cas.get_instance", "runtime.start_enclave", "quote.quote",
        "net.channel_keygen", "net.attest", "net.get_config",
        "fs.volume_open", "sgx.eremove"})
    report.metric(std::string(layer) + "_ms", tracer.mean_ms(layer), "ms");
  report.metric("harness.op_self_ms", tracer.mean_self_ms("start"), "ms");
  report.metric("trace.op_per_s", per_s, "1/s");
  const server::ServerMetrics& m = server.metrics();
  report.metric("server.cache_misses", m.sigstruct_cache_misses.load(), "count");
  report.metric("server.inflight_high_water", m.max_in_flight.load(), "count");
  const cas::Policy policy = *fx.bed.cas().get_policy(fx.sessions[0].name);
  const Clock::time_point p0 = Clock::now();
  for (int i = 0; i < 10; ++i)
    fx.bed.cas().mint_credential(policy, fx.signed_image.sigstruct);
  report.metric("cas.mint_credential_ms", ms_between(p0, Clock::now()) / 10,
                "ms");
  crypto_probes(report, fx.bed.user_signer());
  tracer.dump(args.out_dir + "/trace-attested_start-" +
              std::to_string(args.seed) + ".jsonl");
  return report;
}

// --- retrieval_open ---------------------------------------------------------

Report run_retrieval_open(const RunArgs& args) {
  Report report;
  Tracer tracer(args.trace);
  Fixture fx(args.seed);
  server::CasServerConfig server_config;
  server_config.workers = kWorkers;
  server_config.premint_depth = kPremintDepth;
  server::CasServer server(&fx.bed.cas(), server_config);
  for (const Session& s : fx.sessions)
    server.premint(s.name, fx.signed_image.sigstruct, kPremintDepth);
  server.bind(fx.bed.network(), kServerAddress);
  const double setup_s = seconds_since_start();

  // Seeded Poisson arrivals over the warm-up and the window, sessions drawn
  // zipfian. Arrivals due in the warm-up are checked but not timed.
  struct Arrival {
    std::chrono::nanoseconds at;
    std::size_t session;
    Clock::time_point due, issued, done;
    cas::InstanceResult got;
  };
  std::mt19937_64 rng(args.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> zipf_cdf;
  double total = 0.0;
  for (std::size_t k = 1; k <= kSessions; ++k)
    zipf_cdf.push_back(total += 1.0 / std::pow(static_cast<double>(k), kZipfSkew));
  std::vector<Arrival> arrivals;
  const double warmup_s = static_cast<double>(kWarmup.count());
  for (double t = 0.0;;) {
    t += -std::log(1.0 - uniform(rng)) / kOfferedPerSecond;
    if (t >= warmup_s + args.seconds) break;
    const double u = uniform(rng) * total;
    const std::size_t session = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    Arrival a;
    a.at = std::chrono::nanoseconds(static_cast<std::int64_t>(t * 1e9));
    a.session = std::min(session, kSessions - 1);
    arrivals.push_back(std::move(a));
  }

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t completed = 0;
  cas::CasClient client(&fx.bed.network(),
                        client_config());
  double late_max_ms = 0.0;
  const Clock::time_point issue_start = Clock::now();
  const Clock::time_point start = issue_start + kWarmup;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Arrival& a = arrivals[i];
    a.due = issue_start + a.at;
    std::this_thread::sleep_until(a.due);
    a.issued = Clock::now();
    if (a.due >= start)
      late_max_ms = std::max(late_max_ms, ms_between(a.due, a.issued));
    client.get_instance_async(
        fx.sessions[a.session].name, fx.signed_image.sigstruct,
        [&, i](cas::InstanceResult got) {
          const Clock::time_point now = Clock::now();
          std::lock_guard<std::mutex> lock(done_mutex);
          arrivals[i].got = std::move(got);
          arrivals[i].done = now;
          ++completed;
          done_cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait_until(lock, Clock::now() + std::chrono::seconds(60),
                       [&] { return completed == arrivals.size(); });
  }
  // Completions still in flight after the wait are failures; unbind drains
  // them before the state their callbacks write goes away.
  server.unbind();
  std::lock_guard<std::mutex> lock(done_mutex);

  std::vector<double> latencies;
  std::vector<core::AttestationToken> tokens;
  std::vector<std::size_t> ok_index;
  Clock::time_point last_done = start;
  bool signed_ok = true;
  const crypto::RsaPublicKey& signer = fx.bed.user_signer().public_key();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    ++report.attempted;
    if (!a.got.ok()) {
      ++report.failed;
      std::fprintf(stderr, "retrieval_open: request %zu failed: %s\n", i,
                   a.got.status.message().c_str());
      continue;
    }
    ok_index.push_back(i);
    tokens.push_back(a.got.token);
    signed_ok = signed_ok && sigstruct_verifies(a.got.singleton_sigstruct, signer);
    if (a.due < start) continue;  // warm-up
    last_done = std::max(last_done, a.done);
    latencies.push_back(ms_between(a.due, a.done));
    if (tracer.enabled()) {
      const std::uint64_t root = tracer.next_id();
      tracer.record("retrieval", root, 0, i, a.due, a.done);
      tracer.record("cas.get_instance", tracer.next_id(), root, i, a.issued,
                    a.done);
    }
  }

  // After the window: a seeded sample of the credentials must pass EINIT.
  std::vector<std::size_t> sample = ok_index;
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min(sample.size(), kEinitSample));
  const auto page_of = [&](const cas::InstanceResult& got) {
    core::InstancePage page;
    page.token = got.token;
    page.verifier_id = got.verifier_id;
    return page;
  };
  bool einit_ok = !sample.empty();
  for (const std::size_t i : sample) {
    const cas::InstanceResult& got = arrivals[i].got;
    einit_ok = einit_ok && einit_accepts(fx.bed.cpu(), fx.image,
                                         got.singleton_sigstruct, page_of(got));
  }

  report.check("credentials verify under the user signer", signed_ok);
  report.check("tokens are pairwise distinct", pairwise_distinct(tokens));
  report.check("sampled credentials pass EINIT", einit_ok);
  if (!sample.empty()) {
    const cas::InstanceResult& got = arrivals[sample.front()].got;
    sgx::SigStruct flipped = got.singleton_sigstruct;
    flipped.enclave_hash.data[0] ^= 0x01;
    report.must_reject("flipped SigStruct byte",
                       sigstruct_verifies(flipped, signer));
    report.must_reject("EINIT with a flipped SigStruct byte",
                       einit_accepts(fx.bed.cpu(), fx.image, flipped,
                                     page_of(got)));
    std::vector<core::AttestationToken> duplicated = tokens;
    duplicated.push_back(tokens.back());
    report.must_reject("duplicated token", pairwise_distinct(duplicated));
  }

  const double window_s =
      std::chrono::duration<double>(last_done - start).count();
  const double per_s =
      window_s > 0 ? static_cast<double>(latencies.size()) / window_s : 0.0;
  if (!args.trace) {
    end_to_end_metrics(report, setup_s, per_s, latencies);
    return report;
  }
  report.metric("cas.get_instance_ms", tracer.mean_ms("cas.get_instance"), "ms");
  report.metric("harness.op_self_ms", tracer.mean_self_ms("retrieval"), "ms");
  report.metric("loadgen.late_max_ms", late_max_ms, "ms");
  report.metric("trace.op_per_s", per_s, "1/s");
  const server::ServerMetrics& m = server.metrics();
  report.metric("server.cache_hits", m.sigstruct_cache_hits.load(), "count");
  report.metric("server.cache_misses", m.sigstruct_cache_misses.load(), "count");
  report.metric("server.mint_batches", m.mint_batches.load(), "count");
  report.metric("server.inflight_high_water", m.max_in_flight.load(), "count");
  const cas::Policy policy = *fx.bed.cas().get_policy(fx.sessions[0].name);
  const Clock::time_point p0 = Clock::now();
  for (int i = 0; i < 10; ++i)
    fx.bed.cas().mint_credential(policy, fx.signed_image.sigstruct);
  report.metric("cas.mint_credential_ms", ms_between(p0, Clock::now()) / 10,
                "ms");
  crypto_probes(report, fx.bed.user_signer());
  tracer.dump(args.out_dir + "/trace-retrieval_open-" +
              std::to_string(args.seed) + ".jsonl");
  return report;
}

}  // namespace perfbench
