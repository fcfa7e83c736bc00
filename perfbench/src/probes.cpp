// Crypto probes: each primitive timed alone, outside any workload, at the
// key size the workload uses — the per-layer floor under the spans (RSA
// sign under cas.get_instance and quote.quote, DH under net.attest,
// SHA-256 under runtime.start_enclave, AEAD under raft.seal and
// fs.volume_open).
#include "crypto/aead.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "workloads.h"

namespace perfbench {

using namespace sinclave;

namespace {

template <typename F>
double mean_ms(int reps, F&& body) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) body(i);
  return ms_between(t0, Clock::now()) / reps;
}

}  // namespace

void crypto_probes(Report& report, const crypto::RsaKeyPair& key) {
  crypto::Drbg rng = crypto::Drbg::from_seed(7, "perfbench-probe");
  const Bytes message = rng.generate(64);

  Bytes signature;
  report.metric("crypto.rsa_sign_ms", mean_ms(20, [&](int) {
                  signature = key.sign_pkcs1_sha256(message);
                }),
                "ms");
  report.metric("crypto.rsa_verify_ms", mean_ms(100, [&](int) {
                  key.public_key().verify_pkcs1_sha256(message, signature);
                }),
                "ms");

  std::vector<crypto::DhKeyPair> pairs;
  report.metric("crypto.dh_keygen_ms", mean_ms(20, [&](int) {
                  pairs.push_back(crypto::DhKeyPair::generate(rng));
                }),
                "ms");
  report.metric("crypto.dh_shared_ms", mean_ms(20, [&](int i) {
                  pairs[i].shared_secret(pairs[(i + 1) % 20].public_value());
                }),
                "ms");

  const Bytes block = rng.generate(1 << 20);
  const double sha_ms = mean_ms(16, [&](int) { crypto::sha256(block); });
  report.metric("crypto.sha256_mb_s", (block.size() / 1e6) / (sha_ms / 1e3),
                "MB/s");

  const crypto::Aead aead(rng.generate(32));
  const Bytes nonce(crypto::kAeadNonceSize, 0);
  const double aead_ms =
      mean_ms(8, [&](int) { aead.seal(nonce, block, ByteView{}); });
  report.metric("crypto.aead_seal_mb_s", (block.size() / 1e6) / (aead_ms / 1e3),
                "MB/s");
}

}  // namespace perfbench
