// Output checks. Each one is a pure function of an output the benchmark
// collected, so the same function can be re-run on a deliberately
// corrupted copy of that output (the negative self-tests every run makes):
// a check that accepts the corruption cannot fail and proves nothing.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/image.h"
#include "core/instance_page.h"
#include "crypto/rsa.h"
#include "sgx/cpu.h"
#include "sgx/sigstruct.h"

namespace perfbench {

using namespace sinclave;

/// The SigStruct names `signer` as its signer and its RSA signature
/// verifies under that key.
bool sigstruct_verifies(const sgx::SigStruct& sigstruct,
                        const crypto::RsaPublicKey& signer);

template <typename T>
bool pairwise_distinct(const std::vector<T>& values) {
  return std::set<T>(values.begin(), values.end()).size() == values.size();
}

/// The verifier's spent-token count moved by exactly the number of spends
/// the clients saw accepted.
inline bool ledger_matches(std::size_t used_delta, std::size_t counted) {
  return used_delta == counted;
}

/// Open the host's ciphertext blobs under `key`, check the manifest
/// against `manifest_root` and that `name` decrypts to `plaintext`.
bool volume_matches(ByteView key, const std::map<std::string, Bytes>& blobs,
                    const Hash256& manifest_root, const std::string& name,
                    const Bytes& plaintext);

/// Construct the enclave the credential names on `cpu` and run EINIT with
/// its SigStruct; true when EINIT accepts and the CPU-measured MRENCLAVE is
/// the SigStruct's. The enclave is removed again either way.
bool einit_accepts(sgx::SgxCpu& cpu, const core::EnclaveImage& image,
                   const sgx::SigStruct& sigstruct,
                   const core::InstancePage& page);

/// Copy of `value` with one byte of its serialized form flipped.
Bytes flip_byte(Bytes value, std::size_t index);

}  // namespace perfbench
