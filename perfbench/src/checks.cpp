#include "checks.h"

#include "common/error.h"
#include "fs/encrypted_volume.h"
#include "runtime/starter.h"

namespace perfbench {

bool sigstruct_verifies(const sgx::SigStruct& sigstruct,
                        const crypto::RsaPublicKey& signer) {
  return sigstruct.signer_key == signer &&
         signer.verify_pkcs1_sha256(sigstruct.signing_message(),
                                    sigstruct.signature);
}

bool volume_matches(ByteView key, const std::map<std::string, Bytes>& blobs,
                    const Hash256& manifest_root, const std::string& name,
                    const Bytes& plaintext) {
  const fs::EncryptedVolume volume = fs::EncryptedVolume::adopt(
      key, crypto::Drbg::from_seed(0, "perfbench-volume-read"), blobs);
  try {
    if (volume.manifest_root() != manifest_root) return false;
  } catch (const sinclave::Error&) {
    return false;  // a blob failed authentication
  }
  const std::optional<Bytes> content = volume.read_file(name);
  return content.has_value() && *content == plaintext;
}

bool einit_accepts(sgx::SgxCpu& cpu, const core::EnclaveImage& image,
                   const sgx::SigStruct& sigstruct,
                   const core::InstancePage& page) {
  const runtime::StartedEnclave enclave =
      runtime::start_enclave(cpu, image, sigstruct, page);
  const bool ok = enclave.ok() && cpu.identity(enclave.id).mr_enclave ==
                                      sigstruct.enclave_hash;
  cpu.eremove(enclave.id);
  return ok;
}

Bytes flip_byte(Bytes value, std::size_t index) {
  if (!value.empty()) value[index % value.size()] ^= 0x01;
  return value;
}

}  // namespace perfbench
