// The three workloads and the crypto probes. Each workload runs one cold
// set-up, measures for RunArgs::seconds, checks its outputs (positive
// checks plus negative self-tests on corrupted copies) and returns the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include "crypto/rsa.h"
#include "harness.h"

namespace perfbench {

/// Closed loop, 2 clients: the paper's full singleton start against a
/// single-node CasServer at RSA-3072.
Report run_attested_start(const RunArgs& args);

/// Open loop, seeded Poisson arrivals from one issuing thread: singleton
/// credential retrieval only, against a pre-minting CasServer.
Report run_retrieval_open(const RunArgs& args);

/// Closed loop, 2 clients: attested spends against a 3-node replicated
/// CAS whose ledger starts empty and grows through a fixed spend count.
Report run_cluster_spend(const RunArgs& args);

/// crypto.* per-layer probes at the key size of `key` (the workload's).
void crypto_probes(Report& report, const sinclave::crypto::RsaKeyPair& key);

}  // namespace perfbench
