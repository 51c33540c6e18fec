#include "harness.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

tenet::crypto::WorkCounters total_work(
    const std::vector<tenet::core::EnclaveNode*>& nodes) {
  tenet::crypto::WorkCounters sum;
  for (tenet::core::EnclaveNode* node : nodes) {
    sum += node->platform().host_cost().work();
    for (tenet::sgx::Enclave* e : node->platform().enclaves()) sum += e->cost().work();
  }
  return sum;
}

tenet::sgx::CostModel::Snapshot total_snapshot(
    const std::vector<tenet::core::EnclaveNode*>& nodes) {
  tenet::sgx::CostModel::Snapshot sum;
  for (tenet::core::EnclaveNode* n : nodes) sum.add(n->cost_snapshot());
  return sum;
}

tenet::sgx::CostModel::Snapshot minus(const tenet::sgx::CostModel::Snapshot& a,
                                      const tenet::sgx::CostModel::Snapshot& b) {
  return {a.sgx_user - b.sgx_user,
          a.sgx_priv - b.sgx_priv,
          a.normal - b.normal,
          a.transitions - b.transitions,
          a.switchless_hits - b.switchless_hits,
          a.switchless_fallbacks - b.switchless_fallbacks};
}

tenet::crypto::WorkCounters minus(const tenet::crypto::WorkCounters& a,
                                  const tenet::crypto::WorkCounters& b) {
  tenet::crypto::WorkCounters d;
  d.sha256_blocks = a.sha256_blocks - b.sha256_blocks;
  d.aes_blocks = a.aes_blocks - b.aes_blocks;
  d.aes_key_schedules = a.aes_key_schedules - b.aes_key_schedules;
  d.chacha_blocks = a.chacha_blocks - b.chacha_blocks;
  d.limb_muladds = a.limb_muladds - b.limb_muladds;
  d.bytes_moved = a.bytes_moved - b.bytes_moved;
  d.alu_ops = a.alu_ops - b.alu_ops;
  return d;
}

double median(std::vector<double>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

}  // namespace perfbench
