// Benchmark harness shared by the three workloads: the workload interface,
// the timed loop, the per-layer unit-cost probes and the JSON result.
//
// Everything here drives the program through its public headers only; no
// code under src/ is changed or copied.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "crypto/work.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the benchmark's own input generator, independent of the
/// program's DRBG so that inputs depend on --seed alone.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  uint64_t range(uint64_t lo, uint64_t hi) { return lo + next() % (hi - lo + 1); }
  /// `n` bytes drawn from `alphabet`.
  std::string text(size_t n, std::string_view alphabet) {
    std::string s(n, '\0');
    for (char& c : s) c = alphabet[next() % alphabet.size()];
    return s;
  }

 private:
  uint64_t state_;
};

/// One end-to-end scenario. The harness calls setup() once, then op() in
/// whole rounds, then check(). Only op() is timed.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Deployment, enclave launch, attestation and provisioning.
  virtual void setup() = 0;
  /// Ops per round; every run attempts whole rounds.
  virtual size_t round_size() const = 0;
  /// Ops run before timing starts (a whole number of rounds).
  virtual size_t warmup_ops() const = 0;
  /// Ops after which the deployment is replaced by a fresh one (a whole
  /// number of rounds). Deployments keep state that grows with every op,
  /// so without renewal per-op cost and memory grow with the run's length,
  /// and thus with host speed.
  virtual uint64_t ops_per_deployment() const = 0;
  /// Checks the current deployment's outputs (as check() does) and builds
  /// a fresh one like setup(). Called untimed, between rounds.
  virtual void renew() = 0;
  /// Runs op `i`. Returns false if the op produced no output.
  virtual bool op(uint64_t i) = 0;
  /// Untimed bookkeeping after op `i`: the application payload bytes it
  /// delivered end to end.
  virtual uint64_t delivered_bytes(uint64_t i) = 0;
  /// Compares every output against the benchmark's own computation;
  /// returns one line per mismatch (empty = correct).
  virtual std::vector<std::string> check() = 0;
  /// Ops that check() found without output (for workloads whose op()
  /// cannot see delivery itself). check() also reports each as an error.
  virtual uint64_t undelivered() const { return 0; }

  /// Every enclave node of the deployment (modeled cost, ecall probes).
  virtual std::vector<tenet::core::EnclaveNode*> enclave_nodes() = 0;

  // --- Traced run: unit costs measured on workload-shaped inputs ---
  /// Host ns per byte of DpiScanner::scan on this workload's pattern set
  /// and records (0 when the workload runs no DPI).
  virtual double dpi_ns_per_byte() { return 0; }
  /// Host ms of one BgpComputation::compute on the live policies (0 when
  /// the workload runs no routing).
  virtual double routing_compute_ms() { return 0; }

  /// Test hook for the negative controls: corrupts one observed output
  /// (or one expected value) named by `fault` before check() runs.
  /// Returns false if the workload does not know the fault.
  virtual bool inject(const std::string& fault) = 0;
};

std::unique_ptr<Workload> make_tor_relay(uint64_t seed);
std::unique_ptr<Workload> make_mbox_dpi(uint64_t seed);
std::unique_ptr<Workload> make_routing_updates(uint64_t seed);

/// Sum of the modeled instruction counts of every node.
tenet::sgx::CostModel::Snapshot total_snapshot(
    const std::vector<tenet::core::EnclaveNode*>& nodes);
tenet::sgx::CostModel::Snapshot minus(const tenet::sgx::CostModel::Snapshot& a,
                                      const tenet::sgx::CostModel::Snapshot& b);
/// Sum of the modeled work counters of every enclave and host domain.
tenet::crypto::WorkCounters total_work(
    const std::vector<tenet::core::EnclaveNode*>& nodes);
tenet::crypto::WorkCounters minus(const tenet::crypto::WorkCounters& a,
                                  const tenet::crypto::WorkCounters& b);

/// Median of `v` (which it sorts).
double median(std::vector<double>& v);
/// Nearest-rank quantile of sorted `v`.
double quantile_sorted(const std::vector<double>& v, double q);

}  // namespace perfbench
