// routing_updates: live policy updates against the sharded inter-domain
// controller of the SDN routing case study (30 ASes, the paper's Table 4
// size, over 2 controller shards; every AS attests its shard in set-up).
//
// One op is one update round: an AS changes its local preference for one
// neighbour (kCtlUpdateLocalPref), resubmits its policy (kCtlSubmitPolicy),
// and the simulator runs until the controller has recomputed and
// redistributed every table. Routing compute, shard replication and
// control-message fan-out do the work here.
//
// The topology is fixed (ScenarioConfig seed 2015, as in the paper's
// tables) so that every run recomputes the same graph; --seed draws the
// update stream.
#include <string>

#include "harness.h"
#include "netsim/robust_channel.h"
#include "routing/scenario.h"

namespace perfbench {
namespace {

using namespace tenet;

constexpr size_t kAses = 30;
constexpr size_t kShards = 2;
constexpr uint64_t kTopologySeed = 2015;

class RoutingUpdates final : public Workload {
 public:
  explicit RoutingUpdates(uint64_t seed) : updates_(seed ^ 0x626770ULL) {}

  void setup() override {
    routing::ScenarioConfig cfg;
    cfg.n_ases = kAses;
    cfg.seed = kTopologySeed;
    cfg.shards = kShards;
    dep_ = std::make_unique<routing::RoutingDeployment>(cfg);
    dep_->run_attestation_phase();
    dep_->run_routing_phase();
    policies_ = dep_->policies();
    asns_.clear();
    as_ids_.clear();
    for (const auto& [asn, p] : policies_) {
      asns_.push_back(asn);
      as_ids_.push_back(dep_->as_node(asn)->id());
    }
    attestations_ = dep_->total_attestations();
    bytes_seen_ = messages_seen_ = 0;
    (void)delivered_bytes(0);  // start the byte counters after set-up
  }

  size_t round_size() const override { return 1; }
  size_t warmup_ops() const override { return 30; }
  // The controller's EPC footprint grows with every update (replaced
  // policies and partial rows are charged to the enclave heap again and
  // never released), and every ecall walks those pages.
  uint64_t ops_per_deployment() const override { return 200; }

  void renew() override {
    check_deployment();
    dep_.reset();
    setup();
  }

  bool op(uint64_t) override {
    const routing::AsNumber asn = asns_[updates_.range(0, asns_.size() - 1)];
    routing::RoutingPolicy& policy = policies_.at(asn);
    auto it = policy.neighbor_rel.begin();
    std::advance(it, updates_.range(0, policy.neighbor_rel.size() - 1));
    const uint32_t pref = static_cast<uint32_t>(updates_.range(0, 99));
    policy.local_pref[it->first] = pref;  // the benchmark's own copy

    core::EnclaveNode* node = dep_->as_node(asn);
    crypto::Bytes arg;
    crypto::append_u32(arg, it->first);
    crypto::append_u32(arg, pref);
    (void)node->control(routing::kCtlUpdateLocalPref, arg);
    (void)node->control(routing::kCtlSubmitPolicy, {});
    dep_->sim().run();
    return true;
  }

  /// Secure-channel plaintext the ASes received: wire bytes less one
  /// record's framing per message (no telemetry needed).
  uint64_t delivered_bytes(uint64_t) override {
    uint64_t bytes = 0, messages = 0;
    for (const netsim::NodeId id : as_ids_) {
      const netsim::TrafficStats& s = dep_->sim().stats(id);
      bytes += s.bytes_received;
      messages += s.messages_received;
    }
    const uint64_t payload =
        (bytes - bytes_seen_) -
        (messages - messages_seen_) * netsim::RobustChannel::sealed_size(0);
    bytes_seen_ = bytes;
    messages_seen_ = messages;
    return payload;
  }

  std::vector<std::string> check() override {
    check_deployment();
    return errors_;
  }

  std::vector<core::EnclaveNode*> enclave_nodes() override {
    std::vector<core::EnclaveNode*> out;
    for (size_t i = 0; i < dep_->shard_count(); ++i) out.push_back(dep_->shard_node(i));
    for (const routing::AsNumber asn : asns_) out.push_back(dep_->as_node(asn));
    return out;
  }

  double routing_compute_ms() override {
    std::vector<double> ms;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = Clock::now();
      const auto result = routing::BgpComputation::compute(policies_);
      ms.push_back(seconds_since(t0) * 1e3);
      if (result.tables.size() != policies_.size()) {
        throw std::runtime_error("routing_updates: probe compute incomplete");
      }
    }
    return median(ms);
  }

  bool inject(const std::string& fault) override {
    if (fault != "route") return false;
    corrupt_route_ = true;
    return true;
  }

 private:
  /// Every AS's table must equal the reference over the benchmark's copy
  /// of the updated policies and be stable; no attestation after set-up.
  void check_deployment() {
    const auto expected = routing::ReferenceBgp::compute(policies_);
    std::map<routing::AsNumber, routing::RoutingTable> tables;
    for (const routing::AsNumber asn : asns_) tables[asn] = dep_->table_of(asn);
    if (corrupt_route_) {
      routing::Route& r = tables.begin()->second.begin()->second;
      r.as_path.push_back(r.as_path.empty() ? 1 : r.as_path.back() + 1);
    }
    for (const routing::AsNumber asn : asns_) {
      const routing::RoutingTable& got = tables.at(asn);
      const auto ref = expected.find(asn);
      bool same = ref != expected.end() && got.size() == ref->second.size();
      for (auto g = got.begin(); same && g != got.end(); ++g) {
        const auto r = ref->second.find(g->first);
        same = r != ref->second.end() && r->second.as_path == g->second.as_path;
      }
      if (!same) note("AS " + std::to_string(asn) + ": table differs from ReferenceBgp");
    }
    try {
      routing::ReferenceBgp::check_stable(policies_, tables);
    } catch (const std::exception& e) {
      note(std::string("check_stable: ") + e.what());
    }
    const uint64_t attestations = dep_->total_attestations();
    if (attestations != attestations_) {
      note("attestations grew from " + std::to_string(attestations_) + " to " +
           std::to_string(attestations) + " after set-up");
    }
  }

  void note(std::string line) {
    if (errors_.size() < 10) errors_.push_back("routing_updates: " + std::move(line));
  }

  Rng updates_;
  std::unique_ptr<routing::RoutingDeployment> dep_;
  std::map<routing::AsNumber, routing::RoutingPolicy> policies_;
  std::vector<routing::AsNumber> asns_;
  std::vector<netsim::NodeId> as_ids_;
  uint64_t attestations_ = 0;
  uint64_t bytes_seen_ = 0, messages_seen_ = 0;
  bool corrupt_route_ = false;
  std::vector<std::string> errors_;
};

}  // namespace

std::unique_ptr<Workload> make_routing_updates(uint64_t seed) {
  return std::make_unique<RoutingUpdates>(seed);
}

}  // namespace perfbench
