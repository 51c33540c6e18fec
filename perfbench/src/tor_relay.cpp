// tor_relay: closed-loop single-cell requests over 3-hop circuits in the
// fully-SGX Tor design (Phase::kFullySgx: every relay and client is an
// attested enclave, the directory is a Chord DHT).
//
// One op is one request/response round trip. Payloads are 1-483 B: the
// "echo:" reply must still fit one cell, since streams never split data
// across cells (a 484 B request gets no reply). Per-message cost
// dominates here: enclave transitions, onion-layer AES and netsim events.
#include <string>

#include "harness.h"
#include "tor/network.h"

namespace perfbench {
namespace {

using namespace tenet;

constexpr size_t kClients = 3;
constexpr size_t kRelays = 6;
constexpr size_t kMaxPayload = 483;  // largest request whose reply fits a cell
constexpr std::string_view kAlphabet =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -_";

class TorRelay final : public Workload {
 public:
  explicit TorRelay(uint64_t seed)
      : seed_(seed), payloads_(seed ^ 0x746f72ULL), sent_from_(payloads_) {}

  void setup() override {
    sent_from_ = payloads_;
    sent_ = 0;
    tor::TorNetworkConfig cfg;
    cfg.phase = tor::Phase::kFullySgx;
    cfg.n_relays = kRelays;
    cfg.n_clients = kClients;
    cfg.seed = seed_;
    net_ = std::make_unique<tor::TorNetwork>(cfg);
    net_->join_ring_all();
    Rng pick(seed_ ^ 0x70617468ULL);
    for (size_t c = 0; c < kClients; ++c) {
      (void)net_->install_directory_from_ring(c);
      // Three distinct relays per circuit, drawn from the seed.
      size_t hops[3];
      for (size_t h = 0; h < 3; ++h) {
        bool fresh = false;
        while (!fresh) {
          hops[h] = pick.range(0, kRelays - 1);
          fresh = true;
          for (size_t k = 0; k < h; ++k) fresh = fresh && hops[k] != hops[h];
        }
      }
      if (!net_->build_circuit(c, net_->relay(hops[0]).id(),
                               net_->relay(hops[1]).id(),
                               net_->relay(hops[2]).id())) {
        throw std::runtime_error("tor_relay: circuit " + std::to_string(c) +
                                 " failed: " + net_->circuit_failure(c));
      }
    }
  }

  size_t round_size() const override { return kClients; }
  size_t warmup_ops() const override { return 300 * kClients; }
  uint64_t ops_per_deployment() const override { return 1000 * kClients; }

  void renew() override {
    check_deployment();
    net_.reset();
    setup();
  }

  bool op(uint64_t i) override {
    payload_ = payloads_.text(payloads_.range(1, kMaxPayload), kAlphabet);
    reply_ = net_->request(i % kClients, payload_);
    return reply_.has_value();
  }

  uint64_t delivered_bytes(uint64_t i) override {
    ++sent_;
    if (!reply_.has_value()) {
      note("op " + std::to_string(i) + ": no reply");
      return 0;
    }
    if (i == corrupt_op_) (*reply_)[reply_->size() / 2] ^= 0x01;
    if (*reply_ != "echo:" + payload_) {
      note("op " + std::to_string(i) + ": reply differs from \"echo:\" + payload");
      return 0;
    }
    return payload_.size() + reply_->size();
  }

  std::vector<std::string> check() override {
    check_deployment();
    return errors_;
  }

  std::vector<core::EnclaveNode*> enclave_nodes() override {
    std::vector<core::EnclaveNode*> out;
    for (size_t i = 0; i < net_->authority_count(); ++i) out.push_back(&net_->authority(i));
    for (size_t i = 0; i < net_->relay_count(); ++i) out.push_back(&net_->relay(i));
    for (size_t i = 0; i < kClients; ++i) out.push_back(&net_->client(i));
    return out;
  }

  bool inject(const std::string& fault) override {
    if (fault != "reply_byte") return false;
    corrupt_op_ = warmup_ops();  // the first timed op
    return true;
  }

 private:
  /// The destination must have served exactly the payloads sent to this
  /// deployment, in order: regenerate them from the seed.
  void check_deployment() {
    const auto& seen = net_->destination().requests_seen();
    if (seen.size() != sent_) {
      note("destination saw " + std::to_string(seen.size()) + " requests, " +
           std::to_string(sent_) + " sent");
    }
    Rng regen = sent_from_;
    for (size_t k = 0; k < std::min<size_t>(seen.size(), sent_); ++k) {
      const std::string expect = regen.text(regen.range(1, kMaxPayload), kAlphabet);
      if (crypto::to_string(seen[k]) != expect) {
        note("destination request " + std::to_string(k) + " differs from the sent payload");
        break;
      }
    }
  }

  void note(std::string line) {
    if (errors_.size() < 10) errors_.push_back("tor_relay: " + std::move(line));
  }

  uint64_t seed_;
  Rng payloads_;
  Rng sent_from_;  // payloads_ as this deployment started
  std::unique_ptr<tor::TorNetwork> net_;
  std::string payload_;
  std::optional<std::string> reply_;
  uint64_t sent_ = 0;
  uint64_t corrupt_op_ = UINT64_MAX;
  std::vector<std::string> errors_;
};

}  // namespace

std::unique_ptr<Workload> make_tor_relay(uint64_t seed) {
  return std::make_unique<TorRelay>(seed);
}

}  // namespace perfbench
