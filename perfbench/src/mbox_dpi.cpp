// mbox_dpi: concurrent TLS sessions through a chain of two attested DPI
// middleboxes (both endpoints attest the chain and provision the session
// keys). Records of 64 B-4 KB are interleaved across the sessions; the
// server echoes "ok:" + record. A seeded pattern set is planted at known
// offsets, some patterns split across two records of one session.
//
// One op is one record delivered and echoed. Per-byte cost dominates
// here: bulk record crypto and the Aho-Corasick scan.
#include <string>

#include "harness.h"
#include "mbox/dpi.h"
#include "mbox/scenario.h"

namespace perfbench {
namespace {

using namespace tenet;

constexpr size_t kSessions = 4;
constexpr size_t kMiddleboxes = 2;
constexpr size_t kPatterns = 24;
// Record background and patterns share one 16-letter alphabet; patterns
// are 6-12 letters long, so chance matches are rare but still counted.
constexpr std::string_view kAlphabet = "abcdefghijklmnop";

/// The seeded input stream: patterns, then records in op order. Replayable
/// from the seed, so the check regenerates what was sent instead of
/// keeping it.
class RecordSource {
 public:
  explicit RecordSource(uint64_t seed) : rng_(seed ^ 0x6d626f78ULL) {
    Rng pat(seed ^ 0x706174ULL);
    for (size_t i = 0; i < kPatterns; ++i) {
      patterns_.push_back(pat.text(pat.range(6, 12), kAlphabet));
    }
  }

  [[nodiscard]] const std::vector<std::string>& patterns() const { return patterns_; }

  /// Next record for `session`. Sizes are 64 << k for k in 0..6, each k
  /// once in every 7 records in a seeded order, so that every seed sends
  /// the same bytes per op; half the records carry a planted pattern, a
  /// quarter of those split across this record and the session's next one.
  std::string next(size_t session) {
    std::string& carry = carry_[session];
    if (sizes_.empty()) {
      for (size_t k = 0; k < 7; ++k) sizes_.push_back(size_t{64} << k);
      for (size_t k = sizes_.size() - 1; k > 0; --k) {
        std::swap(sizes_[k], sizes_[rng_.range(0, k)]);
      }
    }
    const size_t size = sizes_.back();
    sizes_.pop_back();
    std::string rec = carry.substr(0, size);
    carry.erase(0, rec.size());
    rec += rng_.text(size - rec.size(), kAlphabet);
    if (rng_.range(0, 1) == 1) {
      const std::string& p = patterns_[rng_.range(0, kPatterns - 1)];
      if (rng_.range(0, 3) == 0) {
        const size_t head = rng_.range(1, p.size() - 1);
        rec.replace(rec.size() - head, head, p, 0, head);
        carry += p.substr(head);
      } else {
        // Clear of the carried-in head and of the record's last 12 bytes.
        rec.replace(rng_.range(12, rec.size() - p.size() - 12), p.size(), p);
      }
    }
    return rec;
  }

  /// Drops split-pattern tails (a new deployment starts new streams).
  void clear_carry() {
    for (std::string& c : carry_) c.clear();
  }

 private:
  Rng rng_;
  std::vector<std::string> patterns_;
  std::vector<size_t> sizes_;  // the rest of the current 7 record sizes
  std::string carry_[kSessions];
};

/// Naive overlapping substring count over one direction of one session's
/// stream, fed record by record; keeps the last (longest pattern - 1)
/// bytes so matches across records are counted once.
class StreamCounter {
 public:
  uint64_t feed(const std::vector<std::string>& patterns, const std::string& chunk) {
    const std::string buf = tail_ + chunk;
    uint64_t n = 0;
    for (const std::string& p : patterns) {
      // Count matches that end inside `chunk` (the tail was counted before).
      for (size_t at = buf.find(p); at != std::string::npos; at = buf.find(p, at + 1)) {
        if (at + p.size() > tail_.size()) ++n;
      }
    }
    const size_t keep = std::min<size_t>(buf.size(), 11);
    tail_ = buf.substr(buf.size() - keep);
    return n;
  }

 private:
  std::string tail_;
};

class MboxDpi final : public Workload {
 public:
  explicit MboxDpi(uint64_t seed) : seed_(seed), source_(seed), sent_from_(seed) {}

  void setup() override {
    source_.clear_carry();
    sent_from_ = source_;
    sids_.clear();
    for (size_t s = 0; s < kSessions; ++s) c2s_[s] = s2c_[s] = StreamCounter{};
    expected_alerts_ = records_ = 0;
    mbox::MboxScenarioConfig cfg;
    cfg.n_middleboxes = kMiddleboxes;
    cfg.patterns = source_.patterns();
    cfg.seed = seed_;
    dep_ = std::make_unique<mbox::MboxDeployment>(cfg);
    for (size_t s = 0; s < kSessions; ++s) {
      const uint32_t sid = dep_->open_session();
      if (!dep_->established(sid)) throw std::runtime_error("mbox_dpi: handshake failed");
      dep_->provision_from_client(sid);
      dep_->provision_from_server(sid);
      for (size_t m = 0; m < kMiddleboxes; ++m) {
        if (!dep_->session_active(m, sid)) {
          throw std::runtime_error("mbox_dpi: middlebox not provisioned");
        }
      }
      sids_.push_back(sid);
    }
  }

  size_t round_size() const override { return kSessions; }
  size_t warmup_ops() const override { return 200 * kSessions; }
  uint64_t ops_per_deployment() const override { return 500 * kSessions; }

  void renew() override {
    check_deployment();
    dep_.reset();
    setup();
  }

  bool op(uint64_t) override {
    record_ = source_.next(records_ % kSessions);
    dep_->send(sids_[records_ % kSessions], record_);
    return true;
  }

  uint64_t delivered_bytes(uint64_t) override {
    const size_t s = records_ % kSessions;
    expected_alerts_ += c2s_[s].feed(source_.patterns(), record_);
    expected_alerts_ += s2c_[s].feed(source_.patterns(), "ok:" + record_);
    ++records_;
    return 2 * record_.size() + 3;
  }

  std::vector<std::string> check() override {
    check_deployment();
    return errors_;
  }

  uint64_t undelivered() const override { return undelivered_; }

  std::vector<core::EnclaveNode*> enclave_nodes() override {
    std::vector<core::EnclaveNode*> out{&dep_->client_node(), &dep_->server_node()};
    for (size_t m = 0; m < kMiddleboxes; ++m) out.push_back(&dep_->mbox_node(m));
    return out;
  }

  double dpi_ns_per_byte() override {
    mbox::PatternSet set;
    for (const std::string& p : source_.patterns()) set.add(p);
    set.build();
    RecordSource records(seed_);
    std::vector<crypto::Bytes> stream;
    size_t bytes = 0;
    while (bytes < (size_t{8} << 20)) {
      stream.push_back(crypto::to_bytes(records.next(0)));
      bytes += stream.back().size();
    }
    mbox::DpiScanner scanner(set);
    size_t matches = 0;
    const auto t0 = Clock::now();
    for (const crypto::Bytes& rec : stream) matches += scanner.scan(rec).size();
    const double ns = seconds_since(t0) * 1e9;
    if (matches == 0) throw std::runtime_error("mbox_dpi: probe found no matches");
    return ns / static_cast<double>(bytes);
  }

  bool inject(const std::string& fault) override {
    if (fault == "echo_byte") {
      corrupt_echo_ = true;
    } else if (fault == "alert_count") {
      alert_skew_ = 1;
    } else {
      return false;
    }
    return true;
  }

 private:
  /// Regenerates the records sent to this deployment and compares both
  /// ends in order, then the middleboxes' counters.
  void check_deployment() {
    RecordSource regen = sent_from_;
    std::vector<std::vector<std::string>> server(kSessions), client(kSessions);
    for (size_t s = 0; s < kSessions; ++s) {
      server[s] = dep_->server_received(sids_[s]);
      client[s] = dep_->client_received(sids_[s]);
    }
    if (corrupt_echo_) {
      client[0].front()[0] ^= 0x01;
      corrupt_echo_ = false;
    }
    std::vector<size_t> at(kSessions, 0);
    for (uint64_t i = 0; i < records_; ++i) {
      const size_t s = i % kSessions;
      const std::string rec = regen.next(s);
      const size_t k = at[s]++;
      if (k >= server[s].size() || server[s][k] != rec) {
        note("session " + std::to_string(s) + " record " + std::to_string(k) +
             ": server did not receive the sent record");
        ++undelivered_;
      } else if (k >= client[s].size() || client[s][k] != "ok:" + rec) {
        note("session " + std::to_string(s) + " record " + std::to_string(k) +
             ": client did not receive \"ok:\" + record");
        ++undelivered_;
      }
    }
    for (size_t s = 0; s < kSessions; ++s) {
      if (server[s].size() != at[s] || client[s].size() != at[s]) {
        note("session " + std::to_string(s) + ": extra records delivered");
      }
    }
    for (size_t m = 0; m < kMiddleboxes; ++m) {
      const uint64_t alerts = dep_->alerts(m);
      if (alerts != expected_alerts_ - alert_skew_) {
        note("mbox " + std::to_string(m) + " raised " + std::to_string(alerts) +
             " alerts, naive count is " +
             std::to_string(expected_alerts_ - alert_skew_));
      }
      const uint64_t inspected = dep_->inspected(m);
      if (inspected != 2 * records_) {
        note("mbox " + std::to_string(m) + " inspected " + std::to_string(inspected) +
             " records, expected " + std::to_string(2 * records_));
      }
    }
  }

  void note(std::string line) {
    if (errors_.size() < 10) errors_.push_back("mbox_dpi: " + std::move(line));
  }

  uint64_t seed_;
  RecordSource source_;
  RecordSource sent_from_;  // source_ as this deployment started
  std::unique_ptr<mbox::MboxDeployment> dep_;
  std::vector<uint32_t> sids_;
  std::string record_;
  StreamCounter c2s_[kSessions], s2c_[kSessions];
  uint64_t expected_alerts_ = 0;
  uint64_t alert_skew_ = 0;  // negative control: one alert left out
  uint64_t records_ = 0;
  uint64_t undelivered_ = 0;
  bool corrupt_echo_ = false;
  std::vector<std::string> errors_;
};

}  // namespace

std::unique_ptr<Workload> make_mbox_dpi(uint64_t seed) {
  return std::make_unique<MboxDpi>(seed);
}

}  // namespace perfbench
