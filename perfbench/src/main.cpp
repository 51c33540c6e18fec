// perfbench: end-to-end and per-layer benchmark of the paper's three
// applications (Tor relay, DPI middlebox, live routing updates).
//
//   perfbench --workload <tor_relay|mbox_dpi|routing_updates> --seed <n>
//             --seconds <s> --trace <0|1> [--inject <fault>]
//
// --trace 0 prints the end-to-end metrics, measured with telemetry off.
// --trace 1 prints the per-layer metrics: the run times one window whose
// slices switch telemetry off and on in turn, takes per-op counts from the
// telemetry registry and the cost model's work counters, and times each
// layer's public functions on workload-shaped inputs; layer host time =
// count x unit cost, and the rest of the untraced op is the residual.
// Host times are scaled to a reference host speed (see "Host speed"). --inject corrupts one output or expected
// value (a negative control); the run must then report correct=false.
//
// The last stdout line is the JSON result; progress goes to stderr.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory_resource>
#include <sstream>

#include "core/ports.h"
#include "core/open_project.h"
#include "crypto/aes.h"
#include "crypto/dh.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "harness.h"
#include "telemetry/telemetry.h"

using namespace tenet;

namespace perfbench {
namespace {

// Every window times at least this many ops (whole rounds of every
// workload: 3 Tor clients, 4 TLS sessions, 1 routing update). The modeled
// per-op metrics are taken over exactly these first ops, so they depend on
// the seed alone.
constexpr uint64_t kMinOps = 1200;
// A window is cut into slices of at least this much op time, and the
// calibration kernel runs between slices.
constexpr double kSliceSeconds = 0.25;
// Host-time metrics are given at a reference host speed: the one at which
// the calibration kernel takes this long.
constexpr double kReferenceCalibrationUs = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string inject;
};

double cycles(const sgx::CostModel::Snapshot& s) { return sgx::CostModel().cycles_of(s); }

// --- Host speed -----------------------------------------------------------
//
// Other tenants of the host change its speed by a quarter or more, in
// states that last from a few seconds to longer than a run. The CPU clock
// barely moves: what changes is how fast the memory system serves
// allocation-heavy, pointer-chasing code such as the emulator's. A fixed
// kernel of the benchmark's own, with the same kind of work, is timed
// between slices of ops, and each slice's op times are scaled by
// kReferenceCalibrationUs / (the kernel's time around the slice). The
// kernel allocates from its own fixed arena, so no state of the program
// reaches it.

volatile uint64_t g_calibration_sink = 0;

/// Host microseconds of one run of the calibration kernel: 6,000 inserts
/// of short strings into an ordered map, then one walk over it.
double calibration_us() {
  static std::vector<std::byte> arena(size_t{1} << 20);
  const auto t0 = Clock::now();
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::map<uint64_t, std::pmr::string> map(&pool);
  Rng keys(9);
  uint64_t sum = 0;
  for (int i = 0; i < 6000; ++i) {
    const auto [it, fresh] = map.try_emplace(
        keys.next() % 10000, std::pmr::string(40, static_cast<char>('a' + i % 26), &pool));
    sum += it->first + (fresh ? 1 : 0);
  }
  for (const auto& [key, value] : map) sum += key + static_cast<uint8_t>(value[7]);
  g_calibration_sink = g_calibration_sink + sum;
  return seconds_since(t0) * 1e6;
}

/// Median of `n` kernel runs.
double calibration_us(int n) {
  std::vector<double> us;
  for (int k = 0; k < n; ++k) us.push_back(calibration_us());
  return median(us);
}

/// The host time that `fn` measures and returns, in any unit, scaled to
/// the reference host speed by kernel runs just before and after it.
template <typename Fn>
double at_reference_speed(Fn&& fn) {
  const double before = calibration_us(3);
  const double host = fn();
  return host * kReferenceCalibrationUs / ((before + calibration_us(3)) / 2);
}

// --- Timed loop -----------------------------------------------------------

/// Runs the workload's ops in whole rounds and renews its deployment when
/// due. Keeps modeled cost and work counters summed over every deployment
/// since set-up, leaving out the set-up of renewed ones.
class OpRunner {
 public:
  explicit OpRunner(Workload& w) : w_(w) { enter(); }

  /// One round; appends each op's host seconds and adds up the payload
  /// bytes the ops delivered.
  void round(std::vector<double>& secs, uint64_t& bytes, uint64_t& failed) {
    if (in_deployment_ >= w_.ops_per_deployment()) renew();
    for (size_t r = 0; r < w_.round_size(); ++r) {
      const uint64_t i = next_op_++;
      const auto t0 = Clock::now();
      const bool ok = w_.op(i);
      secs.push_back(seconds_since(t0));
      bytes += w_.delivered_bytes(i);
      if (!ok) ++failed;
    }
    in_deployment_ += w_.round_size();
  }

  [[nodiscard]] sgx::CostModel::Snapshot model() const {
    sgx::CostModel::Snapshot s = done_model_;
    s.add(minus(total_snapshot(nodes_), base_model_));
    return s;
  }
  [[nodiscard]] crypto::WorkCounters work() const {
    crypto::WorkCounters c = done_work_;
    c += minus(total_work(nodes_), base_work_);
    return c;
  }

 private:
  void enter() {
    nodes_ = w_.enclave_nodes();
    base_model_ = total_snapshot(nodes_);
    base_work_ = total_work(nodes_);
    in_deployment_ = 0;
  }
  /// Untimed, with telemetry off, so set-up work stays out of the counts.
  void renew() {
    done_model_ = model();
    done_work_ = work();
    const bool traced = telemetry::enabled();
    telemetry::set_enabled(false);
    w_.renew();
    telemetry::set_enabled(traced);
    enter();
  }

  Workload& w_;
  uint64_t next_op_ = 0;
  uint64_t in_deployment_ = 0;
  std::vector<core::EnclaveNode*> nodes_;
  sgx::CostModel::Snapshot base_model_, done_model_;
  crypto::WorkCounters base_work_, done_work_;
};

struct Slice {
  size_t begin = 0, end = 0;  // its ops, as indices into Window::secs
  double seconds = 0;         // host seconds of its ops
  uint64_t bytes = 0;         // payload bytes its ops delivered
  double scale = 1;           // kReferenceCalibrationUs / kernel time around it
  bool traced = false;
  [[nodiscard]] size_t ops() const { return end - begin; }
  [[nodiscard]] double mean_us() const { return seconds * scale * 1e6 / ops(); }
};

struct Window {
  std::vector<double> secs;  // host seconds of each op
  std::vector<Slice> slices;
  uint64_t failed = 0;
  sgx::CostModel::Snapshot model_delta;  // over the first kMinOps ops
  double calibration_us = 0;             // median kernel time
};

/// Runs whole rounds until `seconds` have passed and at least kMinOps ops
/// were timed. With `alternate_tracing`, telemetry is on in every second
/// slice, starting with the second.
Window run_window(OpRunner& d, double seconds, bool alternate_tracing) {
  Window win;
  // Reserved, not touched: resident memory then grows with the ops run,
  // without the copies of a growing vector in peak_rss_mb.
  win.secs.reserve(kMinOps + static_cast<size_t>(seconds * 20000));
  const auto model0 = d.model();
  const auto start = Clock::now();
  std::vector<double> kernel{calibration_us()};
  win.slices.emplace_back();
  auto close_slice = [&] {
    kernel.push_back(calibration_us());
    Slice& sl = win.slices.back();
    sl.scale = kReferenceCalibrationUs / ((kernel[kernel.size() - 2] + kernel.back()) / 2);
  };
  while (win.secs.size() < kMinOps || seconds_since(start) < seconds) {
    Slice& sl = win.slices.back();
    const size_t before = win.secs.size();
    d.round(win.secs, sl.bytes, win.failed);
    for (size_t k = before; k < win.secs.size(); ++k) sl.seconds += win.secs[k];
    sl.end = win.secs.size();
    if (before < kMinOps && win.secs.size() >= kMinOps) win.model_delta = minus(d.model(), model0);
    if (sl.seconds >= kSliceSeconds) {
      close_slice();
      Slice next;
      next.begin = next.end = win.secs.size();
      next.traced = alternate_tracing && !sl.traced;
      telemetry::set_enabled(next.traced);
      win.slices.push_back(next);
    }
  }
  telemetry::set_enabled(false);
  if (win.slices.back().ops() == 0) {
    win.slices.pop_back();
  } else {
    close_slice();
  }
  win.calibration_us = median(kernel);
  return win;
}

/// Host-time figures at the reference speed over every op of the window's
/// traced or untraced slices.
struct HostTimes {
  uint64_t ops = 0;
  double ops_per_s = 0;
  double bytes_per_s = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

HostTimes host_times(const Window& win, bool traced) {
  HostTimes t;
  double seconds = 0;
  uint64_t bytes = 0;
  std::vector<double> op_us;
  op_us.reserve(win.secs.size());
  for (const Slice& sl : win.slices) {
    if (sl.traced != traced) continue;
    seconds += sl.seconds * sl.scale;
    bytes += sl.bytes;
    for (size_t k = sl.begin; k < sl.end; ++k) op_us.push_back(win.secs[k] * sl.scale * 1e6);
  }
  std::sort(op_us.begin(), op_us.end());
  t.ops = op_us.size();
  t.ops_per_s = static_cast<double>(t.ops) / seconds;
  t.bytes_per_s = static_cast<double>(bytes) / seconds;
  t.mean_us = seconds * 1e6 / static_cast<double>(t.ops);
  t.p50_us = quantile_sorted(op_us, 0.50);
  t.p99_us = quantile_sorted(op_us, 0.99);
  return t;
}

/// Median over adjacent (untraced, traced) slice pairs of the traced
/// slice's extra mean op time, in percent.
double trace_overhead_pct(const Window& win) {
  std::vector<double> pct;
  for (size_t k = 0; k + 1 < win.slices.size(); ++k) {
    const Slice& plain = win.slices[k];
    const Slice& traced = win.slices[k + 1];
    if (plain.traced || !traced.traced || traced.seconds < kSliceSeconds) continue;
    pct.push_back((traced.mean_us() / plain.mean_us() - 1) * 100);
  }
  return median(pct);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

// --- Unit-cost probes (traced run only) -----------------------------------

// Probe results land here so the timed calls cannot be optimised away.
volatile uint64_t g_sink = 0;

/// Repeats `fn` until ~`budget` seconds have passed; returns seconds/call.
template <typename Fn>
double time_per_call(double budget, Fn&& fn) {
  std::vector<double> per;
  const auto start = Clock::now();
  while (per.size() < 5 || seconds_since(start) < budget) {
    const auto t0 = Clock::now();
    for (int k = 0; k < 64; ++k) fn();
    per.push_back(seconds_since(t0) / 64);
  }
  return median(per);
}

double aes_ns_per_block(size_t bytes) {
  crypto::AesKey128 key{};
  key[0] = 0x2b;
  const crypto::Aes128 aes(key);
  const crypto::Bytes buf(bytes, 0x5a);
  uint64_t nonce = 0;
  const double s = time_per_call(0.1, [&] { g_sink = g_sink + aes.ctr_crypt(++nonce, 0, buf)[0]; });
  return s * 1e9 / static_cast<double>((bytes + 15) / 16);
}

double sha256_ns_per_block(size_t bytes) {
  crypto::Bytes buf(bytes, 0x3c);
  const double s = time_per_call(0.1, [&] {
    ++buf[0];
    g_sink = g_sink + crypto::Sha256::hash(buf)[0];
  });
  return s * 1e9 / static_cast<double>((bytes + 9 + 63) / 64);
}

double dh_us() {
  auto rng = crypto::Drbg::from_label(7, "perfbench.dh");
  const crypto::DhGroup& group = crypto::DhGroup::oakley_group2();
  const crypto::DhKeyPair peer(group, rng);
  const double s = time_per_call(0.2, [&] {
    const crypto::DhKeyPair mine(group, rng);
    g_sink = g_sink + mine.shared_secret(peer.public_value())[0];
  });
  return s * 1e6;
}

double ecall_us(const std::vector<core::EnclaveNode*>& nodes) {
  size_t k = 0;
  const double s = time_per_call(0.2, [&] {
    g_sink = g_sink + nodes[k++ % nodes.size()]->query(core::kQueryAttestedPeerCount);
  });
  return s * 1e6;
}

class SinkNode final : public netsim::Node {
 public:
  using netsim::Node::Node;
  void handle_message(const netsim::Message&) override {}
};

double event_ns(size_t message_bytes) {
  netsim::Simulator sim(1);
  SinkNode a(sim, "a"), b(sim, "b");
  const crypto::Bytes payload(message_bytes, 0x11);
  const double s = time_per_call(0.1, [&] {
    a.send(b.id(), 1, payload);
    sim.run();
  });
  return s * 1e9;
}

/// One remote attestation with DH between two fresh enclave nodes running
/// a bare SecureApp.
double attest_ms() {
  class ProbeApp final : public core::SecureApp {
   public:
    using SecureApp::SecureApp;

   protected:
    void on_secure_message(core::Ctx&, netsim::NodeId, crypto::BytesView) override {}
  };
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    netsim::Simulator sim(rep + 1);
    sgx::Authority authority;
    core::OpenProject project("perfbench-probe", "attestation probe v1\n", nullptr);
    const sgx::Authority* auth = &authority;
    const sgx::AttestationConfig policy = project.policy();
    sgx::EnclaveImage image = project.build();
    image.factory = [auth, policy] { return std::make_unique<ProbeApp>(*auth, policy); };
    core::EnclaveNode target(sim, authority, "target", project.foundation(), image);
    core::EnclaveNode challenger(sim, authority, "challenger", project.foundation(), image);
    target.start();
    challenger.start();
    const auto t0 = Clock::now();
    challenger.connect_to(target.id());
    sim.run();
    ms.push_back(seconds_since(t0) * 1e3);
    if (challenger.query(core::kQueryAttestedPeerCount) != 1) {
      throw std::runtime_error("attestation probe failed");
    }
  }
  return median(ms);
}

// --- Output ---------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    std::ostringstream v;
    v.precision(17);
    v << value;
    if (!out_.empty()) out_ += ", ";
    out_ += "\"" + name + "\": {\"value\": " + v.str() + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] const std::string& json() const { return out_; }

 private:
  std::string out_;
};

uint64_t counter(const char* name) { return telemetry::registry().counter(name).value(); }

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--inject") a.inject = val;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (argc % 2 == 0) throw std::invalid_argument("options come in pairs");
  return a;
}

int run(const Args& args, Clock::time_point process_start) {
  std::unique_ptr<Workload> w;
  if (args.workload == "tor_relay") w = make_tor_relay(args.seed);
  else if (args.workload == "mbox_dpi") w = make_mbox_dpi(args.seed);
  else if (args.workload == "routing_updates") w = make_routing_updates(args.seed);
  else throw std::invalid_argument("unknown workload '" + args.workload + "'");

  // Set-up: counted by the registry in the traced run only.
  telemetry::set_enabled(args.trace);
  w->setup();
  const double setup_host_s = seconds_since(process_start);
  telemetry::set_enabled(false);
  const double setup_s = setup_host_s * kReferenceCalibrationUs / calibration_us(3);
  const auto setup_model = total_snapshot(w->enclave_nodes());
  const auto setup_work = total_work(w->enclave_nodes());
  const uint64_t setup_attestations = counter("attest.established");
  if (!args.inject.empty() && !w->inject(args.inject)) {
    throw std::invalid_argument("unknown fault '" + args.inject + "' for " + args.workload);
  }

  OpRunner runner(*w);
  uint64_t attempted = 0, failed = 0;
  {
    std::vector<double> secs;
    uint64_t bytes = 0;
    while (secs.size() < w->warmup_ops()) runner.round(secs, bytes, failed);
    attempted = secs.size();
  }

  Metrics m;
  if (!args.trace) {
    const Window win = run_window(runner, args.seconds, false);
    const double rss_mb = peak_rss_mb();  // before the benchmark's own sorting
    attempted += win.secs.size();
    failed += win.failed;
    const HostTimes t = host_times(win, false);
    m.add("ops_per_s", t.ops_per_s, "op/s");
    m.add("op_p50_us", t.p50_us, "us");
    m.add("op_p99_us", t.p99_us, "us");
    m.add("goodput_mb_per_s", t.bytes_per_s / 1e6, "MB/s");
    m.add("modeled_cycles_per_op", cycles(win.model_delta) / kMinOps, "cycles");
    m.add("sgx_instr_per_op", static_cast<double>(win.model_delta.sgx_user) / kMinOps,
          "instr");
    m.add("setup_s", setup_s, "s");
    m.add("setup_modeled_cycles", cycles(setup_model), "cycles");
    m.add("peak_rss_mb", rss_mb, "MB");
  } else {
    // One window with telemetry on in every second slice: the registry
    // counts the traced slices' ops, the work counters count every op.
    telemetry::registry().reset_values();
    const auto work0 = runner.work();
    const Window win = run_window(runner, args.seconds, true);
    const auto work = runner.work();
    const auto nodes = w->enclave_nodes();
    attempted += win.secs.size();
    failed += win.failed;
    const HostTimes plain = host_times(win, false);
    const double ops = static_cast<double>(host_times(win, true).ops);
    const double all_ops = static_cast<double>(win.secs.size());
    auto per_op = [&](const char* name) { return counter(name) / ops; };

    const double msg_bytes =
        counter("net.messages_sent") ? counter("net.bytes_sent") /
                                           static_cast<double>(counter("net.messages_sent"))
                                     : 512.0;
    const size_t shaped = std::max<size_t>(16, static_cast<size_t>(msg_bytes));
    const double aes_blocks = (work.aes_blocks - work0.aes_blocks) / all_ops;
    const double sha_blocks = (work.sha256_blocks - work0.sha256_blocks) / all_ops;
    const double aes_ns = at_reference_speed([&] { return aes_ns_per_block(shaped); });
    const double sha_ns = at_reference_speed([&] { return sha256_ns_per_block(shaped); });
    const double crypto_us = (aes_blocks * aes_ns + sha_blocks * sha_ns) / 1e3;
    m.add("crypto.aes_blocks", aes_blocks, "count");
    m.add("crypto.aes_key_schedules",
          (work.aes_key_schedules - work0.aes_key_schedules) / all_ops, "count");
    m.add("crypto.sha256_blocks", sha_blocks, "count");
    m.add("crypto.aes_ns_per_block", aes_ns, "ns");
    m.add("crypto.sha256_ns_per_block", sha_ns, "ns");
    m.add("crypto.limb_muladds", static_cast<double>(setup_work.limb_muladds), "count");
    m.add("crypto.dh_us", at_reference_speed(dh_us), "us");
    m.add("crypto.host_us", crypto_us, "us");

    const double ecalls = per_op("sgx.eenter");
    const double ecall = at_reference_speed([&] { return ecall_us(nodes); });
    double pages = 0;
    for (core::EnclaveNode* n : nodes) {
      pages += static_cast<double>(n->platform().epc().pages_of(n->enclave().id()));
    }
    m.add("sgx.ecalls", ecalls, "count");
    m.add("sgx.ocalls", per_op("sgx.ocall"), "count");
    m.add("sgx.boundary_bytes", per_op("sgx.boundary_bytes"), "count");
    m.add("sgx.epc_pages_per_enclave", pages / static_cast<double>(nodes.size()), "count");
    m.add("sgx.ecall_us", ecall, "us");
    m.add("sgx.host_us", ecalls * ecall, "us");

    const double messages = per_op("net.messages_delivered");
    const double event = at_reference_speed([&] { return event_ns(shaped); });
    m.add("netsim.messages", messages, "count");
    m.add("netsim.bytes", per_op("net.bytes_sent"), "count");
    m.add("netsim.timers", per_op("net.timer.scheduled"), "count");
    m.add("netsim.records_sealed", per_op("chan.records_sealed"), "count");
    m.add("netsim.event_ns", event, "ns");
    m.add("netsim.host_us", messages * event / 1e3, "us");

    m.add("core.attestations", static_cast<double>(setup_attestations), "count");
    m.add("core.attest_ms", at_reference_speed(attest_ms), "ms");
    m.add("core.shard_appends", per_op("shard.appends_sent"), "count");
    m.add("core.shard_entries_applied", per_op("shard.entries_applied"), "count");

    m.add("tor.relayed_cells", per_op("app.tor.relayed_cells"), "count");

    const double scanned = per_op("app.mbox.bytes_scanned");
    const double dpi_ns = at_reference_speed([&] { return w->dpi_ns_per_byte(); });
    m.add("mbox.bytes_scanned", scanned, "count");
    m.add("mbox.dpi_matches", per_op("app.mbox.dpi_matches"), "count");
    m.add("mbox.dpi_ns_per_byte", dpi_ns, "ns");
    m.add("mbox.host_us", scanned * dpi_ns / 1e3, "us");

    const double submissions = per_op("app.routing.policy_submissions");
    const double compute_ms = at_reference_speed([&] { return w->routing_compute_ms(); });
    m.add("routing.submissions", submissions, "count");
    m.add("routing.compute_ms", compute_ms, "ms");
    m.add("routing.host_us", submissions * compute_ms * 1e3, "us");

    const double layers_us = crypto_us + ecalls * ecall + messages * event / 1e3 +
                             scanned * dpi_ns / 1e3 + submissions * compute_ms * 1e3;
    m.add("op_mean_us", plain.mean_us, "us");
    m.add("residual_us", plain.mean_us - layers_us, "us");
    m.add("telemetry.trace_overhead_pct", trace_overhead_pct(win), "%");
    m.add("host.calibration_us", win.calibration_us, "us");
  }

  const std::vector<std::string> errors = w->check();
  failed += w->undelivered();
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  try {
    return perfbench::run(perfbench::parse(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
