// End-to-end benchmark of the served store (README.md in this directory).
// One invocation runs one workload from a single load-generating process
// over loopback against an in-process ShardedStore -> DocService ->
// DocServer, checks every output against the generator's input text, and
// prints a host fingerprint line followed by one JSON result object as
// the last line of stdout.
//
//   e2e_bench --workload snippet_hot|page_cold|ingest --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--git-sha SHA]
//   e2e_bench --self-test [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics. --trace 1 replays the same
// seeded request stream at each public layer boundary in turn (NetClient,
// DocService::SubmitBatch, ShardedStore, the shard's RlzArchive,
// Factorizer), reads the program's own counters, and reports per-layer
// metrics instead. --self-test runs every workload's checks on tiny
// inputs plus negative cases for the response checker.
//
// Exit status: 0 when every check passed, 1 on a failed check or set-up
// error, 2 on bad usage.

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/dictionary.h"
#include "core/factorizer.h"
#include "corpus/generator.h"
#include "net/doc_server.h"
#include "net/net_client.h"
#include "net/protocol.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "store/decode_scratch.h"
#include "util/random.h"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace rlz {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Captured during static initialization, before main runs: the reference
// point of setup_s, which times one cold set-up from process start.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Set-up failures (the program could not be built, opened, or started)
// and broken invariants of the benchmark end the run without a result.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(1);
}

// Snippet window (the paper's snippet path) and result-page shape.
constexpr size_t kSnippetBytes = 400;
constexpr size_t kPageDocs = 10;
// DocService worker threads, and reader connections (a load-generator
// thread each), in every workload.
constexpr int kServiceWorkers = 2;
constexpr int kReaders = 2;
// Average size of the drifted documents the durable appends write.
constexpr size_t kAppendDocBytes = 4096;
// Durable appends per run, per second of --seconds: the ingest writer's,
// and the probe the read workloads end with so that every workload
// measures the append path and has a WAL for recover_s to replay. A fixed
// count rather than a time keeps the work recovery replays, the WAL's
// size and the memory the appends hold the same however fast they run.
// The ingest writer also keeps to this pace, well under what one writer
// can ack, so it is appending through every window of the readers' pass
// rather than finishing early and leaving the last windows writer-free.
constexpr double kIngestAppendsPerSecond = 500.0;
constexpr double kProbeAppendsPerSecond = 250.0;
// Recovery is timed this many times per run; the fastest is reported,
// since interference from other tenants of the host only slows a reopen.
constexpr int kRecoveries = 5;

struct Workload {
  std::string name;
  size_t corpus_bytes;      // base collection the store is built from
  uint64_t cache_bytes;     // DocService decode cache
  bool pages;               // MultiGet result pages, else 400 B GetRange
  bool zipf;                // Zipfian ids, else uniform
  bool warm;                // whole-document cache warm-up in set-up
  bool writer;              // durable writer beside the readers
  size_t depth;             // requests in flight per connection
  size_t tail_seal_bytes;   // the store's auto-seal threshold
  size_t dict_bytes = 1u << 20;  // total dictionary budget of the store
};

std::vector<Workload> Workloads(bool tiny) {
  std::vector<Workload> all = {
      {"snippet_hot", 24u << 20, 64u << 20, false, true, true, false, 8,
       1u << 20},
      {"page_cold", 64u << 20, 8u << 20, true, false, false, false, 2,
       1u << 20},
      {"ingest", 16u << 20, 32u << 20, false, false, false, true, 4,
       4u << 20},
  };
  if (tiny) {
    for (Workload& w : all) {
      w.corpus_bytes = 1u << 20;
      w.cache_bytes = w.pages ? (256u << 10) : (4u << 20);
      w.tail_seal_bytes = 32u << 10;
      w.dict_bytes = 64u << 10;
    }
  }
  return all;
}

// ---------------------------------------------------------------------------
// Inputs

struct Inputs {
  Collection base;     // what the store is built from
  Collection appends;  // drifted documents for durable appends, in order
  std::vector<uint32_t> hot_order;  // Zipf rank -> doc id
  std::unique_ptr<ZipfSampler> zipf;

  // The generator's text for `id`: base docs first, appends after.
  std::string_view Text(size_t id) const {
    return id < base.num_docs() ? base.doc(id)
                                : appends.doc(id - base.num_docs());
  }
};

Collection GenerateBase(uint64_t seed, size_t bytes) {
  CorpusOptions options;
  options.seed = seed;
  options.target_bytes = bytes;
  return GenerateCorpus(options).collection;
}

// Fresh documents from another crawl: new hosts, new vocabulary, smaller
// pages — the drift the §3.6 append dictionary goes stale against. At
// least `docs` documents.
Collection GenerateAppends(uint64_t seed, size_t docs) {
  CorpusOptions options;
  options.seed = seed * 0x9E3779B97F4A7C15ULL + 0xA99E;
  options.avg_doc_bytes = kAppendDocBytes;
  for (options.target_bytes = docs * kAppendDocBytes * 5 / 4;;
       options.target_bytes *= 2) {
    Collection appends = GenerateCorpus(options).collection;
    if (appends.num_docs() >= docs) return appends;
  }
}

// ---------------------------------------------------------------------------
// Requests and the response checker

// One request of the stream: a 400 B window of ids[0] at `offset`, or a
// result page of kPageDocs whole documents.
struct Request {
  uint64_t ids[kPageDocs] = {};
  uint64_t offset = 0;
};

size_t DocsPerRequest(const Workload& w) { return w.pages ? kPageDocs : 1; }

// The seeded request stream of one load-generator thread. Ids are drawn
// from [0, *visible): the base collection, plus acked appends on ingest.
class RequestGen {
 public:
  RequestGen(const Workload& w, const Inputs& in, uint64_t seed, int thread,
             const std::atomic<size_t>* visible)
      : w_(w),
        in_(in),
        rng_(seed * 0xD1B54A32D192ED03ULL + 977 * (thread + 1)),
        visible_(visible) {}

  Request Next() {
    Request r;
    if (w_.pages) {
      for (uint64_t& id : r.ids) id = PickId();
    } else {
      r.ids[0] = PickId();
      const size_t size = in_.Text(r.ids[0]).size();
      r.offset = size == 0 ? 0 : rng_.Uniform(size);
    }
    return r;
  }

 private:
  uint64_t PickId() {
    if (w_.zipf) return in_.hot_order[in_.zipf->Sample(rng_)];
    return rng_.Uniform(visible_->load(std::memory_order_acquire));
  }

  const Workload& w_;
  const Inputs& in_;
  Rng rng_;
  const std::atomic<size_t>* visible_;
};

// Expected bytes of a range request: the input text with substr clamping.
std::string_view ExpectedRange(std::string_view doc, uint64_t offset) {
  return offset < doc.size() ? doc.substr(offset, kSnippetBytes)
                             : std::string_view();
}

enum class Verdict { kOk, kFailed, kWrong };

// Judges one response against the generator's input. kFailed: the
// program answered with an error code (an operation that failed);
// kWrong: it answered OK with bytes that differ from the input.
Verdict CheckResponse(const Workload& w, const Inputs& in, const Request& req,
                      const net::NetResponse& resp, std::string* why) {
  if (!resp.ok()) {
    *why = std::string("error code ") + net::WireCodeToString(resp.code);
    return Verdict::kFailed;
  }
  if (!w.pages) {
    if (resp.payload != ExpectedRange(in.Text(req.ids[0]), req.offset)) {
      *why = "range of doc " + std::to_string(req.ids[0]) + " at " +
             std::to_string(req.offset) + " differs from the input";
      return Verdict::kWrong;
    }
    return Verdict::kOk;
  }
  if (resp.elements.size() != kPageDocs) {
    *why = "page has " + std::to_string(resp.elements.size()) + " elements";
    return Verdict::kWrong;
  }
  for (size_t k = 0; k < kPageDocs; ++k) {
    if (resp.elements[k].code != net::WireCode::kOk) {
      *why = std::string("page element code ") +
             net::WireCodeToString(resp.elements[k].code);
      return Verdict::kFailed;
    }
    if (resp.elements[k].bytes != in.Text(req.ids[k])) {
      *why = "doc " + std::to_string(req.ids[k]) + " differs from the input";
      return Verdict::kWrong;
    }
  }
  return Verdict::kOk;
}

uint64_t PayloadBytes(const Workload& w, const net::NetResponse& resp) {
  if (!w.pages) return resp.payload.size();
  uint64_t n = 0;
  for (const auto& e : resp.elements) n += e.bytes.size();
  return n;
}

// Size of an OK response frame carrying no document bytes, from the
// program's own encoder. Frames are fixed-width apart from the payload,
// so a response's size on the wire is this plus its payload bytes.
uint64_t EmptyFrameBytes(const Workload& w) {
  std::string frame;
  if (w.pages) {
    std::vector<net::MultiGetOut> empty(kPageDocs);
    net::EncodeMultiGetResponse(empty.data(), empty.size(), false, &frame);
  } else {
    net::EncodeDocResponse(net::MessageType::kGetRange, net::WireCode::kOk,
                           std::string_view(), false, &frame);
  }
  return frame.size();
}

// ---------------------------------------------------------------------------
// Shared accounting

// Latencies in fixed memory: log-linear buckets of 1/256 relative width
// over 1/64 us units, so a run's bookkeeping does not grow with its
// request rate (peak_rss_mb measures the whole process).
class Histogram {
 public:
  void Add(double us) {
    ++counts_[Index(static_cast<uint64_t>(std::max(0.0, us) * kUnitsPerUs))];
    ++count_;
  }
  void Merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }
  // Nearest-rank percentile, placed within its bucket by rank.
  double Percentile(double p) const {
    const uint64_t rank =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p * count_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double within = (rank - seen - 0.5) / counts_[i];
        return (Low(i) + within * Width(i)) / kUnitsPerUs;
      }
      seen += counts_[i];
    }
    return 0.0;
  }

 private:
  static constexpr double kUnitsPerUs = 64.0;
  static constexpr int kSubBits = 8;  // 256 sub-buckets per power of two
  static constexpr uint64_t kSub = 1u << kSubBits;
  static constexpr size_t kBuckets = kSub * 34;

  static size_t Index(uint64_t x) {
    if (x < kSub) return x;
    const int shift = (63 - __builtin_clzll(x)) - kSubBits;
    return std::min<size_t>(kBuckets - 1,
                            kSub * (shift + 1) + ((x >> shift) - kSub));
  }
  static double Low(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int shift = static_cast<int>(i / kSub) - 1;
    return static_cast<double>(((i % kSub) + kSub) << shift);
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0 : static_cast<double>(1ull << (i / kSub - 1));
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
};

// A measured phase is recorded in kMaxWindows equal slots (see
// QuietWindows); each window then holds at least kOpsPerWindow
// operations.
constexpr size_t kMaxWindows = 40;
constexpr size_t kOpsPerWindow = 250;

// The latencies of one phase: a histogram per slot of the phase when its
// length is known, else a single slot; plus the sum, for means.
struct Recorder {
  explicit Recorder(double phase_s = 0.0)
      : slot_s(phase_s / kMaxWindows),
        slots(phase_s > 0.0 ? kMaxWindows : 1) {}

  // An operation of `us` that completed `done_s` after the phase began.
  void Add(double done_s, double us) {
    const size_t slot =
        slot_s > 0.0 ? static_cast<size_t>(done_s / slot_s) : 0;
    if (slot < slots.size()) slots[slot].Add(us);
    sum_us += us;
    ++count;
  }
  void Merge(const Recorder& o) {
    if (o.slots.size() != slots.size()) Die("recorders of different phases");
    for (size_t i = 0; i < slots.size(); ++i) slots[i].Merge(o.slots[i]);
    sum_us += o.sum_us;
    count += o.count;
  }
  double MeanUs() const { return count == 0 ? 0.0 : sum_us / count; }
  double PercentileUs(double p) const {
    Histogram all;
    for (const Histogram& h : slots) all.Merge(h);
    return all.Percentile(p);
  }

  double slot_s;
  std::vector<Histogram> slots;
  double sum_us = 0.0;
  uint64_t count = 0;
};

// What a set of load-generator threads saw, summed.
struct Totals {
  explicit Totals(double phase_s = 0.0) : latency(phase_s) {}

  uint64_t requests = 0;      // responses received (or calls made)
  uint64_t failed = 0;        // of those, answered with an error
  uint64_t doc_requests = 0;  // documents asked for (pages count each)
  uint64_t payload_bytes = 0;
  uint64_t frame_bytes = 0;   // OK responses as sized on the wire
  double elapsed_s = 0.0;     // first send to last response
  Recorder latency;
  std::string wrong;          // first wrong answer; empty when none

  void Merge(const Totals& t) {
    requests += t.requests;
    failed += t.failed;
    doc_requests += t.doc_requests;
    payload_bytes += t.payload_bytes;
    frame_bytes += t.frame_bytes;
    elapsed_s = std::max(elapsed_s, t.elapsed_s);
    latency.Merge(t.latency);
    if (wrong.empty()) wrong = t.wrong;
  }
};

// The q-quantile of `v` (0 <= q <= 1), interpolated between the two
// nearest order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct WindowFigures {
  double rate = 0.0;    // operations completed per second
  double p50_us = 0.0;  // median latency of those operations
};

// The quiet windows of a recorded phase: the phase is cut into as many
// equal windows as its slots allow with at least kOpsPerWindow operations
// each; each window's completion rate and median latency come from the
// operations that completed in it. Reported are the upper quartile of the
// window rates and the lower quartile of the window medians.
// Interference from other tenants of the host only ever slows a window
// down, and it comes in bursts of a few seconds that can cover half a
// run; the quietest quarter of the windows still measures the program.
WindowFigures QuietWindows(const Recorder& r) {
  uint64_t total = 0;
  for (const Histogram& h : r.slots) total += h.count();
  size_t windows = 1;
  for (size_t w = r.slots.size(); w > 1; --w) {
    if (r.slots.size() % w == 0 && total / w >= kOpsPerWindow) {
      windows = w;
      break;
    }
  }
  const size_t per = r.slots.size() / windows;
  const double width = r.slot_s * per;
  std::vector<double> rate, p50;
  for (size_t w = 0; w < windows; ++w) {
    Histogram window;
    for (size_t i = w * per; i < (w + 1) * per; ++i) window.Merge(r.slots[i]);
    rate.push_back(window.count() / width);
    if (window.count() == 0) continue;
    p50.push_back(window.Percentile(0.50));
  }
  return {Quantile(rate, 0.75), Quantile(p50, 0.25)};
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

uint64_t DirBytes(const std::string& dir, std::string_view prefix = "") {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (!prefix.empty() &&
        entry.path().filename().string().rfind(prefix, 0) != 0) {
      continue;
    }
    total += entry.file_size();
  }
  return total;
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------------------
// Result

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Wrong(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Wrong("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({name, value, unit});
  }
};

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Layer 0: the socket (NetClient -> DocServer)

// A traced request: its position in the connection's stream and when it
// was sent and answered. Spans stay in memory for the length of the run.
struct Span {
  size_t request;
  Clock::time_point start;
  Clock::time_point end;
};

// What one connection sends and records.
struct ConnSpec {
  Clock::time_point origin;                   // when the pass began
  RequestGen* gen = nullptr;                  // live stream, until deadline
  const std::vector<Request>* replay = nullptr;  // or this, in full
  Clock::time_point deadline;
  std::vector<Request>* record = nullptr;     // receives the requests sent
  std::vector<Span>* spans = nullptr;         // receives one span each
};

// One closed-loop connection: keeps w.depth requests in flight and checks
// every response against the input.
void RunConnection(uint16_t port, const Workload& w, const Inputs& in,
                   const ConnSpec& spec, Totals* out) {
  const std::vector<Request>* replay = spec.replay;
  auto client_or = net::NetClient::Connect(port);
  Require(client_or.status(), "connect");
  net::NetClient& client = *client_or.value();
  const uint64_t empty_frame = EmptyFrameBytes(w);
  std::vector<Request> ring(w.depth);
  std::vector<Clock::time_point> sent(w.depth);
  std::vector<uint64_t> ids(kPageDocs);
  size_t issued = 0;
  size_t received = 0;
  const auto can_issue = [&] {
    return replay != nullptr ? issued < replay->size()
                             : Clock::now() < spec.deadline;
  };
  const auto send = [&] {
    const Request r =
        replay != nullptr ? (*replay)[issued] : spec.gen->Next();
    if (spec.record != nullptr) spec.record->push_back(r);
    const size_t slot = issued % w.depth;
    ring[slot] = r;
    if (w.pages) {
      ids.assign(r.ids, r.ids + kPageDocs);
      client.SendMultiGet(ids);
    } else {
      client.SendGetRange(r.ids[0], r.offset, kSnippetBytes);
    }
    sent[slot] = Clock::now();
    ++issued;
  };
  const Clock::time_point start = Clock::now();
  while (issued < w.depth && can_issue()) send();
  std::string why;
  while (received < issued) {
    auto resp = client.Receive();
    const Clock::time_point now = Clock::now();
    Require(resp.status(), "receive");
    const size_t slot = received % w.depth;
    out->latency.Add(std::chrono::duration<double>(now - spec.origin).count(),
                     MicrosBetween(sent[slot], now));
    if (spec.spans != nullptr) {
      spec.spans->push_back({received, sent[slot], now});
    }
    ++received;
    const Verdict verdict = CheckResponse(w, in, ring[slot], *resp, &why);
    if (verdict == Verdict::kFailed) ++out->failed;
    if (verdict == Verdict::kWrong && out->wrong.empty()) out->wrong = why;
    if (verdict == Verdict::kOk) {
      const uint64_t payload = PayloadBytes(w, *resp);
      out->payload_bytes += payload;
      out->frame_bytes += empty_frame + payload;
    }
    if (can_issue()) send();
  }
  out->elapsed_s = SecondsSince(start);
  out->requests = received;
  out->doc_requests = received * DocsPerRequest(w);
}

// ---------------------------------------------------------------------------
// Appends (ShardedStore::Append, durable or not)

struct AppendTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked = 0;
  uint64_t bytes = 0;
  Recorder latency;                // call to (durable) ack
  std::vector<double> seal_ms;     // appends that sealed the tail
  std::string wrong;
};

// Appends in.appends docs [0, count) in order, checking that acked ids
// are dense after the base collection and publishing each ack through
// `visible`. Latencies are recorded over the phase from `origin` to the
// last ack. With `per_second` > 0 append k starts no earlier than
// k / per_second after `origin`; a writer that falls behind that pace
// appends back to back until it catches up.
AppendTotals RunAppends(ShardedStore* store, const Inputs& in, size_t count,
                        Clock::time_point origin,
                        std::atomic<size_t>* visible,
                        double per_second = 0.0) {
  AppendTotals out;
  std::vector<double> done_s;
  std::vector<double> latency_us;
  const size_t base = in.base.num_docs();
  for (size_t k = 0; k < count; ++k) {
    if (per_second > 0.0) {
      std::this_thread::sleep_until(
          origin + std::chrono::microseconds(static_cast<int64_t>(
                       static_cast<double>(k) * 1e6 / per_second)));
    }
    const std::string_view doc = in.appends.doc(k);
    const int shards_before = store->num_shards();
    const Clock::time_point t0 = Clock::now();
    const StatusOr<size_t> id = store->Append(doc);
    const Clock::time_point t1 = Clock::now();
    ++out.attempted;
    if (!id.ok()) {
      ++out.failed;
      if (out.wrong.empty()) out.wrong = "append: " + id.status().ToString();
      break;  // the store fails stop; nothing after this is acked
    }
    if (id.value() != base + k) {
      out.wrong = "append " + std::to_string(k) + " acked as id " +
                  std::to_string(id.value()) + ", not " +
                  std::to_string(base + k);
      break;
    }
    done_s.push_back(std::chrono::duration<double>(t1 - origin).count());
    latency_us.push_back(MicrosBetween(t0, t1));
    if (store->num_shards() != shards_before) {
      out.seal_ms.push_back(MicrosBetween(t0, t1) / 1e3);
    }
    ++out.acked;
    out.bytes += doc.size();
    if (visible != nullptr) visible->store(base + k + 1,
                                           std::memory_order_release);
  }
  out.latency = Recorder(SecondsSince(origin));
  for (size_t i = 0; i < done_s.size(); ++i) {
    out.latency.Add(done_s[i], latency_us[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The served stack

ShardedStoreOptions StoreOptions(const Workload& w) {
  ShardedStoreOptions options;
  options.dict_bytes = w.dict_bytes;
  options.live.tail_seal_bytes = w.tail_seal_bytes;
  return options;
}

DocServiceOptions ServiceOptions(const Workload& w) {
  DocServiceOptions options;
  options.num_threads = kServiceWorkers;
  options.cache_bytes = w.cache_bytes;
  return options;
}

struct Stack {
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<DocService> service;
  std::unique_ptr<net::DocServer> server;

  void Serve(const Workload& w) {
    service = std::make_unique<DocService>(store.get(), ServiceOptions(w));
    server = std::make_unique<net::DocServer>(service.get());
    Require(server->Start(), "server start");
  }
  void Stop() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    service.reset();
  }
};

// One Get of `id` over a fresh connection, checked against the input.
void ServeOne(const Stack& stack, const Inputs& in, size_t id, Result* res) {
  auto client = net::NetClient::Connect(stack.server->port());
  Require(client.status(), "connect");
  auto doc = client.value()->Get(id);
  Require(doc.status(), "first request");
  if (doc.value() != in.Text(id)) {
    res->Wrong("first served doc " + std::to_string(id) + " differs");
  }
}

struct Snapshot {
  net::NetServerStats net;
  ServiceStats service;
};

Snapshot Take(const Stack& stack) {
  stack.service->Drain();
  return {stack.server->stats(), stack.service->Stats()};
}

// After a socket pass: the server's counters, reached by independent
// paths, must agree with what the clients counted.
Snapshot Reconcile(const Stack& stack, const Snapshot& before,
                   const Totals& seen, Result* res) {
  // bytes_sent is counted after the write returns, so the client can see
  // the last bytes a moment before the counter does.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
  Snapshot after = Take(stack);
  while (seen.failed == 0 &&
         after.net.bytes_sent - before.net.bytes_sent < seen.frame_bytes &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = Take(stack);
  }
  const auto expect = [&](const char* what, uint64_t server, uint64_t client) {
    if (server != client) {
      res->Wrong(std::string(what) + ": server counted " +
                 std::to_string(server) + ", clients " +
                 std::to_string(client));
    }
  };
  expect("response frames", after.net.frames_sent - before.net.frames_sent,
         seen.requests);
  if (seen.failed == 0) {
    expect("response bytes", after.net.bytes_sent - before.net.bytes_sent,
           seen.frame_bytes);
  }
  expect("service requests",
         after.service.requests - before.service.requests, seen.doc_requests);
  expect("coalesced requests",
         after.net.coalesced_requests - before.net.coalesced_requests,
         seen.doc_requests);
  // Every document request probes the decode cache exactly once.
  expect("cache lookups",
         (after.service.cache.hits + after.service.cache.misses) -
             (before.service.cache.hits + before.service.cache.misses),
         seen.doc_requests);
  return after;
}

// ---------------------------------------------------------------------------
// A socket pass: readers (and on ingest, the writer) against the stack

struct PassSpec {
  double seconds = 0.0;                              // when not replaying
  const std::vector<std::vector<Request>>* replay = nullptr;
  bool record = false;
  bool spans = false;
  bool writer = false;     // the durable writer runs beside the readers
  size_t writer_docs = 0;  // appending this many documents
  double writer_per_s = 0.0;  // at this pace (0: back to back)
};

struct PassResult {
  Totals reads;
  AppendTotals appends;
  std::vector<std::vector<Request>> recorded;
  std::vector<std::vector<Span>> spans;
  Snapshot before;
  Snapshot after;
};

PassResult RunSocketPass(Stack* stack, const Workload& w, const Inputs& in,
                         uint64_t seed, const PassSpec& spec,
                         std::atomic<size_t>* visible, Result* res) {
  PassResult out;
  out.recorded.resize(kReaders);
  out.spans.resize(kReaders);
  out.before = Take(*stack);
  const Clock::time_point origin = Clock::now();
  const Clock::time_point deadline =
      origin + std::chrono::microseconds(
                   static_cast<int64_t>(spec.seconds * 1e6));
  std::vector<RequestGen> gens;
  for (int t = 0; t < kReaders; ++t) gens.emplace_back(w, in, seed, t, visible);
  // A live pass records its latencies per slot of its length; a replay,
  // whose length is not fixed, in one slot.
  const double phase_s = spec.replay != nullptr ? 0.0 : spec.seconds;
  std::vector<Totals> per(kReaders, Totals(phase_s));
  out.reads = Totals(phase_s);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    ConnSpec conn;
    conn.origin = origin;
    conn.gen = &gens[t];
    conn.replay = spec.replay != nullptr ? &(*spec.replay)[t] : nullptr;
    conn.deadline = deadline;
    conn.record = spec.record ? &out.recorded[t] : nullptr;
    conn.spans = spec.spans ? &out.spans[t] : nullptr;
    if (conn.spans != nullptr && conn.replay != nullptr) {
      conn.spans->reserve(conn.replay->size());
    }
    threads.emplace_back([&, t, conn] {
      RunConnection(stack->server->port(), w, in, conn, &per[t]);
    });
  }
  if (spec.writer) {
    threads.emplace_back([&] {
      out.appends = RunAppends(stack->store.get(), in, spec.writer_docs,
                               origin, visible, spec.writer_per_s);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Totals& t : per) out.reads.Merge(t);
  if (!out.reads.wrong.empty()) res->Wrong(out.reads.wrong);
  if (!out.appends.wrong.empty()) res->Wrong(out.appends.wrong);
  out.after = Reconcile(*stack, out.before, out.reads, res);
  res->attempted += out.reads.requests + out.appends.attempted;
  res->failed += out.reads.failed + out.appends.failed;
  return out;
}

// Every acked append must read back over the socket with its bytes.
void ReadBackAppends(const Stack& stack, const Inputs& in, uint64_t acked,
                     Result* res) {
  auto client_or = net::NetClient::Connect(stack.server->port());
  Require(client_or.status(), "connect");
  const size_t base = in.base.num_docs();
  std::vector<uint64_t> ids;
  for (uint64_t k = 0; k < acked; k += kPageDocs) {
    ids.clear();
    for (uint64_t j = k; j < std::min<uint64_t>(acked, k + kPageDocs); ++j) {
      ids.push_back(base + j);
    }
    auto page = client_or.value()->MultiGet(ids);
    Require(page.status(), "read back");
    for (size_t j = 0; j < ids.size(); ++j) {
      const auto& e = page.value()[j];
      if (e.code != net::WireCode::kOk || e.bytes != in.Text(ids[j])) {
        res->Wrong("acked append " + std::to_string(ids[j]) +
                   " does not read back over the socket");
        return;
      }
    }
  }
}

// After a reopen: the doc count is base plus acked, and every document —
// base and acked append — is unchanged.
void VerifyStore(const ShardedStore& store, const Inputs& in, uint64_t acked,
                 Result* res) {
  const size_t want = in.base.num_docs() + acked;
  if (store.num_docs() != want) {
    res->Wrong("reopened store holds " + std::to_string(store.num_docs()) +
               " docs, expected " + std::to_string(want));
    return;
  }
  DecodeScratch scratch;
  std::string doc;
  for (size_t id = 0; id < want; ++id) {
    const Status status = store.Get(id, &doc, nullptr, &scratch);
    if (!status.ok() || doc != in.Text(id)) {
      res->Wrong("reopened doc " + std::to_string(id) + " differs");
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Layer peels (--trace 1): the recorded stream replayed below the socket

// Per-request latency at DocService: each thread submits its requests in
// batches of w.depth (the in-flight depth of the socket pass) and waits.
Totals PeelService(DocService* service, const Workload& w, const Inputs& in,
                   const std::vector<std::vector<Request>>& streams) {
  std::vector<Totals> per(streams.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < streams.size(); ++t) {
    threads.emplace_back([&, t] {
      const std::vector<Request>& stream = streams[t];
      ServeBatch batch;
      std::vector<BatchItem> items;
      Totals& out = per[t];
      for (size_t i = 0; i < stream.size(); i += w.depth) {
        const size_t end = std::min(stream.size(), i + w.depth);
        items.clear();
        for (size_t j = i; j < end; ++j) {
          for (size_t k = 0; k < DocsPerRequest(w); ++k) {
            BatchItem item;
            item.id = stream[j].ids[k];
            item.is_range = !w.pages;
            item.offset = stream[j].offset;
            item.length = kSnippetBytes;
            items.push_back(item);
          }
        }
        const Clock::time_point t0 = Clock::now();
        service->SubmitBatch(items.data(), items.size(), &batch);
        const std::vector<GetResult>& results = batch.Wait();
        const double us = MicrosBetween(t0, Clock::now());
        for (size_t n = 0; n < items.size(); ++n) {
          const GetResult& r = results[n];
          if (!r.ok()) {
            ++out.failed;
            continue;
          }
          const std::string_view text = in.Text(items[n].id);
          const std::string_view want =
              w.pages ? text : ExpectedRange(text, items[n].offset);
          if (*r.text != want && out.wrong.empty()) {
            out.wrong = "service peel: doc " + std::to_string(items[n].id) +
                        " differs";
          }
        }
        for (size_t j = i; j < end; ++j) out.latency.Add(0.0, us);
        out.requests += end - i;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Totals all;
  for (const Totals& t : per) all.Merge(t);
  return all;
}

// Per-request latency of direct calls, one request at a time per thread,
// measured in pairs: each request goes through ShardedStore (epoch pin +
// routing + decode) and through the owning shard's RlzArchive with a
// DecodeScratch, alternating which goes first. Requests touching tail
// documents, which no shard holds yet, are skipped by both.
struct DirectPeel {
  Totals store;
  Totals archive;
};

DirectPeel PeelDirect(const ShardedStore& store, const Workload& w,
                      const Inputs& in,
                      const std::vector<std::vector<Request>>& streams) {
  std::vector<DirectPeel> per(streams.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < streams.size(); ++t) {
    threads.emplace_back([&, t] {
      const std::shared_ptr<const CorpusEpoch> epoch = store.epoch();
      const ShardRouter& router = epoch->router();
      DecodeScratch scratch;
      std::string text;
      const size_t n = DocsPerRequest(w);
      // One request through one path; returns false on a failed call.
      const auto run = [&](const Request& r, bool archive, Totals* out) {
        bool ok = true;
        const Clock::time_point t0 = Clock::now();
        for (size_t k = 0; k < n; ++k) {
          const uint64_t id = r.ids[k];
          Status status;
          if (archive) {
            const size_t s = router.shard_of(id);
            const RlzArchive& shard = epoch->shard(static_cast<int>(s));
            const size_t local = id - router.start(s);
            status = w.pages ? shard.Get(local, &text, nullptr, &scratch)
                             : shard.GetRange(local, r.offset, kSnippetBytes,
                                              &text, nullptr, &scratch);
          } else {
            status = w.pages ? store.Get(id, &text, nullptr, &scratch)
                             : store.GetRange(id, r.offset, kSnippetBytes,
                                              &text, nullptr, &scratch);
          }
          const std::string_view want =
              w.pages ? in.Text(id) : ExpectedRange(in.Text(id), r.offset);
          if (!status.ok()) {
            ok = false;
          } else if (text != want && out->wrong.empty()) {
            out->wrong = std::string(archive ? "archive" : "store") +
                         " peel: doc " + std::to_string(id) + " differs";
          }
        }
        out->latency.Add(0.0, MicrosBetween(t0, Clock::now()));
        ++out->requests;
        if (!ok) ++out->failed;
      };
      size_t i = 0;
      for (const Request& r : streams[t]) {
        if (std::any_of(r.ids, r.ids + n, [&](uint64_t id) {
              return id >= epoch->sealed_docs();
            })) {
          continue;
        }
        const bool archive_first = (i++ % 2) == 1;
        run(r, archive_first, archive_first ? &per[t].archive : &per[t].store);
        run(r, !archive_first, archive_first ? &per[t].store : &per[t].archive);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  DirectPeel all;
  for (const DirectPeel& p : per) {
    all.store.Merge(p.store);
    all.archive.Merge(p.archive);
  }
  return all;
}

// Whole-document and 400 B range decode straight off the shards, one
// thread, over the ids of the recorded stream.
void PeelCore(const ShardedStore& store, const Inputs& in,
              const std::vector<Request>& stream, const Workload& w,
              Result* res) {
  const std::shared_ptr<const CorpusEpoch> epoch = store.epoch();
  const ShardRouter& router = epoch->router();
  std::vector<uint64_t> ids;
  for (const Request& r : stream) {
    for (size_t k = 0; k < DocsPerRequest(w); ++k) {
      if (r.ids[k] < epoch->sealed_docs()) ids.push_back(r.ids[k]);
    }
    if (ids.size() >= 4000) break;
  }
  DecodeScratch scratch;
  std::string text;
  uint64_t bytes = 0;
  Clock::time_point t0 = Clock::now();
  for (uint64_t id : ids) {
    const size_t s = router.shard_of(id);
    const Status status = epoch->shard(static_cast<int>(s))
                              .Get(id - router.start(s), &text, nullptr,
                                   &scratch);
    if (!status.ok() || text != in.Text(id)) {
      res->Wrong("core peel: doc " + std::to_string(id) + " differs");
      return;
    }
    bytes += text.size();
  }
  const double decode_s = SecondsSince(t0);
  t0 = Clock::now();
  for (uint64_t id : ids) {
    const size_t s = router.shard_of(id);
    const uint64_t offset = in.Text(id).size() / 2;
    const Status status =
        epoch->shard(static_cast<int>(s))
            .GetRange(id - router.start(s), offset, kSnippetBytes, &text,
                      nullptr, &scratch);
    if (!status.ok() || text != ExpectedRange(in.Text(id), offset)) {
      res->Wrong("core peel: range of doc " + std::to_string(id) +
                 " differs");
      return;
    }
  }
  const double range_s = SecondsSince(t0);
  res->Add("core.decode_mb_s", bytes / 1e6 / decode_s, "MB/s");
  res->Add("core.range_decode_us",
           ids.empty() ? 0.0 : range_s * 1e6 / ids.size(), "us");
  res->attempted += 2 * ids.size();

  // Factorizing the append documents against a build-time dictionary:
  // the parse every Append and every WAL replay performs.
  Factorizer factorizer(&epoch->shard(0).dictionary());
  std::vector<Factor> factors;
  const size_t docs = std::min<size_t>(in.appends.num_docs(), 1000);
  uint64_t parsed = 0;
  t0 = Clock::now();
  for (size_t k = 0; k < docs; ++k) {
    factors.clear();
    factorizer.Factorize(in.appends.doc(k), &factors);
    parsed += in.appends.doc(k).size();
  }
  res->Add("core.factorize_mb_s", parsed / 1e6 / SecondsSince(t0), "MB/s");
  res->Add("core.avg_factor_len", store.baseline_stats().avg_factor_length(),
           "bytes");
}

// The mutation path peeled: the same append sequence on a fresh
// non-durable store and a fresh durable one, then recovery of the
// durable directory from its WAL and again from a checkpoint.
void PeelAppends(const Workload& w, const Inputs& in, uint64_t count,
                 const std::string& dir, Result* res) {
  AppendTotals plain;
  {
    auto store = ShardedStore::Build(in.base, StoreOptions(w));
    plain = RunAppends(store.get(), in, count, Clock::now(), nullptr);
  }
  AppendTotals durable;
  {
    auto store = ShardedStore::Build(in.base, StoreOptions(w));
    Require(store->MakeDurable(dir), "make durable");
    durable = RunAppends(store.get(), in, count, Clock::now(), nullptr);
  }
  for (const AppendTotals* a : {&plain, &durable}) {
    res->attempted += a->attempted;
    res->failed += a->failed;
    if (!a->wrong.empty()) res->Wrong(a->wrong);
  }
  const double plain_us = plain.latency.MeanUs();
  res->Add("store.append_us", plain_us, "us");
  res->Add("store.seal_ms", Mean(plain.seal_ms), "ms");
  res->Add("wal.ack_us", durable.latency.MeanUs() - plain_us, "us");
  res->Add("wal.append_p50_us", durable.latency.PercentileUs(0.50), "us");
  res->Add("wal.append_p99_us", durable.latency.PercentileUs(0.99), "us");
  res->Add("wal.bytes_per_user_byte",
           durable.bytes == 0 ? 0.0
                              : static_cast<double>(DirBytes(dir, "wal-")) /
                                    durable.bytes,
           "bytes/byte");

  ShardedStore::RecoveryReport report;
  Clock::time_point t0 = Clock::now();
  auto replayed = ShardedStore::OpenDurable(dir, {}, {}, nullptr, &report);
  const double replay_s = SecondsSince(t0);
  Require(replayed.status(), "reopen");
  res->Add("wal.replay_records_per_s", report.replayed_records / replay_s,
           "records/s");
  VerifyStore(*replayed.value(), in, durable.acked, res);
  Require(replayed.value()->Checkpoint(), "checkpoint");
  replayed.value().reset();

  t0 = Clock::now();
  auto from_checkpoint = ShardedStore::OpenDurable(dir);
  const double checkpoint_s = SecondsSince(t0);
  Require(from_checkpoint.status(), "reopen after checkpoint");
  res->Add("wal.checkpoint_open_s", checkpoint_s, "s");
  if (from_checkpoint.value()->num_docs() !=
      in.base.num_docs() + durable.acked) {
    res->Wrong("checkpointed reopen lost documents");
  }
}

// ---------------------------------------------------------------------------
// One workload

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string workdir = ".bench_build/run";
  std::string git_sha = "unknown";
};

Result RunWorkload(const Workload& w, const Args& args) {
  Result res;
  Inputs in;
  const std::string dir = args.workdir + "/" + w.name + "-" +
                          std::to_string(getpid()) +
                          (args.trace ? "-trace" : "");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // --- Set-up: generate, build, make durable, serve, warm --------------
  in.base = GenerateBase(args.seed, w.corpus_bytes);
  const size_t base = in.base.num_docs();
  if (w.zipf) {
    in.hot_order.resize(base);
    std::iota(in.hot_order.begin(), in.hot_order.end(), 0u);
    Rng shuffle(args.seed ^ 0x5eed);
    for (size_t i = base; i > 1; --i) {
      std::swap(in.hot_order[i - 1], in.hot_order[shuffle.Uniform(i)]);
    }
    in.zipf = std::make_unique<ZipfSampler>(base, 0.99);
  }
  Stack stack;
  Clock::time_point t0 = Clock::now();
  stack.store = ShardedStore::Build(in.base, StoreOptions(w));
  const double build_s = SecondsSince(t0);
  const std::string store_dir = dir + "/store";
  t0 = Clock::now();
  Require(stack.store->MakeDurable(store_dir), "make durable");
  const double durable_s = SecondsSince(t0);
  const uint64_t base_stored = DirBytes(store_dir);
  stack.Serve(w);
  double warm_s = 0.0;
  if (w.warm) {
    t0 = Clock::now();
    std::vector<size_t> ids;
    for (size_t id = 0; id < base; id += 256) {
      ids.resize(std::min<size_t>(256, base - id));
      std::iota(ids.begin(), ids.end(), id);
      const std::vector<GetResult> docs = stack.service->MultiGet(ids);
      for (size_t k = 0; k < ids.size(); ++k) {
        if (!docs[k].ok() || *docs[k].text != in.base.doc(ids[k])) {
          res.Wrong("warm-up: doc " + std::to_string(ids[k]) + " differs");
        }
      }
    }
    warm_s = SecondsSince(t0);
  }
  ServeOne(stack, in, 0, &res);
  const double setup_s = SecondsSince(kProcessStart);

  // Inputs for the mutation path (not part of set-up).
  const size_t append_count = static_cast<size_t>(std::max(
      64.0, std::ceil(args.seconds * (w.writer ? kIngestAppendsPerSecond
                                               : kProbeAppendsPerSecond))));
  in.appends = GenerateAppends(args.seed, append_count);
  std::atomic<size_t> visible{base};

  if (!args.trace) {
    // --- The measured phase -------------------------------------------
    PassSpec spec;
    spec.seconds = args.seconds;
    spec.writer = w.writer;
    spec.writer_docs = append_count;
    spec.writer_per_s = kIngestAppendsPerSecond;
    PassResult pass =
        RunSocketPass(&stack, w, in, args.seed, spec, &visible, &res);
    AppendTotals appends = std::move(pass.appends);
    if (!w.writer) {
      appends = RunAppends(stack.store.get(), in, append_count, Clock::now(),
                           &visible);
      res.attempted += appends.attempted;
      res.failed += appends.failed;
      if (!appends.wrong.empty()) res.Wrong(appends.wrong);
    }
    ReadBackAppends(stack, in, appends.acked, &res);
    const uint64_t raw = in.base.size_bytes() + appends.bytes;
    const uint64_t stored = w.writer ? DirBytes(store_dir) : base_stored;
    const double stored_ratio =
        static_cast<double>(stored) /
        (w.writer ? raw : in.base.size_bytes());
    if (!(stored_ratio > 0.0 && stored_ratio < 1.0)) {
      res.Wrong("stored bytes per input byte " +
                std::to_string(stored_ratio) + " is outside (0, 1)");
    }

    // --- Recovery: process restart to the first served request --------
    std::vector<double> recover_s;
    for (int r = 0; r < kRecoveries; ++r) {
      stack.Stop();
      stack.store.reset();
      t0 = Clock::now();
      auto reopened = ShardedStore::OpenDurable(store_dir);
      Require(reopened.status(), "reopen");
      stack.store = std::move(reopened).value();
      stack.Serve(w);
      ServeOne(stack, in, appends.acked > 0 ? base + appends.acked - 1 : 0,
               &res);
      recover_s.push_back(SecondsSince(t0));
    }
    stack.Stop();
    VerifyStore(*stack.store, in, appends.acked, &res);

    const WindowFigures reads = QuietWindows(pass.reads.latency);
    const double payload_per_request =
        static_cast<double>(pass.reads.payload_bytes) /
        std::max<uint64_t>(1, pass.reads.requests);
    res.Add("setup_s", setup_s, "s");
    res.Add("rps", reads.rate, "req/s");
    res.Add("latency_p50_us", reads.p50_us, "us");
    res.Add("payload_mb_s", reads.rate * payload_per_request / 1e6, "MB/s");
    res.Add("recover_s", Quantile(recover_s, 0.0), "s");
    res.Add("stored_bytes_per_byte", stored_ratio, "bytes/byte");
    res.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // --- Traced run: peel the layers from outside ----------------------
    t0 = Clock::now();
    const ShardedStoreOptions store_options = StoreOptions(w);
    DictionaryBuilder::BuildSampled(in.base.data(), store_options.dict_bytes,
                                    store_options.sample_bytes);
    const double dictionary_s = SecondsSince(t0);

    // The seeded stream is recorded from a live socket pass (with the
    // writer beside it on ingest), then replayed twice more: plain, and
    // traced (a span per request, the program's counters read around
    // it). The per-request cost of the traced replay over the plain one
    // is the tracing overhead.
    PassSpec record_spec;
    record_spec.seconds = args.seconds / 4;
    record_spec.record = true;
    record_spec.writer = w.writer;
    record_spec.writer_docs = append_count;
    PassResult recorded =
        RunSocketPass(&stack, w, in, args.seed, record_spec, &visible, &res);
    const std::vector<std::vector<Request>> streams =
        std::move(recorded.recorded);
    PassSpec replay_spec;
    replay_spec.replay = &streams;
    const PassResult plain =
        RunSocketPass(&stack, w, in, args.seed, replay_spec, &visible, &res);
    replay_spec.spans = true;
    const PassResult traced =
        RunSocketPass(&stack, w, in, args.seed, replay_spec, &visible, &res);
    const double plain_cost = plain.reads.elapsed_s / plain.reads.requests;
    const double traced_cost = traced.reads.elapsed_s / traced.reads.requests;

    const Totals service =
        PeelService(stack.service.get(), w, in, streams);
    const DirectPeel direct = PeelDirect(*stack.store, w, in, streams);
    for (const Totals* t : {&service, &direct.store, &direct.archive}) {
      res.attempted += t->requests;
      res.failed += t->failed;
      if (!t->wrong.empty()) res.Wrong(t->wrong);
    }
    double span_us = 0.0;
    size_t span_count = 0;
    for (const std::vector<Span>& conn : traced.spans) {
      for (const Span& span : conn) {
        span_us += MicrosBetween(span.start, span.end);
      }
      span_count += conn.size();
    }
    const double net_us = span_us / std::max<size_t>(1, span_count);
    const double service_us = service.latency.MeanUs();
    const double store_us = direct.store.latency.MeanUs();
    const double archive_us = direct.archive.latency.MeanUs();

    const net::NetServerStats& nb = traced.before.net;
    const net::NetServerStats& na = traced.after.net;
    const ServiceStats& sb = traced.before.service;
    const ServiceStats& sa = traced.after.service;
    const double requests = static_cast<double>(sa.requests - sb.requests);
    const double frames = static_cast<double>(na.frames_sent - nb.frames_sent);
    const double lookups = static_cast<double>(
        (sa.cache.hits + sa.cache.misses) - (sb.cache.hits + sb.cache.misses));
    const double cpu_us = (sa.cpu_seconds - sb.cpu_seconds) * 1e6 / requests;
    const double hit_ratio = (sa.cache.hits - sb.cache.hits) / lookups;

    res.Add("net.request_us", net_us, "us");
    res.Add("net.request_p99_us", traced.reads.latency.PercentileUs(0.99),
            "us");
    res.Add("net.self_us", net_us - service_us, "us");
    res.Add("net.docs_per_batch",
            static_cast<double>(na.coalesced_requests - nb.coalesced_requests) /
                (na.batches - nb.batches),
            "docs/batch");
    res.Add("net.frame_overhead_bytes",
            (static_cast<double>(na.bytes_sent - nb.bytes_sent) -
             traced.reads.payload_bytes) / frames,
            "bytes/frame");
    res.Add("net.reads_paused",
            static_cast<double>(na.reads_paused - nb.reads_paused), "count");
    res.Add("serve.request_us", service_us, "us");
    // The service calls the store only on a cache miss.
    res.Add("serve.self_us", service_us - (1.0 - hit_ratio) * store_us, "us");
    res.Add("serve.steals_per_req", (sa.steals - sb.steals) / requests,
            "steals/req");
    res.Add("serve.queue_wait_us", sa.latency_p50_us - cpu_us, "us");
    res.Add("serve.cpu_us_per_req", cpu_us, "us");
    res.Add("serve.cache_hit_ratio", hit_ratio, "ratio");
    res.Add("serve.cache_evictions",
            static_cast<double>(sa.cache.evictions - sb.cache.evictions),
            "count");
    res.Add("store.get_us", store_us, "us");
    res.Add("store.get_self_us", store_us - archive_us, "us");
    res.Add("core.archive_get_us", archive_us, "us");
    PeelCore(*stack.store, in, streams[0], w, &res);
    stack.Stop();
    stack.store.reset();
    PeelAppends(w, in, append_count, dir + "/peel", &res);
    res.Add("build.store_build_s", build_s, "s");
    res.Add("build.dictionary_s", dictionary_s, "s");
    res.Add("build.durable_s", durable_s, "s");
    res.Add("build.warm_s", warm_s, "s");
    res.Add("trace.overhead_pct", 100.0 * (traced_cost / plain_cost - 1.0),
            "%");
  }
  std::filesystem::remove_all(dir);
  return res;
}

// ---------------------------------------------------------------------------
// Output

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

void PrintHost(const Args& args, const Workload& w) {
  std::printf(
      "{\"host\": {\"cores\": %u, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"git_sha\": %s}, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"service_workers\": %d, \"load_connections\": %d, "
      "\"writer_threads\": %d, \"depth\": %zu}\n",
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(E2E_COMPILER).c_str(), JsonString(E2E_BUILD_TYPE).c_str(),
      JsonString(args.git_sha).c_str(), JsonString(w.name).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kServiceWorkers, kReaders, w.writer ? 1 : 0,
      w.depth);
}

void PrintResult(const Result& res) {
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += res.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", res.metrics[i].value);
    if (i > 0) line += ", ";
    line += JsonString(res.metrics[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(res.metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Self-test

// The checker must reject a response with one flipped byte and a
// response that answers another id (one whose bytes differ: windows in
// shared host boilerplate are legitimately identical across ids).
bool CheckerRejectsBadResponses() {
  Inputs in;
  in.base = GenerateBase(7, 256u << 10);
  bool ok = in.base.num_docs() > kPageDocs + 1;
  std::string why;
  for (const Workload& w : Workloads(true)) {
    if (!ok) break;
    Request req;
    for (size_t k = 0; k < kPageDocs; ++k) req.ids[k] = k;
    req.offset = in.Text(0).size() / 2;
    net::NetResponse good;
    good.code = net::WireCode::kOk;
    if (w.pages) {
      for (size_t k = 0; k < kPageDocs; ++k) {
        good.elements.push_back({net::WireCode::kOk,
                                 std::string(in.Text(req.ids[k]))});
      }
    } else {
      good.payload = std::string(ExpectedRange(in.Text(0), req.offset));
    }
    net::NetResponse flipped = good;
    std::string& bytes =
        w.pages ? flipped.elements[kPageDocs / 2].bytes : flipped.payload;
    bytes[bytes.size() / 2] ^= 0x01;
    Request other = req;
    uint64_t& swapped = other.ids[w.pages ? kPageDocs - 1 : 0];
    const std::string_view was = in.Text(req.ids[w.pages ? kPageDocs - 1 : 0]);
    for (swapped = kPageDocs; swapped + 1 < in.base.num_docs(); ++swapped) {
      const std::string_view now = in.Text(swapped);
      if (w.pages ? now != was
                  : ExpectedRange(now, req.offset) !=
                        ExpectedRange(was, req.offset)) {
        break;
      }
    }
    ok &= CheckResponse(w, in, req, good, &why) == Verdict::kOk;
    ok &= CheckResponse(w, in, req, flipped, &why) == Verdict::kWrong;
    ok &= CheckResponse(w, in, other, good, &why) == Verdict::kWrong;
  }
  return ok;
}

int RunSelfTest(Args args) {
  bool ok = CheckerRejectsBadResponses();
  std::fprintf(stderr, "self-test: response checker %s\n",
               ok ? "rejects flipped bytes and wrong ids" : "FAILED");
  args.seconds = 0.4;
  for (const Workload& w : Workloads(true)) {
    for (bool trace : {false, true}) {
      args.trace = trace;
      const Result res = RunWorkload(w, args);
      const bool pass = res.correct && res.failed == 0 && res.attempted > 0;
      for (const std::string& e : res.errors) {
        std::fprintf(stderr, "  %s\n", e.c_str());
      }
      std::fprintf(stderr,
                   "self-test: %s trace=%d: %s (%llu ops, %zu metrics)\n",
                   w.name.c_str(), trace ? 1 : 0, pass ? "ok" : "FAILED",
                   static_cast<unsigned long long>(res.attempted),
                   res.metrics.size());
      ok &= pass;
    }
  }
  std::printf("self-test: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload snippet_hot|page_cold|ingest "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--git-sha SHA]\n       e2e_bench --self-test "
               "[--workdir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return Usage();
    }
  }
  if (args.self_test) return RunSelfTest(args);
  if (!(args.seconds > 0)) return Usage();
  for (const Workload& w : Workloads(false)) {
    if (w.name != args.workload) continue;
    PrintHost(args, w);
    const Result res = RunWorkload(w, args);
    PrintResult(res);
    return res.correct ? 0 : 1;
  }
  return Usage();
}

}  // namespace
}  // namespace e2e
}  // namespace rlz

int main(int argc, char** argv) { return rlz::e2e::Main(argc, argv); }
