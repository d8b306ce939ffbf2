// perfbench: host-time benchmark of the aemlib serving and sorting
// stacks, run through the library's public entry points only.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Workloads (parameters are printed on the `params` line and documented in
// perfbench/spec.json):
//
//   serve-zipf-plain    fence-index KvStore on a plain Machine, zipf stream
//   serve-hotset-stack  same store on D=4 ShardedMachine + clean-first cache,
//                       write-heavy sliding hot-set stream
//   sort-asym           aem_merge_sort, aem_lowwrite_sample_sort and
//                       aem_heap_sort (PqTuning::kBuffered) on one input
//
// One process, one thread.  The client is closed-loop in host time: the
// next request is issued when the previous one returns; the stream itself
// is the library's open-loop RequestGen, so its order does not depend on
// cost.  A run repeats "set up, then time the work" on a fresh machine and
// store until --seconds have passed: one warm-up repetition, then at least
// kMinReps measured ones, whose medians it reports.  End-to-end host times
// are scaled to a reference host speed (see HostSpeed).
//
// --trace 0 reports the end-to-end metrics.  --trace 1 replays the same
// work with spans recorded around every call into the library, checks that
// the replay charged exactly what the untraced run charged, measures the
// cache and sharding layers by ablation, and reports the per-layer metrics.
// Outputs are checked against a host-side reference after timing stops.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  Exit status is 0 only when every check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cache.hpp"
#include "core/config.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/sharding.hpp"
#include "harness/parallel_sweep.hpp"
#include "pq/ext_pq.hpp"
#include "sort/lowwrite_samplesort.hpp"
#include "sort/mergesort.hpp"
#include "store/kv_store.hpp"
#include "traffic/engine.hpp"
#include "traffic/histogram.hpp"
#include "traffic/request_gen.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;
using store::IndexKind;
using store::KvStore;
using store::Slot;
using store::StoreConfig;
using traffic::EngineConfig;
using traffic::EngineStats;
using traffic::KeyDist;
using traffic::OpKind;
using traffic::QHistogram;
using traffic::Request;
using traffic::TrafficConfig;
using traffic::TrafficEngine;
using Clock = std::chrono::steady_clock;

// --- workload parameters ---------------------------------------------------

constexpr std::size_t kBlock = 64;
constexpr std::uint64_t kOmega = 16;

constexpr std::size_t kServeMemory = std::size_t{1} << 17;
constexpr std::size_t kRecords = std::size_t{1} << 20;  // keys 0, 2, 4, ...
constexpr std::uint64_t kKeyStride = 2;
constexpr std::uint64_t kSpillPercent = 10;  // values of 2..8 words
constexpr std::uint64_t kRequests = std::uint64_t{1} << 20;
constexpr std::size_t kDevices = 4;
constexpr std::size_t kCacheBlocks = 256;

constexpr std::size_t kSortMemory = std::size_t{1} << 15;
constexpr std::size_t kSortKeys = std::size_t{1} << 20;

// A run's first repetition is a warm-up whose timings are dropped: it pays
// the process's first-touch page faults and lets the allocator settle.
constexpr int kMinReps = 3;        // measured repetitions per run, at least
constexpr int kAblationReps = 11;  // rounds of the traced run's ablation

// Host-speed probes (see HostSpeed): keys per lookup probe, and the sort
// probe's median time on the reference host (a 4-core Xeon VM at 2.1 GHz),
// measured when this benchmark was defined.
constexpr std::uint64_t kLookupProbeKeys = std::uint64_t{1} << 18;
constexpr double kSortProbeRefS = 0.030;

enum class Stack { kPlain, kSharded, kShardedCached };

struct ServeWorkload {
  const char* name;
  Stack stack;
  KeyDist dist;
  double write_fraction;
  double scan_fraction;
  // The lookup probe's median time on the reference host, and the power of
  // the probe's slowdown by which the workload's throughput drops (see
  // HostSpeed); both measured when this benchmark was defined.
  double probe_ref_s;
  double probe_elasticity;
};

constexpr ServeWorkload kZipfPlain{"serve-zipf-plain", Stack::kPlain,
                                   KeyDist::kZipf, 0.05, 0.05, 0.043, 1.3};
constexpr ServeWorkload kHotsetStack{"serve-hotset-stack",
                                     Stack::kShardedCached, KeyDist::kHotSet,
                                     0.50, 0.05, 0.040, 1.15};
constexpr const char* kSortAsym = "sort-asym";

TrafficConfig traffic_config(const ServeWorkload& w) {
  TrafficConfig tc;
  tc.requests = kRequests;
  tc.dist = w.dist;
  tc.zipf_theta = 0.99;
  tc.key_space = kRecords;
  tc.key_stride = kKeyStride;
  tc.write_fraction = w.write_fraction;
  tc.scan_fraction = w.scan_fraction;
  tc.scan_len = 16;
  tc.batch_size = 4;
  tc.hot_fraction = 0.01;
  tc.hot_weight = 0.9;
  tc.drift_every = 250000;
  return tc;
}

Config machine_config(std::size_t memory) {
  Config c;
  c.memory_elems = memory;
  c.block_elems = kBlock;
  c.write_cost = kOmega;
  return c;
}

std::unique_ptr<Machine> make_serve_machine(Stack stack) {
  const Config c = machine_config(kServeMemory);
  if (stack == Stack::kPlain) return std::make_unique<Machine>(c);
  ShardConfig sc;
  sc.frontend = c;
  sc.devices.assign(kDevices, c);
  sc.placement = Placement::kRoundRobin;
  if (stack == Stack::kShardedCached) {
    sc.frontend.cache.capacity_blocks = kCacheBlocks;
    sc.frontend.cache.policy = CachePolicy::kCleanFirst;
  }
  return std::make_unique<ShardedMachine>(sc);
}

// --- small helpers ---------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

/// Median of per-repetition samples without the warm-up (the first).
double steady_median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return median(std::vector<double>(v.begin() + 1, v.end()));
}

/// Nearest-rank percentile (permyriad / 10000) of `v`; 0 when empty.
double percentile(std::vector<std::uint32_t> v, std::uint64_t permyriad) {
  if (v.empty()) return 0.0;
  std::uint64_t rank = (v.size() * permyriad + 9999) / 10000;
  if (rank == 0) rank = 1;
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// High-water mark of the process's resident set (ru_maxrss), in MiB.
double max_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

volatile std::uint64_t g_probe_sink = 0;  // keeps the probes' work live

/// The serving workloads' host-speed probe: the store's lookup path (fence
/// search, copy of one 64-record page, scan of the page) replayed host-side
/// on the benchmark's own copy of the records, for keys drawn evenly from
/// the workload's stream.
class LookupProbe {
 public:
  LookupProbe(const std::vector<Slot>& records,
              const traffic::RequestGen& gen, std::uint64_t requests)
      : records_(&records) {
    for (std::size_t b = 0; b < records.size(); b += kBlock)
      fences_.push_back(records[b].key);
    const std::uint64_t step = requests / kLookupProbeKeys;
    for (std::uint64_t i = 0; i < kLookupProbeKeys; ++i)
      keys_.push_back(gen.at(i * step).key);
  }

  double operator()() {
    const std::vector<Slot>& rec = *records_;
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (std::uint64_t key : keys_) {
      const auto page = static_cast<std::size_t>(
          std::upper_bound(fences_.begin(), fences_.end(), key) -
          fences_.begin() - 1);
      const std::size_t first = page * kBlock;
      const std::size_t len = std::min(kBlock, rec.size() - first);
      std::copy_n(rec.begin() + static_cast<std::ptrdiff_t>(first), len,
                  page_.begin());
      for (std::size_t j = 0; j < len; ++j)
        if (page_[j].key == key) acc += page_[j].pos;
    }
    const double s = seconds_between(t0, Clock::now());
    g_probe_sink = acc;
    return s;
  }

 private:
  const std::vector<Slot>* records_;
  std::vector<std::uint64_t> fences_, keys_;
  std::array<Slot, kBlock> page_{};
};

/// Sort-asym's host-speed probe: copy 2 MiB of random keys and sort them,
/// twice.
class SortProbe {
 public:
  SortProbe() : keys_(std::size_t{1} << 18), work_(keys_.size()) {
    util::Rng rng(7);
    for (std::uint64_t& k : keys_) k = rng.next();
  }

  double operator()() {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int i = 0; i < 2; ++i) {
      std::copy(keys_.begin(), keys_.end(), work_.begin());
      work_[0] ^= acc;
      std::sort(work_.begin(), work_.end());
      acc += work_[work_.size() / 2];
    }
    const double s = seconds_between(t0, Clock::now());
    g_probe_sink = acc;
    return s;
  }

 private:
  std::vector<std::uint64_t> keys_, work_;
};

/// Host-speed normalization.  The machine this benchmark runs on is shared:
/// over minutes its speed drifts by a factor of up to two, and every timing
/// drifts with it, though not every kind of work alike.  So each workload
/// has a probe that does its kind of work with benchmark-owned code on
/// memory allocated before the first repetition; it allocates nothing while
/// timed.  The probe runs once to warm up, then after every repetition; the
/// run's slowdown is the median probe time after the measured repetitions
/// over the probe's reference time.  End-to-end host times are reported at
/// the reference speed: set-up time over slowdown, and throughput times
/// slowdown to the power `elasticity`.  The serving loops slow more than
/// their probe does: between fast and slow hosts, zipf throughput fell as
/// the 1.25-1.40 power of the probe's slowdown and hot-set throughput as
/// the 1.11-1.19 power, while set-up time and the sort work tracked their
/// probes about one for one.  A change to the library moves the
/// repetitions, not the probe, so it moves the normalized figures exactly
/// as it moves the raw ones.
class HostSpeed {
 public:
  HostSpeed(std::function<double()> probe, double ref_s, double elasticity)
      : probe_(std::move(probe)), ref_s_(ref_s), elasticity_(elasticity) {
    probe_();
  }

  void probe() { probe_s_.push_back(probe_()); }

  /// Probe times, the first taken after the warm-up repetition.
  const std::vector<double>& probes() const { return probe_s_; }

  double slowdown() const { return steady_median(probe_s_) / ref_s_; }

  double throughput_slowdown() const {
    return std::pow(slowdown(), elasticity_);
  }

 private:
  std::function<double()> probe_;
  double ref_s_;
  double elasticity_;
  std::vector<double> probe_s_;
};

/// The run's verdict: operations attempted and failed, plus the reason for
/// every failed check.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::string what) { problems.push_back(std::move(what)); }
  bool correct() const { return failed == 0 && problems.empty(); }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- serving ---------------------------------------------------------------

/// The served records: keys {0, 2, 4, ...}, about 10% of values spilled to
/// 2..8 words, the rest inline.  A pure function of the seed.
struct Records {
  std::vector<Slot> slots;
  std::vector<std::uint64_t> payload;
};

Records make_records(std::uint64_t seed) {
  util::Rng rng(seed);
  Records r;
  r.slots.reserve(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    Slot s;
    s.key = kKeyStride * i;
    if (rng.below(100) < kSpillPercent) {
      s.len = 2 + rng.below(7);
      s.pos = r.payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) r.payload.push_back(rng.next());
    } else {
      s.len = 1;
      s.pos = rng.next();
    }
    r.slots.push_back(s);
  }
  return r;
}

/// A built store ready to serve.  Members are destroyed in reverse order,
/// so the engine and store go before the machine they live on.
struct ServeSetup {
  std::unique_ptr<Machine> mach;
  std::unique_ptr<KvStore> kv;
  std::unique_ptr<TrafficEngine> eng;
  double setup_s = 0.0;
  double build_s = 0.0;
};

ServeSetup set_up_store(const Records& rec, Stack stack,
                        const TrafficConfig& tc, std::uint64_t stream_seed) {
  ServeSetup s;
  const auto t0 = Clock::now();
  s.mach = make_serve_machine(stack);
  {
    ExtArray<Slot> slots(*s.mach, rec.slots.size(), "input.slots");
    slots.unsafe_host_fill(std::span<const Slot>(rec.slots));
    ExtArray<std::uint64_t> payload(*s.mach, rec.payload.size(),
                                    "input.payload");
    payload.unsafe_host_fill(std::span<const std::uint64_t>(rec.payload));
    s.kv = std::make_unique<KvStore>(*s.mach,
                                     StoreConfig{IndexKind::kFence, 8});
    const auto b0 = Clock::now();
    s.kv->build(slots, payload);
    s.mach->flush_cache();
    s.build_s = seconds_between(b0, Clock::now());
  }
  EngineConfig ec;
  ec.traffic = tc;
  s.eng = std::make_unique<TrafficEngine>(*s.kv, *s.mach, ec, stream_seed);
  s.setup_s = seconds_between(t0, Clock::now());
  return s;
}

CacheStats cache_stats(const Machine& m) {
  return m.cache() != nullptr ? m.cache()->stats() : CacheStats{};
}

/// Counters of the cache between two snapshots.
CacheStats cache_delta(const CacheStats& a, const CacheStats& b) {
  CacheStats d;
  d.read_hits = b.read_hits - a.read_hits;
  d.read_misses = b.read_misses - a.read_misses;
  d.write_hits = b.write_hits - a.write_hits;
  d.write_misses = b.write_misses - a.write_misses;
  d.evictions_clean = b.evictions_clean - a.evictions_clean;
  d.evictions_dirty = b.evictions_dirty - a.evictions_dirty;
  d.write_backs = b.write_backs - a.write_backs;
  d.flushes = b.flushes - a.flushes;
  d.invalidated_dirty = b.invalidated_dirty - a.invalidated_dirty;
  return d;
}

/// What one untraced TrafficEngine::run served and charged.
struct EngineRep {
  double setup_s = 0.0;
  double build_s = 0.0;
  std::uint64_t build_q = 0;
  double run_s = 0.0;
  EngineStats es;
  QHistogram hist;
  store::StoreStats ss;
  CacheStats cache;
  double imbalance = 1.0;
  std::size_t ledger_high_water = 0;
};

/// The store's expected final contents: the staged records with every put
/// of the stream applied in order.  Puts only ever hit, so a flat vector
/// indexed by key slot is the whole reference model.
std::vector<Slot> expected_contents(const Records& rec,
                                    const traffic::RequestGen& gen) {
  std::vector<Slot> exp = rec.slots;
  const std::uint64_t n = gen.config().requests;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Request r = gen.at(i);
    if (r.op != OpKind::kPut) continue;
    Slot& s = exp.at(r.key / kKeyStride);
    s.len = 1;
    s.pos = r.value;
  }
  return exp;
}

/// Compares the store's final contents with the host model record by
/// record (a full scan, run after timing stops).  Returns the number of
/// records that differ or are missing.
std::uint64_t check_contents(KvStore& kv, const Records& rec,
                             const std::vector<Slot>& exp, Verdict& v) {
  std::size_t visited = 0;
  std::uint64_t mismatched = 0;
  kv.scan(0, ~std::uint64_t{0},
          [&](std::uint64_t key, std::span<const std::uint64_t> value) {
            const std::size_t i = visited++;
            if (i >= exp.size() || exp[i].key != key) {
              ++mismatched;
              return;
            }
            const Slot& e = exp[i];
            bool same = false;
            if (e.len == 1) {
              same = value.size() == 1 && value[0] == e.pos;
            } else {
              const std::span<const std::uint64_t> want(
                  rec.payload.data() + e.pos, e.len);
              same = std::ranges::equal(value, want);
            }
            if (!same) ++mismatched;
          });
  if (visited != exp.size()) {
    v.fail("serving: store holds " + std::to_string(visited) +
           " records, expected " + std::to_string(exp.size()));
    mismatched += visited > exp.size() ? visited - exp.size()
                                       : exp.size() - visited;
  }
  if (mismatched != 0)
    v.fail("serving: " + std::to_string(mismatched) +
           " records differ from the reference model");
  return mismatched;
}

/// Reference check of one served stream.  Returns the number of failed
/// operations: missed gets and puts (every generated key is present) and
/// differing records; a broken accounting identity fails the whole stream.
std::uint64_t check_served(KvStore& kv, const Records& rec,
                           const std::vector<Slot>& exp, const EngineStats& es,
                           Verdict& v) {
  std::uint64_t failed = (es.gets - es.get_hits) + (es.puts - es.put_hits);
  if (failed != 0)
    v.fail("serving: " + std::to_string(es.gets - es.get_hits) +
           " gets and " + std::to_string(es.puts - es.put_hits) +
           " puts missed a present key");
  if (es.served + es.rejected != es.generated) {
    v.fail("serving: served + rejected != generated");
    failed = es.generated;
  }
  if (es.cost != es.io.cost(kOmega)) {
    v.fail("serving: Q != reads + omega * writes");
    failed = es.generated;
  }
  return std::min(es.generated, failed + check_contents(kv, rec, exp, v));
}

/// Sets up a fresh store, times one TrafficEngine::run, then checks the
/// served stream against the host model.
EngineRep run_engine(const Records& rec, const std::vector<Slot>& exp,
                     Stack stack, const TrafficConfig& tc,
                     std::uint64_t stream_seed, Verdict& v) {
  ServeSetup s = set_up_store(rec, stack, tc, stream_seed);
  EngineRep r;
  r.setup_s = s.setup_s;
  r.build_s = s.build_s;
  r.build_q = s.kv->build_cost();
  const CacheStats cache_before = cache_stats(*s.mach);
  const auto t0 = Clock::now();
  s.eng->run();
  r.run_s = seconds_between(t0, Clock::now());
  r.es = s.eng->stats();
  r.hist = s.eng->histogram();
  r.ss = s.kv->stats();
  r.cache = cache_delta(cache_before, cache_stats(*s.mach));
  r.imbalance = s.eng->imbalance();
  r.ledger_high_water = s.mach->ledger().high_water();
  v.attempted += r.es.generated;
  v.failed += check_served(*s.kv, rec, exp, r.es, v);
  return r;
}

/// One request of the traced replay.  The request's span is
/// [start_ns, start_ns + gen_ns + op_ns); its children are the generator
/// call [start, start + gen_ns) and the store call that follows it.  The
/// request id is the record's index; kind 3 is the final cache flush.
struct SpanRec {
  std::uint64_t start_ns;
  std::uint32_t gen_ns;
  std::uint32_t op_ns;
  std::uint32_t q;
  std::uint32_t kind;
};
static_assert(sizeof(SpanRec) == 24);

constexpr std::uint32_t kFlushKind = 3;

struct TracedRep {
  double wall_s = 0.0;
  IoStats io;
  std::uint64_t cost = 0;
  QHistogram hist;
  std::array<QHistogram, 3> kind_q;
  store::StoreStats ss;
  std::vector<SpanRec> spans;
};

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::uint32_t ns32(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(ns_between(a, b), 0xffffffff));
}

/// Replays the engine's stream on a fresh store request by request —
/// RequestGen::at, then the matching KvStore call (with the engine's scan
/// range), then the final flush — recording a span per request in memory.
/// The store's final contents are checked after the replay.
TracedRep run_traced(const Records& rec, const std::vector<Slot>& exp,
                     Stack stack, const TrafficConfig& tc,
                     std::uint64_t stream_seed, Verdict& v) {
  ServeSetup s = set_up_store(rec, stack, tc, stream_seed);
  const traffic::RequestGen& gen = s.eng->generator();
  KvStore& kv = *s.kv;
  Machine& mach = *s.mach;
  const std::uint64_t n = tc.requests;
  const std::uint64_t scan_span = tc.scan_len * tc.key_stride - 1;

  TracedRep t;
  t.spans.resize(n + 1);
  const IoStats io_before = mach.stats();
  const std::uint64_t cost_before = mach.cost();
  std::uint64_t mark = cost_before;
  const auto origin = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const Request r = gen.at(i);
    const auto t1 = Clock::now();
    switch (r.op) {
      case OpKind::kGet:
        kv.get(r.key);
        break;
      case OpKind::kPut:
        kv.put_inline(r.key, r.value);
        break;
      case OpKind::kScan: {
        const std::uint64_t hi = r.key > ~std::uint64_t{0} - scan_span
                                     ? ~std::uint64_t{0}
                                     : r.key + scan_span;
        kv.scan(r.key, hi, [](std::uint64_t, auto) {});
        break;
      }
    }
    const auto t2 = Clock::now();
    const std::uint64_t now = mach.cost();
    const std::uint64_t q = now - mark;
    mark = now;
    t.hist.record(q);
    const auto kind = static_cast<std::uint32_t>(r.op);
    t.kind_q[kind].record(q);
    t.spans[i] = SpanRec{ns_between(origin, t0), ns32(t0, t1), ns32(t1, t2),
                         static_cast<std::uint32_t>(q), kind};
  }
  const auto f0 = Clock::now();
  if (n != 0) mach.flush_cache();
  const auto f1 = Clock::now();
  t.wall_s = seconds_between(origin, f1);
  t.spans[n] = SpanRec{ns_between(origin, f0), 0, ns32(f0, f1),
                       static_cast<std::uint32_t>(mach.cost() - mark),
                       kFlushKind};
  t.io = mach.stats() - io_before;
  t.cost = mach.cost() - cost_before;
  t.ss = kv.stats();
  v.attempted += n;
  v.failed += std::min(n, check_contents(kv, rec, exp, v));
  return t;
}

/// Writes the in-memory spans out once the run is over: a text header
/// line, then the records as raw little-endian structs.
template <class Rec>
void write_spans(const std::string& dir, const std::string& workload,
                 std::uint64_t seed, const std::string& layout,
                 const std::vector<Rec>& spans) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" + workload + "-seed" + std::to_string(seed) + ".spans";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << "perfbench-spans v1 records=" << spans.size() << " " << layout
     << "\n";
  os.write(reinterpret_cast<const char*>(spans.data()),
           static_cast<std::streamsize>(spans.size() * sizeof(Rec)));
  if (!os) throw std::runtime_error("cannot write " + path);
}

struct Run {
  std::vector<Metric> metrics;
  Verdict verdict;
  std::vector<std::string> notes;  // per-repetition samples, for the report

  void samples(const std::string& label, const std::vector<double>& v) {
    std::string line = label + ":";
    for (double x : v) {
      line += ' ';
      line += fmt_number(x);
    }
    notes.push_back(line);
  }
};

/// Per-repetition set-up times and throughputs of an untraced run.  They
/// are reported as medians at the reference host speed (see HostSpeed).
/// peak_rss_mb is the growth of the resident set's high-water mark over
/// its value before the first repetition, when the inputs, the reference
/// model and the probe's memory already exist.  Freed memory stays
/// resident (trim is off), so that value is the inputs' resident set.
class HostTimes {
 public:
  explicit HostTimes(HostSpeed host)
      : host_(std::move(host)), rss_before_mib_(max_rss_mib()) {}

  void add(double setup_s, double mops) {
    host_.probe();
    setup_.push_back(setup_s);
    mops_.push_back(mops);
  }

  /// setup_s, throughput_mops and peak_rss_mb; the raw samples go to the
  /// report.
  std::vector<Metric> metrics(Run& run) const {
    run.samples("setup_s measured per repetition (the first is a warm-up)",
                setup_);
    run.samples(
        "throughput_mops measured per repetition (the first is a warm-up)",
        mops_);
    run.samples("host probe s after each repetition", host_.probes());
    return {{"setup_s", steady_median(setup_) / host_.slowdown(), "s"},
            {"throughput_mops",
             steady_median(mops_) * host_.throughput_slowdown(), "Mop/s"},
            {"peak_rss_mb", max_rss_mib() - rss_before_mib_, "MiB"}};
  }

 private:
  HostSpeed host_;
  double rss_before_mib_;
  std::vector<double> setup_, mops_;
};

/// Whether repetition `reps` (0 = the warm-up) should run.
bool time_left(Clock::time_point start, double seconds, int reps) {
  return reps <= kMinReps || seconds_between(start, Clock::now()) < seconds;
}

/// Charged counts repeat exactly within a run: same seed, fresh store.
void check_repeats(const EngineRep& first, const EngineRep& r, Verdict& v) {
  if (!(r.es == first.es) || !(r.hist == first.hist))
    v.fail("serving: charged counts differ between repetitions");
}

/// The inputs of one serving run, all derived from the run's seed.
struct ServeInput {
  Records rec;
  TrafficConfig tc;
  std::uint64_t stream_seed;
  std::vector<Slot> exp;
};

ServeInput make_serve_input(const ServeWorkload& w, std::uint64_t seed) {
  ServeInput in;
  in.rec = make_records(harness::derive_seed(seed, 1));
  in.tc = traffic_config(w);
  in.stream_seed = harness::derive_seed(seed, 2);
  in.exp = expected_contents(in.rec,
                             traffic::RequestGen(in.tc, in.stream_seed));
  return in;
}

HostSpeed serve_host_speed(const ServeWorkload& w, const ServeInput& in) {
  return HostSpeed(LookupProbe(in.rec.slots,
                               traffic::RequestGen(in.tc, in.stream_seed),
                               in.tc.requests),
                   w.probe_ref_s, w.probe_elasticity);
}

Run serve_untraced(const ServeWorkload& w, std::uint64_t seed,
                   double seconds) {
  const ServeInput in = make_serve_input(w, seed);
  Run run;
  HostTimes times(serve_host_speed(w, in));
  std::optional<EngineRep> first;
  const auto start = Clock::now();
  for (int reps = 0; time_left(start, seconds, reps); ++reps) {
    const EngineRep r =
        run_engine(in.rec, in.exp, w.stack, in.tc, in.stream_seed,
                   run.verdict);
    times.add(r.setup_s, static_cast<double>(r.es.served) / r.run_s / 1e6);
    if (first) check_repeats(*first, r, run.verdict);
    else first = r;
  }
  const EngineStats& es = first->es;
  run.metrics = times.metrics(run);
  run.metrics.insert(run.metrics.end(), {
      {"q_total", static_cast<double>(es.cost), "Q"},
      {"reads", static_cast<double>(es.io.reads), "blocks"},
      {"writes", static_cast<double>(es.io.writes), "blocks"},
      {"q_p99", static_cast<double>(first->hist.percentile(9900)), "Q"},
      {"q_p999", static_cast<double>(first->hist.percentile(9990)), "Q"},
  });
  return run;
}

/// Per-layer figures of the serving layers.  The defaults are what a
/// workload that runs none of them reports: no work, one device.
struct ServeLayers {
  double gen_ns_per_req = 0, engine_s = 0;
  std::array<double, 3> ns_p50{}, ns_p99{}, q_p99{};
  double get_log_reads = 0, get_payload_reads = 0, put_writes = 0,
         scan_records = 0;
  double build_s = 0, build_q = 0;
  double hit_ratio = 0, evictions_clean = 0, evictions_dirty = 0,
         write_backs = 0, flush_s = 0, cache_ns = 0;
  double sharding_ns = 0, imbalance = 1;
  double reads_per_req = 0, writes_per_req = 0;
};

/// Per-layer figures of the sort workload, zero on the serving workloads.
struct SortLayers {
  std::array<double, 3> call_s{}, reads_per_elem{}, writes_per_elem{};
};

struct SortCall {
  const char* layer;
  void (*sort)(const ExtArray<std::uint64_t>&, ExtArray<std::uint64_t>&);
};

constexpr std::array<SortCall, 3> kSorts = {{
    {"sort.merge",
     [](const ExtArray<std::uint64_t>& in, ExtArray<std::uint64_t>& out) {
       aem_merge_sort(in, out);
     }},
    {"sort.lowwrite",
     [](const ExtArray<std::uint64_t>& in, ExtArray<std::uint64_t>& out) {
       aem_lowwrite_sample_sort(in, out);
     }},
    {"pq.heap",
     [](const ExtArray<std::uint64_t>& in, ExtArray<std::uint64_t>& out) {
       aem_heap_sort(in, out, std::less<std::uint64_t>{}, PqTuning::kBuffered);
     }},
}};

/// Every per-layer metric, in BENCHMARK.json order.
std::vector<Metric> layer_metrics(const ServeLayers& l, const SortLayers& s,
                                  std::size_t ledger_high_water,
                                  const HostSpeed& host,
                                  double trace_overhead) {
  std::vector<Metric> m;
  m.push_back({"traffic.gen.ns_per_req", l.gen_ns_per_req, "ns"});
  m.push_back({"traffic.engine.s", l.engine_s, "s"});
  static constexpr std::array<const char*, 3> kOps = {"get", "put", "scan"};
  for (std::size_t k = 0; k < kOps.size(); ++k) {
    const std::string p = std::string("store.") + kOps[k];
    m.push_back({p + ".ns_p50", l.ns_p50[k], "ns"});
    m.push_back({p + ".ns_p99", l.ns_p99[k], "ns"});
    m.push_back({p + ".q_p99", l.q_p99[k], "Q"});
  }
  m.push_back({"store.get.log_reads_per_op", l.get_log_reads, "blocks/op"});
  m.push_back(
      {"store.get.payload_reads_per_op", l.get_payload_reads, "blocks/op"});
  m.push_back({"store.put.writes_per_op", l.put_writes, "blocks/op"});
  m.push_back({"store.scan.records_per_op", l.scan_records, "records/op"});
  m.push_back({"store.build.s", l.build_s, "s"});
  m.push_back({"store.build.q", l.build_q, "Q"});
  m.push_back({"cache.hit_ratio", l.hit_ratio, "ratio"});
  m.push_back({"cache.evictions_clean", l.evictions_clean, "count"});
  m.push_back({"cache.evictions_dirty", l.evictions_dirty, "count"});
  m.push_back({"cache.write_backs", l.write_backs, "count"});
  m.push_back({"cache.flush.s", l.flush_s, "s"});
  m.push_back({"cache.ns_per_req", l.cache_ns, "ns"});
  m.push_back({"sharding.ns_per_req", l.sharding_ns, "ns"});
  m.push_back({"sharding.imbalance", l.imbalance, "ratio"});
  m.push_back({"machine.reads_per_req", l.reads_per_req, "blocks/req"});
  m.push_back({"machine.writes_per_req", l.writes_per_req, "blocks/req"});
  m.push_back({"machine.ledger_high_water_words",
               static_cast<double>(ledger_high_water), "words"});
  for (std::size_t k = 0; k < kSorts.size(); ++k)
    m.push_back({std::string(kSorts[k].layer) + ".s", s.call_s[k], "s"});
  for (std::size_t k = 0; k < kSorts.size(); ++k) {
    const std::string p = kSorts[k].layer;
    m.push_back({p + ".reads_per_elem", s.reads_per_elem[k], "blocks/elem"});
    m.push_back(
        {p + ".writes_per_elem", s.writes_per_elem[k], "blocks/elem"});
  }
  m.push_back({"trace.overhead_frac", trace_overhead, "ratio"});
  m.push_back({"host.probe.s", steady_median(host.probes()), "s"});
  return m;
}

Run serve_traced(const ServeWorkload& w, std::uint64_t seed, double seconds,
                 const std::string& trace_dir) {
  const ServeInput in = make_serve_input(w, seed);
  const std::uint64_t n = in.tc.requests;
  Run run;
  Verdict& v = run.verdict;

  // Untraced engine runs alternate with traced replays of the same stream.
  std::vector<double> engine_s, traced_s, build_s, flush_s, gen_ns;
  std::optional<EngineRep> ref;
  TracedRep last;
  HostSpeed host = serve_host_speed(w, in);
  const auto start = Clock::now();
  for (int reps = 0; time_left(start, seconds, reps); ++reps) {
    const EngineRep e =
        run_engine(in.rec, in.exp, w.stack, in.tc, in.stream_seed, v);
    engine_s.push_back(e.run_s);
    build_s.push_back(e.build_s);
    if (ref) check_repeats(*ref, e, v);
    else ref = e;

    last = run_traced(in.rec, in.exp, w.stack, in.tc, in.stream_seed, v);
    traced_s.push_back(last.wall_s);
    // Traced-replay identity: the replay must charge exactly what
    // TrafficEngine::run charged, request by request.
    if (!(last.io == e.es.io) || last.cost != e.es.cost ||
        !(last.hist == e.hist) || last.ss.get_hits != e.es.get_hits ||
        last.ss.put_hits != e.es.put_hits) {
      v.fail("traced replay charged differently from TrafficEngine::run");
      v.failed += n;
    }
    double gen_total = 0;
    for (std::uint64_t i = 0; i < n; ++i) gen_total += last.spans[i].gen_ns;
    gen_ns.push_back(gen_total / static_cast<double>(n));
    flush_s.push_back(last.spans[n].op_ns / 1e9);
    host.probe();
  }

  // Layer ablation: the same stream with sharding, then the cache, switched
  // on.  Each round runs the three stacks back to back, so drift in the
  // host's speed hits them alike; the layer costs are the medians of the
  // per-round differences.  Sharding must leave the frontend charges
  // unchanged.
  const double to_ns_per_req = 1e9 / static_cast<double>(n);
  std::vector<double> sharding_ns, cache_ns;
  for (int r = 0; r < kAblationReps; ++r) {
    std::array<double, 3> run_s{};
    EngineStats plain;
    for (Stack st : {Stack::kPlain, Stack::kSharded, Stack::kShardedCached}) {
      const EngineRep e =
          run_engine(in.rec, in.exp, st, in.tc, in.stream_seed, v);
      run_s[static_cast<std::size_t>(st)] = e.run_s;
      if (st == Stack::kPlain) plain = e.es;
      if (st == Stack::kSharded && !(e.es == plain))
        v.fail("ablation: sharding changed the frontend charges");
    }
    sharding_ns.push_back((run_s[1] - run_s[0]) * to_ns_per_req);
    cache_ns.push_back((run_s[2] - run_s[1]) * to_ns_per_req);
  }

  ServeLayers l;
  l.gen_ns_per_req = steady_median(gen_ns);
  l.engine_s = steady_median(engine_s);
  std::array<std::vector<std::uint32_t>, 3> op_ns;
  for (std::uint64_t i = 0; i < n; ++i)
    op_ns[last.spans[i].kind].push_back(last.spans[i].op_ns);
  for (std::size_t k = 0; k < op_ns.size(); ++k) {
    l.ns_p50[k] = percentile(op_ns[k], 5000);
    l.ns_p99[k] = percentile(op_ns[k], 9900);
    l.q_p99[k] = static_cast<double>(last.kind_q[k].percentile(9900));
  }
  const store::StoreStats& ss = ref->ss;
  l.get_log_reads = ratio(ss.get_log_reads, ss.gets);
  l.get_payload_reads = ratio(ss.get_payload_reads, ss.gets);
  l.put_writes = ratio(ss.put_writes, ss.puts);
  l.scan_records = ratio(ss.scan_records, ss.scans);
  l.build_s = steady_median(build_s);
  l.build_q = static_cast<double>(ref->build_q);
  const CacheStats& c = ref->cache;
  if (w.stack == Stack::kShardedCached) {
    l.hit_ratio = ratio(c.read_hits + c.write_hits,
                        c.read_hits + c.read_misses + c.write_hits +
                            c.write_misses);
    l.flush_s = steady_median(flush_s);
  }
  l.evictions_clean = static_cast<double>(c.evictions_clean);
  l.evictions_dirty = static_cast<double>(c.evictions_dirty);
  l.write_backs = static_cast<double>(c.write_backs);
  l.cache_ns = median(cache_ns);
  l.sharding_ns = median(sharding_ns);
  l.imbalance = ref->imbalance;
  l.reads_per_req = ratio(ref->es.io.reads, ref->es.served);
  l.writes_per_req = ratio(ref->es.io.writes, ref->es.served);

  const double overhead =
      steady_median(traced_s) / steady_median(engine_s) - 1.0;
  run.metrics =
      layer_metrics(l, SortLayers{}, ref->ledger_high_water, host, overhead);
  write_spans(trace_dir, w.name, seed,
              "layout=start_ns:u64,gen_ns:u32,op_ns:u32,q:u32,kind:u32"
              " kinds=get,put,scan,flush",
              last.spans);
  return run;
}

// --- sorting ---------------------------------------------------------------

/// One staged input and its three output arrays; the arrays die before
/// the machine.
struct SortSetup {
  std::unique_ptr<Machine> mach;
  ExtArray<std::uint64_t> in;
  std::array<ExtArray<std::uint64_t>, 3> out;
  double setup_s = 0.0;
};

SortSetup set_up_sort(const std::vector<std::uint64_t>& keys) {
  SortSetup s;
  const auto t0 = Clock::now();
  s.mach = std::make_unique<Machine>(machine_config(kSortMemory));
  s.in = ExtArray<std::uint64_t>(*s.mach, keys.size(), "sort.in");
  s.in.unsafe_host_fill(std::span<const std::uint64_t>(keys));
  for (std::size_t k = 0; k < kSorts.size(); ++k)
    s.out[k] = ExtArray<std::uint64_t>(*s.mach, keys.size(),
                                       std::string(kSorts[k].layer) + ".out");
  s.setup_s = seconds_between(t0, Clock::now());
  return s;
}

/// A span around one sort call: [begin, end) on the host clock.
struct CallSpan {
  Clock::time_point begin;
  Clock::time_point end;
};

struct SortRep {
  double setup_s = 0.0;
  std::array<CallSpan, 3> span{};
  std::array<IoStats, 3> io{};
  std::array<std::uint64_t, 3> q{};
  std::size_t ledger_high_water = 0;

  double call_s(std::size_t k) const {
    return seconds_between(span[k].begin, span[k].end);
  }
  double total_s() const {
    double t = 0;
    for (std::size_t k = 0; k < span.size(); ++k) t += call_s(k);
    return t;
  }
};

struct SortInput {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> sorted;
};

SortInput make_sort_input(std::uint64_t seed) {
  util::Rng rng(harness::derive_seed(seed, 3));
  SortInput in;
  in.keys = util::random_keys(kSortKeys, rng);
  in.sorted = in.keys;
  std::sort(in.sorted.begin(), in.sorted.end());
  return in;
}

/// Sorts the staged input three times, then checks every output against
/// the host reference; a wrong output or a broken Q identity fails its
/// call.  Charged counts must repeat those of `first` exactly.
SortRep run_sorts(const SortInput& input, const std::optional<SortRep>& first,
                  Verdict& v) {
  SortSetup s = set_up_sort(input.keys);
  SortRep r;
  r.setup_s = s.setup_s;
  for (std::size_t k = 0; k < kSorts.size(); ++k) {
    const IoStats io0 = s.mach->stats();
    const std::uint64_t q0 = s.mach->cost();
    r.span[k].begin = Clock::now();
    kSorts[k].sort(s.in, s.out[k]);
    r.span[k].end = Clock::now();
    r.io[k] = s.mach->stats() - io0;
    r.q[k] = s.mach->cost() - q0;
  }
  r.ledger_high_water = s.mach->ledger().high_water();
  v.attempted += kSorts.size();
  for (std::size_t k = 0; k < kSorts.size(); ++k) {
    const std::string layer = kSorts[k].layer;
    const bool sorted = s.out[k].unsafe_host_view() == input.sorted;
    if (!sorted) v.fail(layer + ": output is not the sorted input");
    const bool q_ok = r.q[k] == r.io[k].cost(kOmega);
    if (!q_ok) v.fail(layer + ": Q != reads + omega * writes");
    if (!sorted || !q_ok) ++v.failed;
  }
  if (first && r.io != first->io)
    v.fail("sort: charged counts differ between repetitions");
  return r;
}

Run sort_untraced(std::uint64_t seed, double seconds) {
  const SortInput input = make_sort_input(seed);
  Run run;
  HostTimes times(HostSpeed(SortProbe(), kSortProbeRefS, 1.0));
  std::optional<SortRep> first;
  const auto start = Clock::now();
  for (int reps = 0; time_left(start, seconds, reps); ++reps) {
    const SortRep r = run_sorts(input, first, run.verdict);
    times.add(r.setup_s, static_cast<double>(kSorts.size() * kSortKeys) /
                             r.total_s() / 1e6);
    if (!first) first = r;
  }
  IoStats io;
  std::uint64_t q = 0, q_max = 0;
  for (std::size_t k = 0; k < kSorts.size(); ++k) {
    io += first->io[k];
    q += first->q[k];
    q_max = std::max(q_max, first->q[k]);
  }
  // The operations are the three sort calls: nearest-rank p99 and p999 of
  // three samples are both the costliest call.
  run.metrics = times.metrics(run);
  run.metrics.insert(run.metrics.end(), {
      {"q_total", static_cast<double>(q), "Q"},
      {"reads", static_cast<double>(io.reads), "blocks"},
      {"writes", static_cast<double>(io.writes), "blocks"},
      {"q_p99", static_cast<double>(q_max), "Q"},
      {"q_p999", static_cast<double>(q_max), "Q"},
  });
  return run;
}

/// A recorded sort span: repetition, call index and host-clock interval in
/// ns since the traced run began.
struct SortSpanRec {
  std::uint32_t rep;
  std::uint32_t call;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};
static_assert(sizeof(SortSpanRec) == 24);

Run sort_traced(std::uint64_t seed, double seconds,
                const std::string& trace_dir) {
  const SortInput input = make_sort_input(seed);
  Run run;
  std::array<std::vector<double>, 3> call_s;
  std::optional<SortRep> first;
  std::vector<SortSpanRec> spans;
  HostSpeed host(SortProbe(), kSortProbeRefS, 1.0);
  const auto origin = Clock::now();
  for (int reps = 0; time_left(origin, seconds, reps); ++reps) {
    // The spans are the timestamps the untraced run takes around each call.
    const SortRep r = run_sorts(input, first, run.verdict);
    for (std::size_t k = 0; k < kSorts.size(); ++k) {
      call_s[k].push_back(r.call_s(k));
      spans.push_back({static_cast<std::uint32_t>(reps),
                       static_cast<std::uint32_t>(k),
                       ns_between(origin, r.span[k].begin),
                       ns_between(origin, r.span[k].end)});
    }
    if (!first) first = r;
    host.probe();
  }

  SortLayers s;
  for (std::size_t k = 0; k < kSorts.size(); ++k) {
    s.call_s[k] = steady_median(call_s[k]);
    s.reads_per_elem[k] = ratio(first->io[k].reads, kSortKeys);
    s.writes_per_elem[k] = ratio(first->io[k].writes, kSortKeys);
  }
  // The sort spans are the end-to-end run's own timestamps: no overhead.
  run.metrics =
      layer_metrics(ServeLayers{}, s, first->ledger_high_water, host, 0.0);
  write_spans(trace_dir, kSortAsym, seed,
              "layout=rep:u32,call:u32,start_ns:u64,end_ns:u64"
              " calls=sort.merge,sort.lowwrite,pq.heap",
              spans);
  return run;
}

// --- command line and output ----------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
    } else if (flag == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = val;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

std::string params_json(const std::string& workload) {
  std::ostringstream os;
  if (workload == kSortAsym) {
    os << "{\"M\":" << kSortMemory << ",\"B\":" << kBlock
       << ",\"omega\":" << kOmega << ",\"keys\":" << kSortKeys
       << ",\"sorts\":[\"aem_merge_sort\",\"aem_lowwrite_sample_sort\","
          "\"aem_heap_sort/kBuffered\"]}";
    return os.str();
  }
  const ServeWorkload& w =
      workload == kZipfPlain.name ? kZipfPlain : kHotsetStack;
  const TrafficConfig tc = traffic_config(w);
  const bool sharded = w.stack != Stack::kPlain;
  const bool cached = w.stack == Stack::kShardedCached;
  os << "{\"M\":" << kServeMemory << ",\"B\":" << kBlock
     << ",\"omega\":" << kOmega << ",\"devices\":" << (sharded ? kDevices : 1)
     << ",\"placement\":\"" << (sharded ? "round-robin" : "none")
     << "\",\"cache_blocks\":" << (cached ? kCacheBlocks : 0)
     << ",\"cache_policy\":\"" << (cached ? "clean-first" : "none")
     << "\",\"index\":\"fence\",\"records\":" << kRecords
     << ",\"key_stride\":" << kKeyStride
     << ",\"spill_percent\":" << kSpillPercent
     << ",\"requests\":" << tc.requests << ",\"dist\":\""
     << traffic::to_string(tc.dist) << "\"";
  if (tc.dist == KeyDist::kZipf) os << ",\"zipf_theta\":" << tc.zipf_theta;
  if (tc.dist == KeyDist::kHotSet)
    os << ",\"hot_fraction\":" << tc.hot_fraction
       << ",\"hot_weight\":" << tc.hot_weight
       << ",\"drift_every\":" << tc.drift_every;
  os << ",\"write_fraction\":" << tc.write_fraction
     << ",\"scan_fraction\":" << tc.scan_fraction
     << ",\"scan_len\":" << tc.scan_len << ",\"batch\":" << tc.batch_size
     << ",\"q_budget\":0}";
  return os.str();
}

void print_result(const Args& a, const Run& run) {
  const Verdict& v = run.verdict;
  std::cout << "workload " << a.workload << " seed " << a.seed << " trace "
            << (a.trace ? 1 : 0) << "\n";
  for (const Metric& m : run.metrics)
    std::cout << "  " << m.name << " = " << fmt_number(m.value) << " "
              << m.unit << "\n";
  std::cout << "  failed_frac = " << fmt_number(ratio(v.failed, v.attempted))
            << " (" << v.failed << "/" << v.attempted << ")\n";
  for (const std::string& n : run.notes) std::cout << "  " << n << "\n";
  for (const std::string& p : v.problems) std::cout << "  FAIL " << p << "\n";
  std::cout << "{\"correct\": " << (v.correct() ? "true" : "false")
            << ", \"attempted\": " << v.attempted
            << ", \"failed\": " << v.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << fmt_number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's allocator thresholds so every repetition reuses the memory
  // the one before it freed.  With the default adaptive thresholds, whether
  // the heap top is trimmed and later re-faulted depends on the heap layout,
  // so whole processes landed in a slow or a fast mode (sort-asym set-up
  // took 5 ms in some runs and 20 ms in others).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    const Args a = parse_args(argc, argv);
    if (a.workload != kZipfPlain.name && a.workload != kHotsetStack.name &&
        a.workload != kSortAsym)
      throw std::invalid_argument("unknown workload " + a.workload);
    std::cout << "params " << params_json(a.workload) << "\n";
    Run run;
    if (a.workload == kSortAsym) {
      run = a.trace ? sort_traced(a.seed, a.seconds, a.trace_dir)
                    : sort_untraced(a.seed, a.seconds);
    } else {
      const ServeWorkload& w =
          a.workload == kZipfPlain.name ? kZipfPlain : kHotsetStack;
      run = a.trace ? serve_traced(w, a.seed, a.seconds, a.trace_dir)
                    : serve_untraced(w, a.seed, a.seconds);
    }
    print_result(a, run);
    return run.verdict.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
