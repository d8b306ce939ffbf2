// Tests for the reliability layer: the deterministic power-cut schedule
// (FaultConfig::crash_after_writes / CrashError), crash-consistent KvStore
// builds and recover(), the unified RetryPolicy (bounded retries +
// deterministic charged backoff) shared by ExtArray recovery and
// ShardedMachine outage waits, retry-exhaustion boundaries, and the
// device-outage degraded-serving path (wait / queue / drain / fail-over).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "core/sharding.hpp"
#include "store/kv_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;
using store::IndexKind;
using store::KvStore;
using store::RecoveryReport;
using store::Slot;
using store::StoreConfig;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

// Restores (or clears) an environment variable on scope exit.
struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) old_ = v;
  }
  ~EnvGuard() {
    if (old_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, old_.c_str(), 1);
  }
  const char* name_;
  std::string old_;
};

// --- crash schedule ------------------------------------------------------

TEST(CrashScheduleTest, FiresAtExactWriteOnceAndRearmsOnReset) {
  Machine mach(cfg(64, 8, 4));
  FaultConfig c;
  c.crash_after_writes = 3;
  mach.install_faults(c);
  EXPECT_TRUE(mach.faults()->crash_armed());
  // A crash-only schedule is not fault injection: it must not flip
  // ExtArray onto the checksummed path.
  EXPECT_FALSE(mach.faults()->injects_faults());

  mach.on_write(0, 0);
  mach.on_write(0, 1);
  try {
    mach.on_write(0, 2);  // the 3rd charged write is the cut
    FAIL() << "expected CrashError";
  } catch (const CrashError& e) {
    EXPECT_EQ(e.after_writes(), 3u);
    EXPECT_EQ(e.at().writes, 3u);
    EXPECT_EQ(e.at().reads, 0u);
  }
  // The cut write was charged; the counters survive.
  EXPECT_EQ(mach.stats().writes, 3u);
  EXPECT_EQ(mach.cost(), 12u);

  // One-shot: the schedule disarmed itself as it fired.
  EXPECT_FALSE(mach.faults()->crash_armed());
  EXPECT_EQ(mach.faults()->crashes_fired(), 1u);
  EXPECT_NO_THROW(mach.on_write(0, 3));
  EXPECT_NO_THROW(mach.on_write(0, 4));

  // reset() re-arms the same point relative to a rewound write counter.
  mach.reset_stats();
  mach.faults()->reset();
  EXPECT_TRUE(mach.faults()->crash_armed());
  EXPECT_EQ(mach.faults()->crashes_fired(), 0u);
  mach.on_write(0, 0);
  mach.on_write(0, 1);
  EXPECT_THROW(mach.on_write(0, 2), CrashError);
}

TEST(CrashScheduleTest, ReadsNeverTripTheCut) {
  Machine mach(cfg(64, 8, 1));
  FaultConfig c;
  c.crash_after_writes = 1;
  mach.install_faults(c);
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(mach.on_read(0, 0));
  EXPECT_THROW(mach.on_write(0, 0), CrashError);
}

TEST(CrashScheduleTest, EnvOverrideParsesStrictly) {
  EnvGuard g("AEM_CRASH_AFTER_WRITES");

  ::setenv("AEM_CRASH_AFTER_WRITES", "123", 1);
  EXPECT_EQ(FaultConfig::from_env(FaultConfig{}).crash_after_writes, 123u);

  for (const char* bad : {"banana", "12x", "", "-3", "1.5"}) {
    ::setenv("AEM_CRASH_AFTER_WRITES", bad, 1);
    EXPECT_THROW(FaultConfig::from_env(FaultConfig{}), std::invalid_argument)
        << "value: " << bad;
  }

  ::unsetenv("AEM_CRASH_AFTER_WRITES");
  FaultConfig base;
  base.crash_after_writes = 7;
  EXPECT_EQ(FaultConfig::from_env(base).crash_after_writes, 7u);
}

TEST(CrashConfigTest, ValidateRejectsCapBelowBase) {
  FaultConfig c;
  c.retry_backoff_base = 8;
  c.retry_backoff_cap = 4;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.retry_backoff_cap = 8;
  EXPECT_NO_THROW(c.validate());
}

// --- RetryPolicy ---------------------------------------------------------

TEST(RetryPolicyTest, BackoffDoublesUpToCapAndZeroBaseIsFree) {
  RetryPolicy r{/*max_retries=*/8, /*backoff_base=*/1, /*backoff_cap=*/64};
  EXPECT_EQ(r.backoff(0), 0u);  // the initial attempt never waits
  EXPECT_EQ(r.backoff(1), 1u);
  EXPECT_EQ(r.backoff(2), 2u);
  EXPECT_EQ(r.backoff(3), 4u);
  EXPECT_EQ(r.backoff(7), 64u);   // 1 << 6 == cap
  EXPECT_EQ(r.backoff(20), 64u);  // saturated

  RetryPolicy free{4, 0, 64};
  for (std::size_t k = 0; k < 10; ++k) EXPECT_EQ(free.backoff(k), 0u);

  // Shift-overflow saturates at the cap instead of wrapping.
  RetryPolicy huge{200, 1ull << 62, ~0ull};
  EXPECT_EQ(huge.backoff(1), 1ull << 62);
  EXPECT_EQ(huge.backoff(2), 1ull << 63);
  EXPECT_EQ(huge.backoff(3), ~0ull);    // 1 << 64 would wrap
  EXPECT_EQ(huge.backoff(100), ~0ull);  // shift >= 64

  EXPECT_FALSE(r.exhausted(7));
  EXPECT_TRUE(r.exhausted(8));
}

TEST(RetryPolicyTest, FaultPolicyDerivesItFromConfig) {
  FaultConfig c;
  c.max_retries = 3;
  c.retry_backoff_base = 2;
  c.retry_backoff_cap = 16;
  FaultPolicy p(c);
  EXPECT_EQ(p.retry(), (RetryPolicy{3, 2, 16}));
}

// --- unified retry charges (ExtArray read / verify-after-write) ----------

// The pre-reliability pinned charges (test_recovery.cpp) with backoff off,
// then the exact same schedules with backoff_base = 1: every retry k now
// additionally charges backoff(k) poll reads, counted in retry_attempts /
// backoff_ios and in the machine's ordinary read counter.
struct RetryBill {
  IoStats io;
  std::uint64_t retry_attempts = 0;
  std::uint64_t backoff_ios = 0;
  ReliabilityMetrics reliability;
  std::string json;
};

TEST(BackoffChargeTest, ReadRetryPollsArePinned) {
  auto run = [](std::uint64_t backoff_base) {
    Machine mach(cfg(64, 8, 4));
    FaultConfig c;
    c.read_fault_rate = 1.0;  // every attempt fails its checksum
    c.max_retries = 2;
    c.retry_backoff_base = backoff_base;
    mach.install_faults(c);
    ExtArray<std::uint64_t> a(mach, 8, "a");
    std::vector<std::uint64_t> buf(8);
    EXPECT_THROW(a.read_block(0, std::span<std::uint64_t>(buf)), FaultError);
    const MetricsSnapshot s = snapshot_metrics(mach, "backoff");
    return RetryBill{mach.stats(), mach.faults()->retry_attempts(),
                     mach.faults()->backoff_ios(), s.reliability, to_json(s)};
  };

  {  // legacy pin: 3 attempts, 3 charged reads, nothing else
    const RetryBill b = run(0);
    EXPECT_EQ(b.io.reads, 3u);
    EXPECT_EQ(b.retry_attempts, 0u);
    EXPECT_EQ(b.backoff_ios, 0u);
  }
  {  // with base 1: retries 1 and 2 wait 1 + 2 = 3 extra poll reads
    const RetryBill b = run(1);
    EXPECT_EQ(b.io.reads, 6u);
    EXPECT_EQ(b.retry_attempts, 2u);
    EXPECT_EQ(b.backoff_ios, 3u);
    EXPECT_TRUE(b.reliability.enabled);
    EXPECT_EQ(b.reliability.retry_attempts, 2u);
    EXPECT_EQ(b.reliability.backoff_ios, 3u);
    EXPECT_NE(b.json.find("\"reliability\":{"), std::string::npos);
    EXPECT_NE(b.json.find("\"backoff_ios\":3"), std::string::npos);
  }
}

TEST(BackoffChargeTest, WriteVerifyRetryPollsArePinned) {
  auto run = [](std::uint64_t backoff_base) {
    Machine mach(cfg(64, 8, 4));
    FaultConfig c;
    c.silent_write_rate = 1.0;  // every verify read-back mismatches
    c.max_retries = 1;
    c.retry_backoff_base = backoff_base;
    mach.install_faults(c);
    ExtArray<std::uint64_t> a(mach, 8, "a");
    std::vector<std::uint64_t> buf(8, 9);
    EXPECT_THROW(a.write_block(0, std::span<const std::uint64_t>(buf)),
                 FaultError);
    return RetryBill{mach.stats(), mach.faults()->retry_attempts(),
                     mach.faults()->backoff_ios(), {}, {}};
  };

  {  // legacy pin: 2 write attempts, 2 verify reads
    const RetryBill b = run(0);
    EXPECT_EQ(b.io.writes, 2u);
    EXPECT_EQ(b.io.reads, 2u);
  }
  {  // retry 1 waits backoff(1) = 1 poll read before the rewrite
    const RetryBill b = run(1);
    EXPECT_EQ(b.io.writes, 2u);
    EXPECT_EQ(b.io.reads, 3u);
    EXPECT_EQ(b.retry_attempts, 1u);
    EXPECT_EQ(b.backoff_ios, 1u);
  }
}

// --- retry-exhaustion boundary -------------------------------------------

/// Finds a seed whose read-fault draw pattern is exactly `k` faults then a
/// clean attempt, mirroring the per-attempt draw order of the ExtArray
/// read path (one fault draw, plus one corruption-offset draw when it
/// fires).
std::uint64_t seed_with_k_read_faults(double rate, std::size_t k) {
  for (std::uint64_t seed = 1; seed < 100000; ++seed) {
    FaultConfig c;
    c.seed = seed;
    c.read_fault_rate = rate;
    FaultPolicy probe(c);
    bool ok = true;
    for (std::size_t i = 0; i < k && ok; ++i) {
      if (probe.draw_read_fault())
        probe.draw_u64();  // the corruption offset the real path consumes
      else
        ok = false;
    }
    if (ok && !probe.draw_read_fault()) return seed;
  }
  ADD_FAILURE() << "no seed with " << k << " leading read faults";
  return 1;
}

// Exactly-max retries succeeds; one fewer throws FaultError — on the SAME
// deterministic fault schedule — and the two runs' charges agree up to the
// final (never-performed) attempt.
TEST(RetryExhaustionTest, BoundaryBetweenSuccessAndFaultError) {
  const std::size_t k = 3;  // leading failures before the clean attempt
  const std::uint64_t seed = seed_with_k_read_faults(0.5, k);

  struct Run {
    bool threw = false;
    IoStats io;
    FaultStats faults;
  };
  auto run = [&](std::size_t max_retries) {
    Machine mach(cfg(64, 8, 4));
    FaultConfig c;
    c.seed = seed;
    c.read_fault_rate = 0.5;
    c.max_retries = max_retries;
    mach.install_faults(c);
    ExtArray<std::uint64_t> a(mach, 8, "a");
    const std::vector<std::uint64_t> host(8, 5);
    a.unsafe_host_fill(std::span<const std::uint64_t>(host));
    std::vector<std::uint64_t> buf(8);
    Run r;
    try {
      a.read_block(0, std::span<std::uint64_t>(buf));
      EXPECT_EQ(buf[0], 5u);  // the surviving attempt delivered clean data
    } catch (const FaultError& e) {
      r.threw = true;
      EXPECT_FALSE(e.is_write());
      EXPECT_EQ(e.attempts(), max_retries + 1);
    }
    r.io = mach.stats();
    r.faults = mach.faults()->stats();
    return r;
  };

  const Run ok = run(k);
  EXPECT_FALSE(ok.threw) << "max_retries == k must absorb k failures";
  const Run bad = run(k - 1);
  EXPECT_TRUE(bad.threw) << "max_retries == k-1 must exhaust";

  // Identical schedule, so the ledgers agree up to the last attempt: the
  // successful run performs exactly one more charged read (the clean
  // attempt) and notes one more retry; every failure count matches.
  EXPECT_EQ(ok.io.reads, bad.io.reads + 1);
  EXPECT_EQ(ok.io.writes, bad.io.writes);
  EXPECT_EQ(ok.faults.checksum_failures, bad.faults.checksum_failures);
  EXPECT_EQ(ok.faults.read_faults, bad.faults.read_faults);
  EXPECT_EQ(ok.faults.read_retries, bad.faults.read_retries + 1);
}

// --- crash-consistent KvStore builds -------------------------------------

struct Workload {
  std::vector<Slot> slots;
  std::vector<std::uint64_t> payload;
};

Workload make_workload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Workload w;
  for (std::size_t i = 0; i < n; ++i) {
    Slot s;
    s.key = rng.next() & ~1ull;
    const std::uint64_t kind = rng.below(100);
    if (kind < 60) {
      s.len = 1;
      s.pos = rng.next();
    } else {
      s.len = 2 + rng.below(10);
      s.pos = w.payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) w.payload.push_back(rng.next());
    }
    w.slots.push_back(s);
  }
  return w;
}

std::pair<ExtArray<Slot>, ExtArray<std::uint64_t>> stage(Machine& mach,
                                                         const Workload& w) {
  ExtArray<Slot> slots(mach, w.slots.size(), "input.slots");
  slots.unsafe_host_fill(std::span<const Slot>(w.slots));
  ExtArray<std::uint64_t> payload(mach, w.payload.size(), "input.payload");
  payload.unsafe_host_fill(std::span<const std::uint64_t>(w.payload));
  return {std::move(slots), std::move(payload)};
}

TEST(DurableBuildTest, ServesIdenticallyToPlainBuildAtManifestCost) {
  const Workload w = make_workload(400, 17);
  for (IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
    Machine plain_mach(cfg(4096, 16, 8));
    auto [ps, pp] = stage(plain_mach, w);
    KvStore plain(plain_mach, StoreConfig{kind, 8, /*manifest_interval=*/0});
    plain.build(ps, pp);

    Machine dur_mach(cfg(4096, 16, 8));
    auto [ds, dp] = stage(dur_mach, w);
    KvStore durable(dur_mach, StoreConfig{kind, 8, /*manifest_interval=*/4});
    durable.build(ds, dp);

    // Byte-identical on-device layout, identical serving.
    EXPECT_EQ(plain.log_array().unsafe_host_view(),
              durable.log_array().unsafe_host_view());
    EXPECT_EQ(plain.payload_array().unsafe_host_view(),
              durable.payload_array().unsafe_host_view());
    util::Rng rng(91);
    for (int t = 0; t < 32; ++t) {
      const std::uint64_t key =
          w.slots[rng.below(w.slots.size())].key ^ (t % 4 == 0 ? 1 : 0);
      EXPECT_EQ(plain.get(key), durable.get(key));
    }

    // Durability is priced: at least the sorted + committed manifests plus
    // one checkpoint per interval, never free.
    EXPECT_GE(durable.manifest_commits(), 2u);
    EXPECT_GT(durable.build_writes(), plain.build_writes());
  }
}

TEST(DurableBuildTest, CrashAndRecoverAcrossCrashPoints) {
  // A power cut at EVERY charged write of a durable build, under both index
  // flavors and three cache settings: each crashed build must recover to a
  // store byte-identical to the uncrashed one, serving the same answers.
  const Workload w = make_workload(512, 23);
  struct CacheCase {
    const char* name;
    std::size_t blocks;
    CachePolicy policy;
  };
  const CacheCase caches[] = {{"off", 0, CachePolicy::kLru},
                              {"lru8", 8, CachePolicy::kLru},
                              {"clean-first8", 8, CachePolicy::kCleanFirst}};
  std::size_t points = 0;
  bool saw_resume = false;
  for (const IndexKind kind : {IndexKind::kFence, IndexKind::kCompact}) {
    for (const CacheCase& cc : caches) {
      const StoreConfig sc{kind, 8, /*manifest_interval=*/4};
      Config c = cfg(4096, 16, 8);
      c.cache.capacity_blocks = cc.blocks;
      c.cache.policy = cc.policy;

      // Uncrashed durable reference.
      Machine ref_mach(c);
      auto [rs, rp] = stage(ref_mach, w);
      KvStore ref(ref_mach, sc);
      ref.build(rs, rp);
      const std::uint64_t total_writes = ref_mach.stats().writes;
      ASSERT_GT(total_writes, 10u);

      for (std::uint64_t cut = 1; cut <= total_writes; ++cut) {
        SCOPED_TRACE(std::string(to_string(kind)) + " cache=" + cc.name +
                     " cut=" + std::to_string(cut));
        Machine mach(c);
        FaultConfig fc;
        fc.crash_after_writes = cut;
        mach.install_faults(fc);
        auto [slots, payload] = stage(mach, w);
        KvStore kv(mach, sc);
        EXPECT_THROW(kv.build(slots, payload), CrashError);

        const RecoveryReport rep = kv.recover(slots, payload);
        saw_resume |= rep.outcome == RecoveryReport::Outcome::kResumed;
        EXPECT_GT(rep.reads, 0u) << "recovery must charge its detection scan";
        ++points;

        EXPECT_EQ(kv.log_array().unsafe_host_view(),
                  ref.log_array().unsafe_host_view())
            << "outcome=" << to_string(rep.outcome);
        EXPECT_EQ(kv.payload_array().unsafe_host_view(),
                  ref.payload_array().unsafe_host_view());
        util::Rng rng(cut);
        for (int t = 0; t < 16; ++t) {
          const std::uint64_t key =
              w.slots[rng.below(w.slots.size())].key ^ (t % 4 == 0 ? 1 : 0);
          EXPECT_EQ(kv.get(key), ref.get(key));
        }

        // The pass was billed on the machine and surfaced in the metrics.
        EXPECT_EQ(mach.recovery_stats().scans, 1u);
        EXPECT_EQ(mach.recovery_stats().reads, rep.reads);
        EXPECT_EQ(mach.recovery_stats().writes, rep.writes);
        const MetricsSnapshot s = snapshot_metrics(mach, "recover");
        EXPECT_TRUE(s.reliability.enabled);
        EXPECT_EQ(s.reliability.crashes, 1u);
        EXPECT_EQ(s.reliability.recovery.scans, 1u);
        if (::testing::Test::HasFailure()) return;  // one failing point is enough
      }
    }
  }
  std::cout << "[ crash sweep ] " << points << " crash points recovered\n";
  EXPECT_TRUE(saw_resume) << "no crash point exercised a mid-layout resume";
}

TEST(DurableBuildTest, CachedBuildChargesArePinned) {
  // Under a cache, dirty pool frames alias the device bytes, so a simulated
  // crash never loses one and the crash sweep above cannot see a durable
  // build that skips its pre-commit flush.  The per-phase charges can: they
  // are pinned here for every index flavor x cache policy.
  const Workload w = make_workload(512, 23);
  struct Case {
    IndexKind kind;
    CachePolicy policy;
    const char* expect;
  };
  // Construction I/O is index-flavor-invariant; the policies differ only
  // in when the layout's dirty frames are written back.
  const char* lru =
      "em_sort.runs=32/24 store.build.layout=299/125 store.build.sort=32/24 "
      "build_writes=163 commits=9";
  const char* clean_first =
      "em_sort.runs=32/24 store.build.layout=299/121 store.build.sort=32/24 "
      "build_writes=163 commits=9";
  const Case cases[] = {
      {IndexKind::kFence, CachePolicy::kLru, lru},
      {IndexKind::kFence, CachePolicy::kCleanFirst, clean_first},
      {IndexKind::kCompact, CachePolicy::kLru, lru},
      {IndexKind::kCompact, CachePolicy::kCleanFirst, clean_first},
  };
  for (const Case& k : cases) {
    Config c = cfg(4096, 16, 8);
    c.cache.capacity_blocks = 8;
    c.cache.policy = k.policy;
    Machine mach(c);
    auto [slots, payload] = stage(mach, w);
    KvStore kv(mach, StoreConfig{k.kind, 8, /*manifest_interval=*/4});
    kv.build(slots, payload);
    std::string got;
    for (const auto& [name, io] : mach.phase_stats())
      got += name + "=" + std::to_string(io.reads) + "/" +
             std::to_string(io.writes) + " ";
    got += "build_writes=" + std::to_string(kv.build_writes()) +
           " commits=" + std::to_string(kv.manifest_commits());
    EXPECT_EQ(got, k.expect) << to_string(k.kind) << " " << to_string(k.policy);
  }
}

// --- crashes during serving-time puts --------------------------------------

/// A plain machine that records, at every charged write of `log`, the log's
/// bytes and the store's counters — the state a power cut at that write
/// leaves behind (docs/MODEL.md section 15).
class PutSnapshots : public Machine {
 public:
  using Machine::Machine;
  using Machine::submit;
  void submit(std::span<const BlockOp> ops,
              std::span<IoTicket> tickets) override {
    Machine::submit(ops, tickets);
    for (const BlockOp& op : ops)
      if (kv != nullptr && op.kind == OpKind::kWrite &&
          op.array == kv->log_array().id()) {
        logs.push_back(kv->log_array().unsafe_host_view());
        stats.push_back(kv->stats());
      }
  }
  const KvStore* kv = nullptr;
  std::vector<std::vector<Slot>> logs;
  std::vector<store::StoreStats> stats;
};

/// get() answered from a log image and the (put-invariant) payload area.
std::optional<std::vector<std::uint64_t>> get_from(
    const std::vector<Slot>& log, const std::vector<std::uint64_t>& payload,
    std::uint64_t key) {
  const auto it = std::upper_bound(
      log.begin(), log.end(), key,
      [](std::uint64_t k, const Slot& s) { return k < s.key; });
  if (it == log.begin() || std::prev(it)->key != key) return std::nullopt;
  const Slot& s = *std::prev(it);
  if (s.len == 0) return std::vector<std::uint64_t>{};
  if (s.len == 1) return std::vector<std::uint64_t>{s.pos};
  return std::vector<std::uint64_t>(payload.begin() + s.pos,
                                    payload.begin() + s.pos + s.len);
}

TEST(ServingCrashTest, PutStreamCutAtEveryWriteMatchesReference) {
  // A power cut at EVERY charged page write of a fixed put stream, under
  // both index flavors, through put_inline and put_inline_batch of 8.
  const Workload w = make_workload(512, 31);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stream;
  util::Rng rng(77);
  for (int i = 0; i < 96; ++i) {
    const std::uint64_t key = w.slots[rng.below(w.slots.size())].key;
    stream.emplace_back(i % 5 == 0 ? key ^ 1 : key, rng.next());  // 1/5 miss
  }
  const StoreConfig plain_cfg[] = {{IndexKind::kFence, 8, 0},
                                   {IndexKind::kCompact, 8, 0}};
  std::size_t points = 0;
  for (const StoreConfig& sc : plain_cfg) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      const auto run = [&](KvStore& kv) {
        for (std::size_t i = 0; i < stream.size(); i += batch) {
          const std::span<const std::pair<std::uint64_t, std::uint64_t>> ops(
              stream.data() + i, std::min(batch, stream.size() - i));
          if (batch == 1)
            kv.put_inline(ops[0].first, ops[0].second);
          else
            kv.put_inline_batch(ops);
        }
      };

      PutSnapshots ref_mach(cfg(4096, 16, 8));
      auto [rs, rp] = stage(ref_mach, w);
      KvStore ref(ref_mach, sc);
      ref.build(rs, rp);
      ref_mach.kv = &ref;
      run(ref);
      const std::size_t total = ref_mach.logs.size();
      ASSERT_GT(total, batch == 1 ? 60u : 30u);

      for (std::size_t cut = 1; cut <= total; ++cut) {
        SCOPED_TRACE(std::string(to_string(sc.index)) +
                     " batch=" + std::to_string(batch) +
                     " cut=" + std::to_string(cut));
        Machine mach(cfg(4096, 16, 8));
        auto [slots, payload] = stage(mach, w);
        KvStore kv(mach, sc);
        kv.build(slots, payload);
        const std::size_t resting = mach.ledger().used();
        const std::uint64_t built = mach.stats().writes;
        FaultConfig fc;
        fc.crash_after_writes = built + cut;
        mach.install_faults(fc);
        EXPECT_THROW(run(kv), CrashError);
        ++points;

        // The cut write was charged and landed; nothing after it ran.
        EXPECT_EQ(mach.stats().writes, built + cut);
        EXPECT_EQ(kv.log_array().unsafe_host_view(), ref_mach.logs[cut - 1]);
        EXPECT_EQ(kv.stats(), ref_mach.stats[cut - 1]);
        EXPECT_EQ(kv.stats().put_writes, cut - 1);
        EXPECT_EQ(mach.ledger().used(), resting);
        for (const auto& [key, value] : stream) {
          (void)value;
          EXPECT_EQ(kv.get(key), get_from(ref_mach.logs[cut - 1],
                                          kv.payload_array().unsafe_host_view(),
                                          key));
        }
        if (::testing::Test::HasFailure()) return;  // one failing point is enough
      }
    }
  }
  std::cout << "[ serving crash sweep ] " << points
            << " put crash points checked\n";
}

TEST(DurableBuildTest, RecoverMisuseThrowsDescriptively) {
  const Workload w = make_workload(64, 3);
  {
    Machine mach(cfg(4096, 16, 4));
    auto [slots, payload] = stage(mach, w);
    KvStore kv(mach, StoreConfig{IndexKind::kFence, 8, 4});
    kv.build(slots, payload);
    EXPECT_THROW(kv.recover(slots, payload), std::logic_error);  // built
  }
  {
    Machine mach(cfg(4096, 16, 4));
    auto [slots, payload] = stage(mach, w);
    KvStore kv(mach);  // non-durable
    EXPECT_THROW(kv.recover(slots, payload), std::logic_error);
  }
}

TEST(CrashEnvRecoveryTest, EnvArmedCutRecoversToIdenticalStore) {
  // CI runs this test with AEM_CRASH_AFTER_WRITES=N in the environment
  // (scripts/ci_sanitize.sh); standalone it arms its own default point.
  EnvGuard g("AEM_CRASH_AFTER_WRITES");
  if (std::getenv("AEM_CRASH_AFTER_WRITES") == nullptr)
    ::setenv("AEM_CRASH_AFTER_WRITES", "60", 1);

  const Workload w = make_workload(512, 29);
  const StoreConfig sc{IndexKind::kFence, 8, /*manifest_interval=*/4};

  Machine ref_mach(cfg(4096, 16, 8));
  auto [rs, rp] = stage(ref_mach, w);
  KvStore ref(ref_mach, sc);
  ref.build(rs, rp);

  Machine mach(cfg(4096, 16, 8));
  mach.install_faults(FaultConfig::from_env(FaultConfig{}));
  ASSERT_TRUE(mach.faults()->crash_armed());
  auto [slots, payload] = stage(mach, w);
  KvStore kv(mach, sc);
  try {
    kv.build(slots, payload);
    // Crash point beyond this build: nothing to recover, store just works.
  } catch (const CrashError&) {
    const RecoveryReport rep = kv.recover(slots, payload);
    EXPECT_EQ(mach.recovery_stats().scans, 1u);
    (void)rep;
  }
  EXPECT_EQ(kv.log_array().unsafe_host_view(),
            ref.log_array().unsafe_host_view());
  util::Rng rng(7);
  for (int t = 0; t < 32; ++t) {
    const std::uint64_t key = w.slots[rng.below(w.slots.size())].key;
    EXPECT_EQ(kv.get(key), ref.get(key));
  }
}

// --- device outages ------------------------------------------------------

ShardConfig shard_cfg(std::size_t devices, std::vector<OutageSpec> outages) {
  ShardConfig sc;
  sc.frontend = cfg(4096, 16, 8);
  sc.devices.assign(devices, cfg(4096, 16, 8));
  sc.outages = std::move(outages);
  return sc;
}

TEST(OutageConfigTest, ValidateRejectsBadWindows) {
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{5, 1, 0}})),
               std::invalid_argument);  // unknown device
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{0, 1, 9}, {0, 20, 30}})),
               std::invalid_argument);  // duplicate device
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{0, 10, 10}})),
               std::invalid_argument);  // window ends before it starts
  EXPECT_THROW(ShardedMachine(shard_cfg(2, {{0, 10, 5}})),
               std::invalid_argument);
  ShardConfig bad = shard_cfg(2, {{0, 10, 0}});
  bad.outage_retry.backoff_base = 9;
  bad.outage_retry.backoff_cap = 2;
  EXPECT_THROW(ShardedMachine{bad}, std::invalid_argument);
  EXPECT_NO_THROW(ShardedMachine(shard_cfg(2, {{0, 10, 20}, {1, 30, 0}})));
}

/// Reads and writes every block of an array a few times; returns the sum
/// of the first word of every block read, so callers can compare results.
std::uint64_t drive(ShardedMachine& mach) {
  ExtArray<std::uint64_t> arr(mach, 40 * mach.B(), "traffic");
  Buffer<std::uint64_t> buf(mach, mach.B());
  std::uint64_t acc = 0;
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    for (std::uint64_t bi = 0; bi < arr.blocks(); ++bi) {
      arr.read_block(bi, buf.span());
      acc += buf[0];
      buf[0] = pass * 1000 + bi;
      arr.write_block(bi, std::span<const std::uint64_t>(
                              buf.data(), arr.block_elems(bi)));
    }
  }
  return acc;
}

TEST(OutageTest, ReadsWaitWritesQueueAndDrainWithExactAccounting) {
  ShardedMachine calm(shard_cfg(2, {}));
  const std::uint64_t calm_acc = drive(calm);

  // A window the backoff polls can wait out (the polls advance the clock).
  ShardedMachine dark(shard_cfg(2, {{1, 40, 70}}));
  const std::uint64_t dark_acc = drive(dark);

  // Degraded, not wrong: identical results, identical write counters, and
  // the read overhead is EXACTLY the charged backoff polls.
  EXPECT_EQ(calm_acc, dark_acc);
  EXPECT_EQ(calm.stats().writes, dark.stats().writes);
  const OutageStats& os = dark.outage_stats(1);
  EXPECT_GT(os.wait_rounds, 0u);
  EXPECT_GT(os.backoff_ios, 0u);
  EXPECT_EQ(os.failed_reads, 0u);
  EXPECT_EQ(dark.stats().reads, calm.stats().reads + os.backoff_ios);

  // Every write deferred while down was replayed once the window closed.
  EXPECT_GT(os.queued_writes, 0u);
  EXPECT_EQ(os.drained_writes, os.queued_writes);
  EXPECT_EQ(dark.pending_writes(1), 0u);

  // Device conservation: both devices end with the same native transfer
  // totals as the calm twin (the queue defers charges, never drops them).
  EXPECT_EQ(calm.device(1).stats().writes, dark.device(1).stats().writes);

  const MetricsSnapshot s = snapshot_metrics(dark, "outage");
  EXPECT_TRUE(s.reliability.enabled);
  ASSERT_EQ(s.reliability.outages.size(), 1u);
  EXPECT_EQ(s.reliability.outages[0].device, 1u);
  EXPECT_EQ(s.reliability.outages[0].drained_writes, os.drained_writes);
}

TEST(OutageTest, PermanentOutageExhaustsIntoFaultError) {
  ShardConfig sc = shard_cfg(2, {{1, 10, 0}});  // never comes back
  sc.outage_retry = RetryPolicy{3, 1, 8};
  ShardedMachine mach(sc);
  EXPECT_THROW(drive(mach), FaultError);
  EXPECT_EQ(mach.outage_stats(1).failed_reads, 1u);
  EXPECT_GT(mach.outage_stats(1).backoff_ios, 0u);
}

TEST(OutageTest, BudgetCeilingIsAdmissionControlDuringWaits) {
  ShardConfig sc = shard_cfg(2, {{1, 10, 100000}});
  sc.outage_retry = RetryPolicy{64, 4, 1 << 20};  // waits far past any cap
  ShardedMachine mach(sc);
  FaultConfig fc;
  fc.max_ios = 200;
  mach.install_faults(fc);
  // The polls themselves advance the charged op counter, so a configured
  // ceiling cuts an unserviceable wait short instead of spinning.
  EXPECT_THROW(drive(mach), BudgetExceeded);
}

}  // namespace
