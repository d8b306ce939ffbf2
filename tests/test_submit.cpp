// Tests for Machine::submit, the one charge entry (docs/MODEL.md section
// 17): byte-identity of counters / phases / wear / trace with op-at-a-time
// charging, completion tickets, the per-op replay of batches that fire a
// crash point or a ceiling, the sharded per-device batch routing, the
// batched cache flush, and a randomized batch == per-op property test over
// plain and sharded machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/sharding.hpp"
#include "core/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;

Config cfg(std::size_t M = 1024, std::size_t B = 16, std::uint64_t w = 8) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

// A mixed read/write batch over two arrays with repeated blocks (so wear
// histograms see concentration, not just coverage).
std::vector<BlockOp> mixed_ops(std::size_t n) {
  std::vector<BlockOp> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const OpKind kind = (i % 3 == 2) ? OpKind::kWrite : OpKind::kRead;
    ops.push_back(BlockOp{kind, static_cast<std::uint32_t>(i % 2),
                          static_cast<std::uint64_t>(i % 7)});
  }
  return ops;
}

void replay_per_op(Machine& m, const std::vector<BlockOp>& ops,
                   std::vector<IoTicket>* tickets = nullptr) {
  for (const BlockOp& op : ops) {
    const IoTicket t = op.kind == OpKind::kWrite ? m.on_write(op.array, op.block)
                                                 : m.on_read(op.array, op.block);
    if (tickets != nullptr) tickets->push_back(t);
  }
}

void expect_same_traces(const Trace* a, const Trace* b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->op(i).kind, b->op(i).kind) << "op " << i;
    EXPECT_EQ(a->op(i).array, b->op(i).array) << "op " << i;
    EXPECT_EQ(a->op(i).block, b->op(i).block) << "op " << i;
  }
}

TEST(SubmitTest, MatchesPerOpCountersPhasesWearTraceAndTickets) {
  Machine per_op(cfg());
  Machine batched(cfg());
  for (Machine* m : {&per_op, &batched}) {
    m->register_array("a");
    m->register_array("b");
    m->enable_wear_tracking();
    m->enable_trace();
  }
  const std::vector<BlockOp> ops = mixed_ops(100);

  std::vector<IoTicket> per_tickets;
  std::vector<IoTicket> batch_tickets(ops.size());
  {
    auto outer = per_op.phase("outer");
    auto inner = per_op.phase("inner");
    replay_per_op(per_op, ops, &per_tickets);
  }
  {
    auto outer = batched.phase("outer");
    auto inner = batched.phase("inner");
    batched.submit(ops, batch_tickets);
  }

  EXPECT_EQ(per_op.stats(), batched.stats());
  EXPECT_EQ(per_op.cost(), batched.cost());
  EXPECT_EQ(per_op.phase_stats(), batched.phase_stats());
  const auto w1 = per_op.wear_stats();
  const auto w2 = batched.wear_stats();
  EXPECT_EQ(w1.blocks_written, w2.blocks_written);
  EXPECT_EQ(w1.max_writes, w2.max_writes);
  EXPECT_DOUBLE_EQ(w1.mean_writes, w2.mean_writes);
  expect_same_traces(per_op.trace(), batched.trace());
  ASSERT_EQ(per_tickets.size(), batch_tickets.size());
  for (std::size_t i = 0; i < per_tickets.size(); ++i) {
    EXPECT_TRUE(batch_tickets[i].valid());
    EXPECT_EQ(per_tickets[i].index, batch_tickets[i].index) << "ticket " << i;
  }
}

TEST(SubmitTest, EmptyBatchChargesNothingAndBadTicketsThrow) {
  Machine m(cfg());
  m.register_array("a");
  m.submit({});
  EXPECT_EQ(m.stats().total_ios(), 0u);

  const std::vector<BlockOp> ops = mixed_ops(4);
  std::vector<IoTicket> wrong(3);
  EXPECT_THROW(m.submit(ops, wrong), std::invalid_argument);
  EXPECT_EQ(m.stats().total_ios(), 0u);  // rejected before any charge
}

TEST(SubmitTest, TicketsInvalidWhenNotTracing) {
  Machine m(cfg());
  m.register_array("a");
  const std::vector<BlockOp> ops = mixed_ops(8);
  std::vector<IoTicket> tickets(ops.size());
  tickets[0].index = 7;  // stale garbage must be overwritten
  m.submit(ops, tickets);
  for (const IoTicket& t : tickets) EXPECT_FALSE(t.valid());
}

TEST(SubmitTest, CrashFiresOnExactNthChargedWriteInsideBatch) {
  // The armed power cut lands mid-batch: the batch must degrade to the
  // per-op loop so CrashError fires on exactly the same charged write as
  // the historical path, with every op before it charged and none after.
  FaultConfig fc;
  fc.crash_after_writes = 5;

  Machine per_op(cfg());
  Machine batched(cfg());
  const std::vector<BlockOp> ops = mixed_ops(40);  // writes at i % 3 == 2
  for (Machine* m : {&per_op, &batched}) {
    m->register_array("a");
    m->register_array("b");
    m->install_faults(fc);
  }
  EXPECT_THROW(replay_per_op(per_op, ops), CrashError);
  const IoStats per_at_crash = per_op.stats();
  EXPECT_THROW(batched.submit(ops), CrashError);
  const IoStats batch_at_crash = batched.stats();

  EXPECT_EQ(per_at_crash, batch_at_crash);
  EXPECT_EQ(batch_at_crash.writes, fc.crash_after_writes);

  // One-shot: the fired crash point stays disarmed, so the remaining ops
  // can be resubmitted — and then they bulk-charge cleanly.
  EXPECT_NO_THROW(per_op.submit(ops));
  EXPECT_NO_THROW(batched.submit(ops));
  EXPECT_EQ(per_op.stats(), batched.stats());
}

TEST(SubmitTest, DueCrashFiresOnFirstOpOfReadOnlyBatch) {
  // Armed after the write clock already passed the cut: the next op of any
  // kind fires, so even a read-only batch stops after its first read.
  FaultConfig fc;
  fc.crash_after_writes = 2;
  Machine per_op(cfg());
  Machine batched(cfg());
  for (Machine* m : {&per_op, &batched}) {
    m->register_array("a");
    for (std::uint64_t b = 0; b < 3; ++b) m->on_write(0, b);
    m->install_faults(fc);
  }
  const std::vector<BlockOp> reads(5, BlockOp{OpKind::kRead, 0, 1});
  EXPECT_THROW(replay_per_op(per_op, reads), CrashError);
  EXPECT_THROW(batched.submit(reads), CrashError);
  EXPECT_EQ(per_op.stats(), batched.stats());
  EXPECT_EQ(batched.stats().reads, 1u);
}

TEST(SubmitTest, CrashBeyondBatchStaysArmedAndBulk) {
  FaultConfig fc;
  fc.crash_after_writes = 1000;
  Machine m(cfg());
  m.register_array("a");
  m.register_array("b");
  m.install_faults(fc);
  const std::vector<BlockOp> ops = mixed_ops(30);
  EXPECT_NO_THROW(m.submit(ops));
  EXPECT_TRUE(m.faults()->crash_armed());
}

TEST(SubmitTest, CeilingChargesPerOpPrefixThenThrows) {
  // A batch whose projected total crosses a ceiling is replayed one op at a
  // time: every op up to and including the crossing one is charged, then
  // BudgetExceeded is thrown — exactly what the per-op loop does.
  for (const bool use_cost_ceiling : {true, false}) {
    FaultConfig fc;
    if (use_cost_ceiling) {
      fc.max_cost = 50;  // 5 (R, R, W) triples cost 50; the 16th op crosses
    } else {
      fc.max_ios = 25;
    }
    Machine per_op(cfg());
    Machine batched(cfg());
    for (Machine* m : {&per_op, &batched}) {
      m->register_array("a");
      m->register_array("b");
      m->install_faults(fc);
    }
    const std::vector<BlockOp> ops = mixed_ops(30);
    EXPECT_THROW(replay_per_op(per_op, ops), BudgetExceeded);
    try {
      batched.submit(ops);
      ADD_FAILURE() << "no BudgetExceeded, cost=" << use_cost_ceiling;
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.at(), batched.stats());
    }
    EXPECT_EQ(per_op.stats(), batched.stats());
    EXPECT_EQ(batched.stats().total_ios(), use_cost_ceiling ? 16u : 26u);

    // A batch that fits is charged in full.
    Machine fresh(cfg());
    fresh.register_array("a");
    fresh.register_array("b");
    fresh.install_faults(fc);
    EXPECT_NO_THROW(fresh.submit(mixed_ops(6)));
    EXPECT_EQ(fresh.stats().total_ios(), 6u);
  }
}

ShardConfig shard_cfg(std::size_t devices, std::size_t dev_block = 16) {
  ShardConfig sc;
  sc.frontend.memory_elems = 1024;
  sc.frontend.block_elems = 16;
  sc.frontend.write_cost = 8;
  for (std::size_t d = 0; d < devices; ++d) {
    Config dev;
    dev.memory_elems = 1024;
    dev.block_elems = dev_block;
    dev.write_cost = 8;
    sc.devices.push_back(dev);
  }
  return sc;
}

TEST(SubmitTest, ShardedBatchMatchesPerOpOnEveryDevice) {
  for (const std::size_t dev_block : {16u, 4u}) {  // amp 1 and amp 4
    ShardedMachine per_op(shard_cfg(3, dev_block));
    ShardedMachine batched(shard_cfg(3, dev_block));
    const std::vector<BlockOp> ops = mixed_ops(120);
    for (ShardedMachine* m : {&per_op, &batched}) {
      m->register_array("a");
      m->register_array("b");
      m->enable_trace();
      m->enable_device_wear_tracking();
    }
    replay_per_op(per_op, ops);
    batched.submit(ops);

    EXPECT_EQ(per_op.stats(), batched.stats());
    expect_same_traces(per_op.trace(), batched.trace());
    EXPECT_EQ(per_op.devices_stats(), batched.devices_stats());
    EXPECT_EQ(per_op.devices_cost(), batched.devices_cost());
    EXPECT_DOUBLE_EQ(per_op.wear_spread(), batched.wear_spread());
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(per_op.device(d).stats(), batched.device(d).stats())
          << "device " << d << " dev_block " << dev_block;
      const auto w1 = per_op.device(d).wear_stats();
      const auto w2 = batched.device(d).wear_stats();
      EXPECT_EQ(w1.blocks_written, w2.blocks_written);
      EXPECT_EQ(w1.max_writes, w2.max_writes);
    }
  }
}

TEST(SubmitTest, ShardedOutageWindowDegradesToPerOpPath) {
  ShardConfig sc_a = shard_cfg(2);
  sc_a.outages.push_back(OutageSpec{1, 3, 20});
  ShardConfig sc_b = sc_a;
  ShardedMachine per_op(sc_a);
  ShardedMachine batched(sc_b);
  const std::vector<BlockOp> ops = mixed_ops(40);
  for (ShardedMachine* m : {&per_op, &batched}) {
    m->register_array("a");
    m->register_array("b");
  }
  replay_per_op(per_op, ops);
  batched.submit(ops);

  EXPECT_EQ(per_op.stats(), batched.stats());
  EXPECT_EQ(per_op.devices_stats(), batched.devices_stats());
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(per_op.outage_stats(d), batched.outage_stats(d)) << "dev " << d;
    EXPECT_EQ(per_op.pending_writes(d), batched.pending_writes(d));
  }
}

TEST(SubmitTest, CacheFlushBatchesIdenticallyToPerBlockFlush) {
  // The grouped flush hands per-array runs to ExtArray's batch sink; with a
  // zero-rate fault policy installed the sink degrades to the per-block
  // loop.  Both machines must end with identical charges and clean pools.
  Config plain = cfg();
  plain.cache.capacity_blocks = 8;
  Config guarded = plain;
  Machine batched(plain);
  Machine per_block(guarded);
  per_block.install_faults(FaultConfig{});  // zero rates: only a path toggle
  for (Machine* m : {&batched, &per_block}) {
    ExtArray<std::uint64_t> arr(*m, 320, "arr");
    std::vector<std::uint64_t> block(16, 7);
    for (std::uint64_t bi = 0; bi < 20; ++bi)
      arr.write_block(bi, std::span<const std::uint64_t>(block));
    m->flush_cache();
    EXPECT_EQ(m->cache()->resident_dirty(), 0u);
  }
  EXPECT_EQ(batched.stats(), per_block.stats());
  EXPECT_EQ(batched.cache()->stats().write_backs,
            per_block.cache()->stats().write_backs);
}

// --- batch == per-op property test ----------------------------------------

enum class Arm { kNone, kCrash, kCost, kIos, kDeviceCost, kDeviceIos,
                 kDeviceCrash };

// What a submit (or its op-at-a-time twin) threw, and the charges it
// carried at the moment of the throw.
struct Thrown {
  std::string kind = "none";
  IoStats at;
};

template <class Fn>
Thrown run_catching(Fn&& fn) {
  Thrown t;
  try {
    fn();
  } catch (const CrashError& e) {
    t.kind = "crash";
    t.at = e.at();
  } catch (const BudgetExceeded& e) {
    t.kind = "budget";
    t.at = e.at();
  }
  return t;
}

void expect_same_machine(const Machine& a, const Machine& b,
                         const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_EQ(a.phase_stats(), b.phase_stats());
  const auto wa = a.wear_by_array();
  const auto wb = b.wear_by_array();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].array, wb[i].array);
    EXPECT_EQ(wa[i].blocks_written, wb[i].blocks_written);
    EXPECT_EQ(wa[i].writes, wb[i].writes);
    EXPECT_EQ(wa[i].max_writes, wb[i].max_writes);
  }
}

TEST(SubmitPropertyTest, RandomBatchesMatchOpAtATimeUnderArmedSchedules) {
  // Seeded random op streams cut into random batch sizes (1 included) and
  // submitted, against a twin charging the same ops one at a time through
  // on_read/on_write.  Every run arms one schedule — a crash point, a cost
  // or I/O ceiling on the machine, or (sharded) a ceiling or crash point on
  // one member device — sized to land inside the stream most of the time.
  // After every batch both machines must agree on counters, phases, wear,
  // trace, tickets, device counters and wear, and on the type of any throw
  // and the charges it carried.
  std::size_t runs = 0;
  std::size_t throws = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    util::Rng rng(seed);
    const int shape = static_cast<int>(seed % 3);  // plain, RR, range
    const std::size_t n_ops = 20 + rng.below(180);
    std::vector<BlockOp> ops;
    std::uint64_t total_writes = 0;
    const std::uint64_t write_one_in = 2 + rng.below(7);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const bool w = rng.below(write_one_in) == 0;
      total_writes += w ? 1 : 0;
      ops.push_back(BlockOp{w ? OpKind::kWrite : OpKind::kRead,
                            static_cast<std::uint32_t>(rng.below(3)),
                            rng.below(40)});
    }
    const Arm arm = static_cast<Arm>(rng.below(shape == 0 ? 4 : 7));
    // Some runs arm only after a few writes, so a schedule can already be
    // due when the first batch arrives (even a read-only one then fires).
    const std::uint64_t warm_writes = rng.below(2) == 0 ? 0 : rng.below(6);

    ShardConfig sc;
    sc.frontend = cfg(1024, 16, 8);
    sc.placement = shape == 2 ? Placement::kRange : Placement::kRoundRobin;
    sc.range_chunk_blocks = 3;
    const std::size_t dev_b[3] = {16, 8, 4};
    const std::uint64_t dev_w[3] = {8, 2, 16};
    for (std::size_t d = 0; d < 3; ++d)
      sc.devices.push_back(cfg(1024, dev_b[d], dev_w[d]));
    auto make = [&]() -> std::unique_ptr<Machine> {
      if (shape == 0) return std::make_unique<Machine>(sc.frontend);
      return std::make_unique<ShardedMachine>(sc);
    };
    std::unique_ptr<Machine> batched = make();
    std::unique_ptr<Machine> twin = make();

    FaultConfig fc;
    const std::uint64_t full_cost = n_ops + 7 * total_writes;
    switch (arm) {
      case Arm::kNone: break;
      case Arm::kCrash:
        fc.crash_after_writes =
            1 + rng.below(rng.below(2) == 0 ? warm_writes + 1
                                            : warm_writes + total_writes + 4);
        break;
      case Arm::kCost: fc.max_cost = 1 + rng.below(full_cost + 8); break;
      case Arm::kIos: fc.max_ios = 1 + rng.below(n_ops + 8); break;
      case Arm::kDeviceCost: fc.max_cost = 1 + rng.below(3 * full_cost); break;
      case Arm::kDeviceIos: fc.max_ios = 1 + rng.below(2 * n_ops); break;
      case Arm::kDeviceCrash:
        fc.crash_after_writes = 1 + rng.below(2 * total_writes + 4);
        break;
    }
    const bool on_device = arm >= Arm::kDeviceCost;
    const std::size_t armed_dev = rng.below(3);
    for (Machine* m : {batched.get(), twin.get()}) {
      for (const char* name : {"a", "b", "c"}) m->register_array(name);
      m->enable_wear_tracking();
      m->enable_trace();
      for (std::uint64_t i = 0; i < warm_writes; ++i) m->on_write(0, i);
      if (auto* sm = dynamic_cast<ShardedMachine*>(m)) {
        sm->enable_device_wear_tracking();
        if (on_device) sm->device(armed_dev).install_faults(fc);
      }
      if (arm != Arm::kNone && !on_device) m->install_faults(fc);
    }

    ++runs;
    Thrown got, want;
    std::size_t pos = 0;
    for (std::size_t batch = 0; pos < ops.size(); ++batch) {
      const std::size_t len =
          std::min(ops.size() - pos, rng.below(4) == 0 ? 1 : 1 + rng.below(24));
      const std::vector<BlockOp> part(ops.begin() + pos,
                                      ops.begin() + pos + len);
      pos += len;
      const char* phase = batch % 2 == 0 ? "even" : "odd";
      std::vector<IoTicket> tickets(part.size());
      std::vector<IoTicket> twin_tickets;
      got = run_catching([&] {
        auto p = batched->phase(phase);
        batched->submit(part, tickets);
      });
      want = run_catching([&] {
        auto p = twin->phase(phase);
        replay_per_op(*twin, part, &twin_tickets);
      });
      SCOPED_TRACE("seed " + std::to_string(seed) + " batch " +
                   std::to_string(batch));
      ASSERT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.at, want.at);
      expect_same_machine(*twin, *batched, "facade");
      expect_same_traces(twin->trace(), batched->trace());
      if (want.kind == "none") {
        for (std::size_t i = 0; i < part.size(); ++i)
          EXPECT_EQ(tickets[i].index, twin_tickets[i].index) << "op " << i;
      }
      if (shape != 0) {
        auto& sb = dynamic_cast<ShardedMachine&>(*batched);
        auto& st = dynamic_cast<ShardedMachine&>(*twin);
        for (std::size_t d = 0; d < 3; ++d)
          expect_same_machine(st.device(d), sb.device(d),
                              "device " + std::to_string(d));
      }
      if (want.kind != "none") {
        ++throws;
        break;
      }
    }
  }
  std::cout << "[ property  ] " << runs << " runs, " << throws
            << " ended in a throw\n";
  EXPECT_GT(throws, runs / 3);
}

}  // namespace
