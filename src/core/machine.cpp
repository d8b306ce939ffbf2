#include "core/machine.hpp"

#include <stdexcept>

namespace aem {

Machine::Machine(Config cfg)
    : cfg_(cfg), ledger_(cfg.capacity(), cfg.strict) {
  cfg_.validate();
  if (cfg_.cache.capacity_blocks != 0) install_cache(cfg_.cache);
}

void Machine::reset_stats() {
  stats_ = IoStats{};
  clear_phase_stats();
  ledger_.reset_high_water();
  recovery_ = RecoveryStats{};
  if (wear_) wear_->clear();
  // Rewind the fault schedule too: a measured case that begins with
  // reset_stats() sees the same faults whether or not staging ran before.
  // (This also re-arms a fired crash point — the write clock restarts.)
  if (faults_) faults_->reset();
  // Cache COUNTERS reset; resident blocks and dirtiness are kept (they are
  // real state, and dropping dirtiness would silently lose deferred
  // writes).  Flush before reset for clean per-case accounting.
  if (cache_) cache_->reset_stats();
}

void Machine::install_faults(FaultConfig cfg) {
  faults_ = std::make_unique<FaultPolicy>(cfg);
}

void Machine::install_cache(CacheConfig cfg) {
  cfg.validate();
  if (cfg.capacity_blocks == 0) {
    cache_.reset();  // bypass mode: no pool at all
    return;
  }
  cache_ = std::make_unique<BlockCache>(cfg, cfg_.write_cost);
}

std::uint32_t Machine::intern_phase(std::string_view name) {
  if (auto it = phase_ids_.find(name); it != phase_ids_.end())
    return it->second;
  const auto id = static_cast<std::uint32_t>(phase_names_.size());
  phase_names_.emplace_back(name);
  phase_ids_.emplace(phase_names_.back(), id);
  phase_totals_.emplace_back();
  phase_active_.push_back(0);
  return id;
}

Machine::PhaseScope::PhaseScope(Machine& mach, std::string_view name)
    : mach_(mach) {
  const std::uint32_t id = mach_.intern_phase(name);
  // Dedup decided once, here: a name already active contributes nothing to
  // attribute(), so the hot path never compares names.
  owns_slot_ = (mach_.phase_active_[id] == 0);
  if (owns_slot_) {
    mach_.phase_active_[id] = 1;
    mach_.active_phases_.push_back(id);
  }
}

Machine::PhaseScope::~PhaseScope() {
  if (owns_slot_) {
    // Scopes are strictly nested, so the owned id is the most recent one.
    mach_.phase_active_[mach_.active_phases_.back()] = 0;
    mach_.active_phases_.pop_back();
  }
}

std::map<std::string, IoStats> Machine::phase_stats() const {
  std::map<std::string, IoStats> out;
  for (std::size_t id = 0; id < phase_names_.size(); ++id) {
    const IoStats& s = phase_totals_[id];
    if (s.reads != 0 || s.writes != 0) out.emplace(phase_names_[id], s);
  }
  return out;
}

void Machine::clear_phase_stats() {
  // Zero the totals but keep names interned: ids held by live PhaseScopes
  // stay valid, and re-entered phases reuse their slot without rehashing.
  for (IoStats& s : phase_totals_) s = IoStats{};
}

const std::string& Machine::phase_name(std::uint32_t id) const {
  if (id >= phase_names_.size()) throw std::out_of_range("unknown phase id");
  return phase_names_[id];
}

const IoStats& Machine::phase_io(std::uint32_t id) const {
  if (id >= phase_totals_.size()) throw std::out_of_range("unknown phase id");
  return phase_totals_[id];
}

void Machine::enable_trace() { trace_ = std::make_unique<Trace>(); }

std::unique_ptr<Trace> Machine::take_trace() { return std::move(trace_); }

std::uint32_t Machine::register_array(std::string name) {
  arrays_.push_back(std::move(name));
  return static_cast<std::uint32_t>(arrays_.size() - 1);
}

const std::string& Machine::array_name(std::uint32_t id) const {
  if (id >= arrays_.size()) throw std::out_of_range("unknown array id");
  return arrays_[id];
}

void Machine::validate_tickets(std::span<const BlockOp> ops,
                               std::span<IoTicket> tickets) {
  if (!tickets.empty() && tickets.size() != ops.size())
    throw std::invalid_argument(
        "Machine::submit: tickets span must be empty or match ops");
}

bool Machine::batch_fires(std::uint64_t reads, std::uint64_t writes) const {
  if (!faults_) return false;
  const FaultConfig& fc = faults_->config();
  // Any op fires an armed cut once the write clock has reached it.
  if (faults_->crash_armed() &&
      stats_.writes + writes >= fc.crash_after_writes)
    return true;
  IoStats projected = stats_;
  projected.reads += reads;
  projected.writes += writes;
  return (fc.max_cost != 0 && projected.cost(cfg_.write_cost) > fc.max_cost) ||
         (fc.max_ios != 0 && projected.total_ios() > fc.max_ios);
}

void Machine::bulk_charge(std::span<const BlockOp> ops, std::uint64_t reads,
                          std::uint64_t writes, std::span<IoTicket> tickets) {
  stats_.reads += reads;
  stats_.writes += writes;
  for (std::uint32_t id : active_phases_) {
    IoStats& s = phase_totals_[id];
    s.reads += reads;
    s.writes += writes;
  }
  if (wear_ && writes != 0)
    for (const BlockOp& op : ops)
      if (op.kind == OpKind::kWrite) record_wear(op.array, op.block);
  if (trace_) {
    if (tickets.empty()) {
      for (const BlockOp& op : ops) trace_->add(op.kind, op.array, op.block);
    } else {
      for (std::size_t i = 0; i < ops.size(); ++i)
        tickets[i] = trace_->add(ops[i].kind, ops[i].array, ops[i].block);
    }
  } else {
    for (IoTicket& t : tickets) t = IoTicket{};
  }
}

void Machine::submit(std::span<const BlockOp> ops, std::span<IoTicket> tickets) {
  if (ops.size() == 1 && tickets.size() <= 1) {  // on_read / on_write
    const IoTicket t = charge(ops[0]);
    if (!tickets.empty()) tickets[0] = t;
    return;
  }
  validate_tickets(ops, tickets);
  const std::uint64_t writes = count_writes(ops);
  const std::uint64_t reads = ops.size() - writes;
  if (!batch_fires(reads, writes)) {
    bulk_charge(ops, reads, writes, tickets);
    return;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const IoTicket t = charge(ops[i]);
    if (!tickets.empty()) tickets[i] = t;
  }
}

Machine::WearStats Machine::wear_stats() const {
  WearStats ws;
  if (!wear_) return ws;
  std::uint64_t total = 0;
  for (const auto& blocks : *wear_) {
    for (std::uint64_t count : blocks) {
      if (count == 0) continue;
      ++ws.blocks_written;
      total += count;
      if (count > ws.max_writes) ws.max_writes = count;
    }
  }
  if (ws.blocks_written != 0)
    ws.mean_writes =
        static_cast<double>(total) / static_cast<double>(ws.blocks_written);
  return ws;
}

std::vector<Machine::ArrayWear> Machine::wear_by_array() const {
  std::vector<ArrayWear> out;
  if (!wear_) return out;
  for (std::size_t a = 0; a < wear_->size(); ++a) {
    const auto& blocks = (*wear_)[a];
    ArrayWear aw;
    aw.array = static_cast<std::uint32_t>(a);
    for (std::uint64_t count : blocks) {
      if (count == 0) continue;
      ++aw.blocks_written;
      aw.writes += count;
      if (count > aw.max_writes) aw.max_writes = count;
    }
    if (aw.blocks_written != 0) out.push_back(aw);
  }
  return out;
}

}  // namespace aem
