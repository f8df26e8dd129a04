#pragma once
// RV32IM instruction-set simulator with a PicoRV32-style multi-cycle timing
// model and an observer hook that reports per-instruction micro-architectural
// activity (register/bus toggles) — the raw material for the power model.
//
// Hot path: load_program() predecodes the program region into a cache of
// decoded instructions (class and cycle costs included), so the execute loop
// skips decode()/classify()/cycles_for() per retirement. Stores into the
// program region invalidate the affected cache word, and invalidated words
// re-decode lazily on the next fetch, so self-modifying code behaves exactly
// like the decode-per-step reference (pinned by the differential fuzz in
// tests/test_fast_path.cpp). run_with() additionally binds the observer
// statically, eliminating the virtual dispatch of run() — with a
// NullExecutionObserver the event construction folds away entirely.
//
// Above the predecode cache sits the basic-block translation tier
// (block_translator.hpp, DESIGN.md §6f): straight-line blocks are
// translated once into flat micro-op runs and executed by a threaded
// dispatch loop (exec_block) that checks the instruction budget once per
// block entry, keeps cycle/retired counters in registers, and statically
// inlines the observer. A store into a translated block's word range drops
// the block back to the predecode tier through the same invalidation
// machinery. Every tier produces byte-identical InstrEvent streams and
// machine state; run_reference() remains the decode-per-step anchor.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "riscv/block_translator.hpp"
#include "riscv/isa.hpp"

namespace reveal::riscv {

/// Per-instruction cycle costs. Defaults approximate the PicoRV32 "regular"
/// configuration (non-pipelined fetch/decode/execute, sequential
/// multiplier) used by the paper's victim at 1.5 MHz.
struct TimingModel {
  std::uint32_t alu = 3;
  std::uint32_t alu_imm = 3;
  std::uint32_t load = 5;
  std::uint32_t store = 5;
  std::uint32_t branch_not_taken = 3;
  std::uint32_t branch_taken = 5;
  std::uint32_t jump = 5;
  std::uint32_t mul = 35;  // bit-serial multiplier
  std::uint32_t div = 40;  // bit-serial divider
  std::uint32_t system = 3;

  [[nodiscard]] std::uint32_t cycles_for(InstrClass klass, bool branch_taken) const noexcept;
};

/// Everything the power model needs to know about one retired instruction.
struct InstrEvent {
  std::uint32_t pc = 0;
  Op op = Op::kInvalid;
  InstrClass klass = InstrClass::kSystem;
  std::uint8_t rd = 0;
  std::uint32_t rs1_val = 0;
  std::uint32_t rs2_val = 0;
  std::uint32_t rd_old = 0;      ///< destination register content before write
  std::uint32_t rd_new = 0;      ///< destination register content after write
  bool rd_written = false;
  bool branch_taken = false;
  std::uint32_t mem_addr = 0;
  std::uint32_t mem_data = 0;    ///< written (stores) or read (loads) value
  bool is_mem_read = false;
  bool is_mem_write = false;
  std::uint32_t cycles = 0;      ///< from the timing model
};

/// Receives one callback per retired instruction.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;
  virtual void on_instruction(const InstrEvent& event) = 0;
};

/// Statically-dispatched no-op observer for run_with(): the inlined empty
/// callback lets the compiler discard the whole InstrEvent construction.
struct NullExecutionObserver {
  void on_instruction(const InstrEvent&) noexcept {}
};

class Machine {
 public:
  enum class StopReason { kHalt, kInstrLimit, kTrap };

  explicit Machine(std::size_t memory_bytes = 256 * 1024,
                   TimingModel timing = TimingModel{});

  /// Copies program words to `address`, sets the pc there, and (when
  /// predecoding is enabled) rebuilds the decoded-instruction cache over
  /// the program region.
  void load_program(const std::vector<std::uint32_t>& words, std::uint32_t address = 0);

  [[nodiscard]] std::uint32_t reg(Reg r) const noexcept { return regs_[index(r)]; }
  void set_reg(Reg r, std::uint32_t value) noexcept {
    if (r != zero) regs_[index(r)] = value;
  }
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }

  /// Word-aligned direct memory access for the host (throws on OOB). Host
  /// stores into the program region invalidate the predecode cache word.
  [[nodiscard]] std::uint32_t load_word(std::uint32_t address) const;
  void store_word(std::uint32_t address, std::uint32_t value);

  /// Executes until EBREAK/ECALL, the instruction limit, or a trap.
  /// Dispatches the observer virtually; a null observer takes the fused
  /// no-observer fast path.
  StopReason run(std::uint64_t max_instructions, ExecutionObserver* observer = nullptr);

  /// Fused run loop: the observer callback binds statically (no virtual
  /// dispatch per retirement). Semantics are identical to run() — same
  /// InstrEvent stream, cycles, and trap behaviour.
  template <typename ObserverT>
  StopReason run_with(std::uint64_t max_instructions, ObserverT& observer) {
    halted_ = false;
    trapped_ = false;
    if (predecode_ && !icache_.empty()) {
      return run_translated(max_instructions, observer);
    }
    for (std::uint64_t i = 0; i < max_instructions; ++i) {
      if (!step_impl(&observer)) {
        return trapped_ ? StopReason::kTrap : StopReason::kHalt;
      }
    }
    return StopReason::kInstrLimit;
  }

  /// Decode-per-step reference loop (the pre-predecode execution path):
  /// ignores the instruction cache and dispatches the observer virtually.
  /// Kept as the anchor for the differential fuzz tests and as the
  /// benchmark baseline; produces byte-identical results to run()/run_with().
  StopReason run_reference(std::uint64_t max_instructions,
                           ExecutionObserver* observer = nullptr);

  /// Enables/disables the predecoded-instruction cache and the block tier
  /// above it (default on). Disabling decodes every fetched word from
  /// memory again, like the reference loop; re-enabling rebuilds the cache
  /// from current memory. Translated blocks are kept across toggles — store
  /// invalidation runs regardless of mode, so they can never go stale.
  void set_predecode(bool enabled);
  [[nodiscard]] bool predecode_enabled() const noexcept { return predecode_; }

  /// Live translated blocks (observability/tests).
  [[nodiscard]] std::size_t translated_block_count() const noexcept {
    return block_cache_.block_count();
  }

  [[nodiscard]] std::uint64_t cycle_count() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t retired_count() const noexcept { return retired_; }
  [[nodiscard]] const std::string& trap_message() const noexcept { return trap_message_; }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }

  /// Resets registers, pc and counters (memory and the predecode cache are
  /// preserved).
  void reset() noexcept;

 private:
  /// One predecoded program word: the decoded instruction plus everything
  /// the execute loop would otherwise recompute per retirement.
  struct DecodedInstr {
    Instruction ins{};
    InstrClass klass = InstrClass::kSystem;
    std::uint32_t cycles_taken = 0;
    std::uint32_t cycles_not_taken = 0;
    bool valid = false;
  };

  [[nodiscard]] bool in_bounds(std::uint32_t address, std::uint32_t size) const noexcept {
    return static_cast<std::uint64_t>(address) + size <= memory_.size();
  }
  bool trap(const std::string& message);

  [[nodiscard]] DecodedInstr make_entry(std::uint32_t word) const noexcept {
    DecodedInstr d;
    d.ins = decode(word);
    d.valid = true;
    if (d.ins.op != Op::kInvalid) {
      d.klass = classify(d.ins.op);
      d.cycles_taken = timing_.cycles_for(d.klass, true);
      d.cycles_not_taken = timing_.cycles_for(d.klass, false);
    }
    return d;
  }

  /// Drops the cache entry covering a stored-to program word, and every
  /// translated block whose range covers it (no-op when the address is
  /// outside the cached region).
  void invalidate_icache_word(std::uint32_t address) noexcept {
    if (!icache_.empty() && address >= icache_base_ && address < icache_end_) {
      icache_[(address - icache_base_) >> 2].valid = false;
      block_cache_.invalidate_word(address);
    }
  }

  void rebuild_icache();

  /// Executes one instruction; returns false to stop (halt or trap).
  /// `kUseCache = false` forces the decode-per-step reference behaviour.
  template <typename ObserverT, bool kUseCache = true>
  bool step_impl(ObserverT* observer);

  /// Block-tier run loop: a threaded interpreter over translated blocks.
  /// Block terminators chain straight into the next block's micro-ops
  /// (budget checked once per block entry, counters live in registers
  /// across blocks); unaligned/out-of-region pcs, untranslatable words and
  /// the precise budget tail fall back to single predecode-tier steps.
  template <typename ObserverT>
  StopReason run_translated(std::uint64_t max_instructions, ObserverT& observer);

  std::vector<std::uint8_t> memory_;
  std::uint32_t regs_[32] = {};
  std::uint32_t pc_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t retired_ = 0;
  bool halted_ = false;
  bool trapped_ = false;
  std::string trap_message_;
  TimingModel timing_;
  std::vector<DecodedInstr> icache_;
  std::uint32_t icache_base_ = 0;  ///< byte address of icache_[0] (word aligned)
  std::uint32_t icache_end_ = 0;   ///< one past the cached byte range
  bool predecode_ = true;
  BlockCache block_cache_;
};

namespace detail {
__extension__ typedef __int128 machine_i128;
}  // namespace detail

template <typename ObserverT, bool kUseCache>
bool Machine::step_impl(ObserverT* observer) {
  if ((pc_ & 3u) != 0 || !in_bounds(pc_, 4)) return trap("instruction fetch fault");
  Instruction ins;
  InstrClass klass;
  std::uint32_t cyc_taken;
  std::uint32_t cyc_not_taken;
  if (kUseCache && predecode_ && pc_ >= icache_base_ && pc_ < icache_end_) {
    DecodedInstr& entry = icache_[(pc_ - icache_base_) >> 2];
    if (!entry.valid) {
      std::uint32_t word;
      std::memcpy(&word, memory_.data() + pc_, 4);
      entry = make_entry(word);
    }
    ins = entry.ins;
    if (ins.op == Op::kInvalid) return trap("illegal instruction");
    klass = entry.klass;
    cyc_taken = entry.cycles_taken;
    cyc_not_taken = entry.cycles_not_taken;
  } else {
    std::uint32_t word;
    std::memcpy(&word, memory_.data() + pc_, 4);
    ins = decode(word);
    if (ins.op == Op::kInvalid) return trap("illegal instruction");
    klass = classify(ins.op);
    cyc_taken = timing_.cycles_for(klass, true);
    cyc_not_taken = timing_.cycles_for(klass, false);
  }

  InstrEvent ev;
  ev.pc = pc_;
  ev.op = ins.op;
  ev.klass = klass;
  ev.rd = ins.rd;
  ev.rs1_val = regs_[ins.rs1];
  ev.rs2_val = regs_[ins.rs2];

  const std::uint32_t rs1 = ev.rs1_val;
  const std::uint32_t rs2 = ev.rs2_val;
  const auto srs1 = static_cast<std::int32_t>(rs1);
  const auto srs2 = static_cast<std::int32_t>(rs2);
  std::uint32_t next_pc = pc_ + 4;
  std::uint32_t rd_value = 0;
  bool write_rd = false;

  auto mem_load = [&](std::uint32_t addr, std::uint32_t size, bool sign) -> bool {
    if (!in_bounds(addr, size) || (size > 1 && (addr & (size - 1)) != 0)) {
      trap("load access fault");
      return false;
    }
    std::uint32_t raw = 0;
    std::memcpy(&raw, memory_.data() + addr, size);
    if (sign) {
      if (size == 1) raw = static_cast<std::uint32_t>(static_cast<std::int8_t>(raw));
      else if (size == 2) raw = static_cast<std::uint32_t>(static_cast<std::int16_t>(raw));
    }
    rd_value = raw;
    write_rd = true;
    ev.mem_addr = addr;
    ev.mem_data = raw;
    ev.is_mem_read = true;
    return true;
  };

  auto mem_store = [&](std::uint32_t addr, std::uint32_t size) -> bool {
    if (!in_bounds(addr, size) || (size > 1 && (addr & (size - 1)) != 0)) {
      trap("store access fault");
      return false;
    }
    std::memcpy(memory_.data() + addr, &rs2, size);
    invalidate_icache_word(addr);
    ev.mem_addr = addr;
    ev.mem_data = size == 4 ? rs2 : (rs2 & ((1u << (size * 8)) - 1u));
    ev.is_mem_write = true;
    return true;
  };

  switch (ins.op) {
    case Op::kLui: rd_value = static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kAuipc:
      rd_value = pc_ + static_cast<std::uint32_t>(ins.imm);
      write_rd = true;
      break;
    case Op::kJal:
      rd_value = pc_ + 4;
      write_rd = true;
      next_pc = pc_ + static_cast<std::uint32_t>(ins.imm);
      break;
    case Op::kJalr:
      rd_value = pc_ + 4;
      write_rd = true;
      next_pc = (rs1 + static_cast<std::uint32_t>(ins.imm)) & ~1u;
      break;
    case Op::kBeq: ev.branch_taken = rs1 == rs2; break;
    case Op::kBne: ev.branch_taken = rs1 != rs2; break;
    case Op::kBlt: ev.branch_taken = srs1 < srs2; break;
    case Op::kBge: ev.branch_taken = srs1 >= srs2; break;
    case Op::kBltu: ev.branch_taken = rs1 < rs2; break;
    case Op::kBgeu: ev.branch_taken = rs1 >= rs2; break;
    case Op::kLb: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 1, true)) return false; break;
    case Op::kLh: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 2, true)) return false; break;
    case Op::kLw: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 4, false)) return false; break;
    case Op::kLbu: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 1, false)) return false; break;
    case Op::kLhu: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 2, false)) return false; break;
    case Op::kSb: if (!mem_store(rs1 + static_cast<std::uint32_t>(ins.imm), 1)) return false; break;
    case Op::kSh: if (!mem_store(rs1 + static_cast<std::uint32_t>(ins.imm), 2)) return false; break;
    case Op::kSw: if (!mem_store(rs1 + static_cast<std::uint32_t>(ins.imm), 4)) return false; break;
    case Op::kAddi: rd_value = rs1 + static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kSlti: rd_value = srs1 < ins.imm ? 1 : 0; write_rd = true; break;
    case Op::kSltiu:
      rd_value = rs1 < static_cast<std::uint32_t>(ins.imm) ? 1 : 0;
      write_rd = true;
      break;
    case Op::kXori: rd_value = rs1 ^ static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kOri: rd_value = rs1 | static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kAndi: rd_value = rs1 & static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kSlli: rd_value = rs1 << (ins.imm & 31); write_rd = true; break;
    case Op::kSrli: rd_value = rs1 >> (ins.imm & 31); write_rd = true; break;
    case Op::kSrai:
      rd_value = static_cast<std::uint32_t>(srs1 >> (ins.imm & 31));
      write_rd = true;
      break;
    case Op::kAdd: rd_value = rs1 + rs2; write_rd = true; break;
    case Op::kSub: rd_value = rs1 - rs2; write_rd = true; break;
    case Op::kSll: rd_value = rs1 << (rs2 & 31); write_rd = true; break;
    case Op::kSlt: rd_value = srs1 < srs2 ? 1 : 0; write_rd = true; break;
    case Op::kSltu: rd_value = rs1 < rs2 ? 1 : 0; write_rd = true; break;
    case Op::kXor: rd_value = rs1 ^ rs2; write_rd = true; break;
    case Op::kSrl: rd_value = rs1 >> (rs2 & 31); write_rd = true; break;
    case Op::kSra: rd_value = static_cast<std::uint32_t>(srs1 >> (rs2 & 31)); write_rd = true; break;
    case Op::kOr: rd_value = rs1 | rs2; write_rd = true; break;
    case Op::kAnd: rd_value = rs1 & rs2; write_rd = true; break;
    case Op::kMul:
      rd_value = static_cast<std::uint32_t>(static_cast<std::int64_t>(srs1) * srs2);
      write_rd = true;
      break;
    case Op::kMulh:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(srs1) * static_cast<std::int64_t>(srs2)) >> 32);
      write_rd = true;
      break;
    case Op::kMulhsu:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<detail::machine_i128>(srs1) * static_cast<detail::machine_i128>(rs2)) >> 32);
      write_rd = true;
      break;
    case Op::kMulhu:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(rs1) * static_cast<std::uint64_t>(rs2)) >> 32);
      write_rd = true;
      break;
    case Op::kDiv:
      if (rs2 == 0) rd_value = ~0u;
      else if (srs1 == INT32_MIN && srs2 == -1) rd_value = static_cast<std::uint32_t>(INT32_MIN);
      else rd_value = static_cast<std::uint32_t>(srs1 / srs2);
      write_rd = true;
      break;
    case Op::kDivu:
      rd_value = rs2 == 0 ? ~0u : rs1 / rs2;
      write_rd = true;
      break;
    case Op::kRem:
      if (rs2 == 0) rd_value = rs1;
      else if (srs1 == INT32_MIN && srs2 == -1) rd_value = 0;
      else rd_value = static_cast<std::uint32_t>(srs1 % srs2);
      write_rd = true;
      break;
    case Op::kRemu:
      rd_value = rs2 == 0 ? rs1 : rs1 % rs2;
      write_rd = true;
      break;
    case Op::kFence: break;
    case Op::kCsrrs: {
      // Zicntr: rdcycle (0xC00), rdinstret (0xC02) and their high halves.
      if (ins.rs1 != 0) return trap("unsupported CSR write");
      const auto csr = static_cast<std::uint32_t>(ins.imm) & 0xFFFu;
      std::uint64_t value = 0;
      switch (csr) {
        case 0xC00: value = cycles_; break;                // cycle
        case 0xC02: value = retired_; break;               // instret
        case 0xC80: value = cycles_ >> 32; break;          // cycleh
        case 0xC82: value = retired_ >> 32; break;         // instreth
        default: return trap("unsupported CSR");
      }
      rd_value = static_cast<std::uint32_t>(value);
      write_rd = true;
      break;
    }
    case Op::kEcall:
    case Op::kEbreak:
      halted_ = true;
      break;
    case Op::kInvalid:
      return trap("illegal instruction");
  }

  if (ev.branch_taken) next_pc = pc_ + static_cast<std::uint32_t>(ins.imm);

  if (write_rd && ins.rd != 0) {
    ev.rd_old = regs_[ins.rd];
    regs_[ins.rd] = rd_value;
    ev.rd_new = rd_value;
    ev.rd_written = true;
  }

  ev.cycles = ev.branch_taken ? cyc_taken : cyc_not_taken;
  cycles_ += ev.cycles;
  ++retired_;
  pc_ = next_pc;
  if (observer != nullptr) observer->on_instruction(ev);
  return !halted_;
}

// Threaded block interpreter. With GNU extensions each micro-op handler
// jumps straight to the next handler through a per-instantiation label
// table (token-threaded dispatch: one indirect branch per retirement, with
// a distinct prediction site per op); otherwise a switch loop provides the
// same semantics. Block terminators jump back to the chain point, which
// charges the whole next block against the instruction budget and enters
// its micro-ops directly — the cycle/retired counters stay in registers
// across chained blocks and are flushed only on halt, trap, or fallback to
// per-step execution. The observer binds statically — with a
// NullExecutionObserver the InstrEvent construction folds away entirely.
#if defined(__GNUC__) || defined(__clang__)
#define REVEAL_BLOCK_THREADED 1
#else
#define REVEAL_BLOCK_THREADED 0
#endif

template <typename ObserverT>
Machine::StopReason Machine::run_translated(std::uint64_t max_instructions,
                                            ObserverT& observer) {
  std::uint8_t* const mem = memory_.data();
  const std::uint64_t mem_size = memory_.size();
  std::uint64_t cyc = cycles_;
  std::uint64_t ret = retired_;
  std::uint64_t remaining = max_instructions;
  std::uint64_t block_budget = 0;  ///< instructions pre-charged for the block
  std::uint64_t ret_entry = 0;     ///< retired count at block entry
  // The live pc and the block-entry table stay in registers across chained
  // blocks: pc_ is synced only on exit or per-step fallback, so a block
  // transition never round-trips the pc through memory. The entry pointer
  // is stable for the whole run (invalidation overwrites in place).
  std::uint32_t vpc = pc_;
  const std::uint32_t ibase = icache_base_;
  const std::uint32_t iend = icache_end_;
  const std::uint64_t* const entry = block_cache_.entry_data();
  const BlockInstr* pool = block_cache_.pool_data();
  const BlockInstr* p = nullptr;
  InstrEvent ev;
  std::uint32_t rs1;
  std::uint32_t rs2;

#if REVEAL_BLOCK_THREADED
// Labels-as-values is a GNU extension (gated above), so the pedantic
// diagnostics don't apply; pop after the last computed goto below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
  // Indexed by BlockInstr::h: the Op range in enum order (isa.hpp), then
  // the fused-pair handlers in kFuse* id order (block_translator.hpp).
  static const void* const kJump[] = {
      &&u_kLui,  &&u_kAuipc,  &&u_kJal,   &&u_kJalr,  &&u_kBeq,   &&u_kBne,
      &&u_kBlt,  &&u_kBge,    &&u_kBltu,  &&u_kBgeu,  &&u_kLb,    &&u_kLh,
      &&u_kLw,   &&u_kLbu,    &&u_kLhu,   &&u_kSb,    &&u_kSh,    &&u_kSw,
      &&u_kAddi, &&u_kSlti,   &&u_kSltiu, &&u_kXori,  &&u_kOri,   &&u_kAndi,
      &&u_kSlli, &&u_kSrli,   &&u_kSrai,  &&u_kAdd,   &&u_kSub,   &&u_kSll,
      &&u_kSlt,  &&u_kSltu,   &&u_kXor,   &&u_kSrl,   &&u_kSra,   &&u_kOr,
      &&u_kAnd,  &&u_kMul,    &&u_kMulh,  &&u_kMulhsu, &&u_kMulhu, &&u_kDiv,
      &&u_kDivu, &&u_kRem,    &&u_kRemu,  &&u_kFence, &&u_kEcall, &&u_kEbreak,
      &&u_kCsrrs, &&u_kInvalid,
      &&u_kFuseLuiAddi, &&u_kFuseAddiAnd, &&u_kFuseAddiAddi, &&u_kFuseAddiBne,
      &&u_kFuseAddAddi, &&u_kFuseSlliXor, &&u_kFuseSrliXor,  &&u_kFuseXorSlli,
      &&u_kFuseXorSrli, &&u_kFuseAndBgeu, &&u_kFuseSubMul,   &&u_kFuseLuiAdd,
      &&u_kFuseSraiSrai, &&u_kFuseXorSub, &&u_kFuseSlliAdd,  &&u_kFuseXorshift,
      &&u_kFuseMaskBgeu, &&u_kFuseAccBne, &&u_kFuseXorshiftMask,
      &&u_kFuseSignFold, &&u_kFuseSlliAddBlt,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) == kHandlerCount,
                "jump table must cover every Op and fused handler");
#define REVEAL_UOP(name) u_##name
#define REVEAL_FUOP(name) u_##name
#define REVEAL_DISPATCH() goto* kJump[p->h]
#else
#define REVEAL_UOP(name) case static_cast<std::uint8_t>(Op::name)
#define REVEAL_FUOP(name) case name
#define REVEAL_DISPATCH() goto reveal_dispatch
#endif

reveal_chain:
  // vpc holds the next fetch address; counters are live in cyc/ret. Charge
  // the whole next block against the budget and enter its micro-ops; early
  // exits refund the unexecuted charge. The packed entry keeps the steady
  // state at one load: count and pool index come out of a single 64-bit
  // descriptor, with no dependent TranslatedBlock fetch.
  if ((vpc & 3u) == 0 && vpc >= ibase && vpc < iend) {
    std::uint64_t e = entry[(vpc - ibase) >> 2];
    if (e == BlockCache::kNoBlock) {
      e = block_cache_.lookup_packed(vpc, mem, timing_);
      pool = block_cache_.pool_data();  // translation may reallocate
    }
    const std::uint64_t count = BlockCache::packed_count(e);
    if (e != BlockCache::kNoBlock && count <= remaining) {
      remaining -= count;
      block_budget = count;
      ret_entry = ret;
      p = pool + BlockCache::packed_first(e);
      REVEAL_DISPATCH();
    }
  }
  // Per-step fallback: unaligned/out-of-region pc, an untranslatable word,
  // or the precise tail once fewer instructions remain than the next block
  // would retire. One exact predecode-tier step, then try to chain again.
  pc_ = vpc;
  cycles_ = cyc;
  retired_ = ret;
  if (remaining == 0) return StopReason::kInstrLimit;
  if (!step_impl<ObserverT, /*kUseCache=*/true>(&observer)) {
    return trapped_ ? StopReason::kTrap : StopReason::kHalt;
  }
  --remaining;
  cyc = cycles_;
  ret = retired_;
  vpc = pc_;
  goto reveal_chain;

#if !REVEAL_BLOCK_THREADED
reveal_dispatch:
  switch (p->h) {
#endif

// Mirrors step_impl field for field: zero-initialized event, source
// registers latched before any destination write.
#define REVEAL_BEGIN() \
  ev = InstrEvent{};   \
  ev.pc = p->pc;       \
  ev.op = p->op;       \
  ev.klass = p->klass; \
  ev.rd = p->rd;       \
  rs1 = regs_[p->rs1]; \
  rs2 = regs_[p->rs2]; \
  ev.rs1_val = rs1;    \
  ev.rs2_val = rs2

#define REVEAL_WRITE_RD(value_expr)          \
  do {                                       \
    const std::uint32_t v_ = (value_expr);   \
    if (p->rd != 0) {                        \
      ev.rd_old = regs_[p->rd];              \
      regs_[p->rd] = v_;                     \
      ev.rd_new = v_;                        \
      ev.rd_written = true;                  \
    }                                        \
  } while (0)

#define REVEAL_RETIRE_NEXT()              \
  do {                                    \
    ev.cycles = p->cycles_not_taken;      \
    cyc += p->cycles_not_taken;           \
    ++ret;                                \
    observer.on_instruction(ev);          \
    ++p;                                  \
    REVEAL_DISPATCH();                    \
  } while (0)

#define REVEAL_SRS1 static_cast<std::int32_t>(rs1)
#define REVEAL_SRS2 static_cast<std::int32_t>(rs2)
#define REVEAL_IMM_U static_cast<std::uint32_t>(p->imm)

#define REVEAL_ALU(name, value_expr) \
  REVEAL_UOP(name) : {               \
    REVEAL_BEGIN();                  \
    REVEAL_WRITE_RD(value_expr);     \
    REVEAL_RETIRE_NEXT();            \
  }

#define REVEAL_BRANCH(name, cond)                                           \
  REVEAL_UOP(name) : {                                                      \
    REVEAL_BEGIN();                                                         \
    ev.branch_taken = (cond);                                               \
    ev.cycles = ev.branch_taken ? p->cycles_taken : p->cycles_not_taken;    \
    cyc += ev.cycles;                                                       \
    ++ret;                                                                  \
    vpc = ev.branch_taken ? p->pc + REVEAL_IMM_U : p->pc + 4;               \
    observer.on_instruction(ev);                                            \
    goto reveal_chain;                                                      \
  }

#define REVEAL_LOAD(name, size, is_signed)                                    \
  REVEAL_UOP(name) : {                                                        \
    REVEAL_BEGIN();                                                           \
    const std::uint32_t addr = rs1 + REVEAL_IMM_U;                            \
    if (static_cast<std::uint64_t>(addr) + (size) > mem_size ||               \
        ((size) > 1 && (addr & ((size)-1)) != 0)) {                           \
      goto reveal_trap_load;                                                  \
    }                                                                         \
    std::uint32_t raw = 0;                                                    \
    std::memcpy(&raw, mem + addr, (size));                                    \
    if ((is_signed) && (size) == 1) {                                         \
      raw = static_cast<std::uint32_t>(static_cast<std::int8_t>(raw));        \
    } else if ((is_signed) && (size) == 2) {                                  \
      raw = static_cast<std::uint32_t>(static_cast<std::int16_t>(raw));       \
    }                                                                         \
    ev.mem_addr = addr;                                                       \
    ev.mem_data = raw;                                                        \
    ev.is_mem_read = true;                                                    \
    REVEAL_WRITE_RD(raw);                                                     \
    REVEAL_RETIRE_NEXT();                                                     \
  }

// A store that lands in the program region retires normally, invalidates
// the predecode word and any covering translated block, then exits so the
// dispatcher refetches from current memory — the executing block itself may
// just have been dropped.
#define REVEAL_STORE(name, size)                                              \
  REVEAL_UOP(name) : {                                                        \
    REVEAL_BEGIN();                                                           \
    const std::uint32_t addr = rs1 + REVEAL_IMM_U;                            \
    if (static_cast<std::uint64_t>(addr) + (size) > mem_size ||               \
        ((size) > 1 && (addr & ((size)-1)) != 0)) {                           \
      goto reveal_trap_store;                                                 \
    }                                                                         \
    std::memcpy(mem + addr, &rs2, (size));                                    \
    ev.mem_addr = addr;                                                       \
    ev.mem_data = (size) == 4 ? rs2 : (rs2 & ((1u << (((size)&3) * 8)) - 1u)); \
    ev.is_mem_write = true;                                                   \
    ev.cycles = p->cycles_not_taken;                                          \
    cyc += p->cycles_not_taken;                                               \
    ++ret;                                                                    \
    observer.on_instruction(ev);                                              \
    if (addr >= icache_base_ && addr < icache_end_) {                         \
      invalidate_icache_word(addr);                                           \
      vpc = p->pc + 4;                                                        \
      remaining += block_budget - (ret - ret_entry); /* refund unexecuted */  \
      goto reveal_chain;                                                      \
    }                                                                         \
    ++p;                                                                      \
    REVEAL_DISPATCH();                                                        \
  }

  REVEAL_ALU(kLui, REVEAL_IMM_U)
  REVEAL_ALU(kAuipc, p->pc + REVEAL_IMM_U)

  REVEAL_UOP(kJal) : {
    REVEAL_BEGIN();
    REVEAL_WRITE_RD(p->pc + 4);
    ev.cycles = p->cycles_not_taken;
    cyc += p->cycles_not_taken;
    ++ret;
    vpc = p->pc + REVEAL_IMM_U;
    observer.on_instruction(ev);
    goto reveal_chain;
  }
  REVEAL_UOP(kJalr) : {
    REVEAL_BEGIN();
    const std::uint32_t target = (rs1 + REVEAL_IMM_U) & ~1u;  // before rd write
    REVEAL_WRITE_RD(p->pc + 4);
    ev.cycles = p->cycles_not_taken;
    cyc += p->cycles_not_taken;
    ++ret;
    vpc = target;
    observer.on_instruction(ev);
    goto reveal_chain;
  }

  REVEAL_BRANCH(kBeq, rs1 == rs2)
  REVEAL_BRANCH(kBne, rs1 != rs2)
  REVEAL_BRANCH(kBlt, REVEAL_SRS1 < REVEAL_SRS2)
  REVEAL_BRANCH(kBge, REVEAL_SRS1 >= REVEAL_SRS2)
  REVEAL_BRANCH(kBltu, rs1 < rs2)
  REVEAL_BRANCH(kBgeu, rs1 >= rs2)

  REVEAL_LOAD(kLb, 1, true)
  REVEAL_LOAD(kLh, 2, true)
  REVEAL_LOAD(kLw, 4, false)
  REVEAL_LOAD(kLbu, 1, false)
  REVEAL_LOAD(kLhu, 2, false)

  REVEAL_STORE(kSb, 1)
  REVEAL_STORE(kSh, 2)
  REVEAL_STORE(kSw, 4)

  REVEAL_ALU(kAddi, rs1 + REVEAL_IMM_U)
  REVEAL_ALU(kSlti, REVEAL_SRS1 < p->imm ? 1u : 0u)
  REVEAL_ALU(kSltiu, rs1 < REVEAL_IMM_U ? 1u : 0u)
  REVEAL_ALU(kXori, rs1 ^ REVEAL_IMM_U)
  REVEAL_ALU(kOri, rs1 | REVEAL_IMM_U)
  REVEAL_ALU(kAndi, rs1 & REVEAL_IMM_U)
  REVEAL_ALU(kSlli, rs1 << (p->imm & 31))
  REVEAL_ALU(kSrli, rs1 >> (p->imm & 31))
  REVEAL_ALU(kSrai, static_cast<std::uint32_t>(REVEAL_SRS1 >> (p->imm & 31)))
  REVEAL_ALU(kAdd, rs1 + rs2)
  REVEAL_ALU(kSub, rs1 - rs2)
  REVEAL_ALU(kSll, rs1 << (rs2 & 31))
  REVEAL_ALU(kSlt, REVEAL_SRS1 < REVEAL_SRS2 ? 1u : 0u)
  REVEAL_ALU(kSltu, rs1 < rs2 ? 1u : 0u)
  REVEAL_ALU(kXor, rs1 ^ rs2)
  REVEAL_ALU(kSrl, rs1 >> (rs2 & 31))
  REVEAL_ALU(kSra, static_cast<std::uint32_t>(REVEAL_SRS1 >> (rs2 & 31)))
  REVEAL_ALU(kOr, rs1 | rs2)
  REVEAL_ALU(kAnd, rs1 & rs2)
  REVEAL_ALU(kMul,
             static_cast<std::uint32_t>(static_cast<std::int64_t>(REVEAL_SRS1) * REVEAL_SRS2))
  REVEAL_ALU(kMulh, static_cast<std::uint32_t>((static_cast<std::int64_t>(REVEAL_SRS1) *
                                                static_cast<std::int64_t>(REVEAL_SRS2)) >>
                                               32))
  REVEAL_ALU(kMulhsu,
             static_cast<std::uint32_t>((static_cast<detail::machine_i128>(REVEAL_SRS1) *
                                         static_cast<detail::machine_i128>(rs2)) >>
                                        32))
  REVEAL_ALU(kMulhu, static_cast<std::uint32_t>(
                         (static_cast<std::uint64_t>(rs1) * static_cast<std::uint64_t>(rs2)) >> 32))

  REVEAL_UOP(kDiv) : {
    REVEAL_BEGIN();
    std::uint32_t q;
    if (rs2 == 0) {
      q = ~0u;
    } else if (REVEAL_SRS1 == INT32_MIN && REVEAL_SRS2 == -1) {
      q = static_cast<std::uint32_t>(INT32_MIN);
    } else {
      q = static_cast<std::uint32_t>(REVEAL_SRS1 / REVEAL_SRS2);
    }
    REVEAL_WRITE_RD(q);
    REVEAL_RETIRE_NEXT();
  }
  REVEAL_UOP(kDivu) : {
    REVEAL_BEGIN();
    REVEAL_WRITE_RD(rs2 == 0 ? ~0u : rs1 / rs2);
    REVEAL_RETIRE_NEXT();
  }
  REVEAL_UOP(kRem) : {
    REVEAL_BEGIN();
    std::uint32_t r;
    if (rs2 == 0) {
      r = rs1;
    } else if (REVEAL_SRS1 == INT32_MIN && REVEAL_SRS2 == -1) {
      r = 0;
    } else {
      r = static_cast<std::uint32_t>(REVEAL_SRS1 % REVEAL_SRS2);
    }
    REVEAL_WRITE_RD(r);
    REVEAL_RETIRE_NEXT();
  }
  REVEAL_UOP(kRemu) : {
    REVEAL_BEGIN();
    REVEAL_WRITE_RD(rs2 == 0 ? rs1 : rs1 % rs2);
    REVEAL_RETIRE_NEXT();
  }

  REVEAL_UOP(kFence) : {
    REVEAL_BEGIN();
    REVEAL_RETIRE_NEXT();
  }

  REVEAL_UOP(kCsrrs) : {
    REVEAL_BEGIN();
    if (p->rs1 != 0) goto reveal_trap_csr_write;
    const std::uint32_t csr = REVEAL_IMM_U & 0xFFFu;
    // The local counters equal cycles_/retired_ as-if flushed, so mid-block
    // rdcycle/rdinstret reads stay exact without a block barrier.
    std::uint64_t value;
    switch (csr) {
      case 0xC00: value = cyc; break;
      case 0xC02: value = ret; break;
      case 0xC80: value = cyc >> 32; break;
      case 0xC82: value = ret >> 32; break;
      default: goto reveal_trap_csr;
    }
    REVEAL_WRITE_RD(static_cast<std::uint32_t>(value));
    REVEAL_RETIRE_NEXT();
  }

  REVEAL_UOP(kEcall) : REVEAL_UOP(kEbreak) : {
    REVEAL_BEGIN();
    ev.cycles = p->cycles_not_taken;
    cyc += p->cycles_not_taken;
    ++ret;
    pc_ = p->pc + 4;
    observer.on_instruction(ev);
    halted_ = true;
    cycles_ = cyc;
    retired_ = ret;
    return StopReason::kHalt;
  }

  // Synthetic fallthrough-exit sentinel (block ended at the region
  // boundary, before an undecodable word, or at the length cap): not a
  // retired instruction — hand the next fetch pc back to the chain point
  // (the full block retired, so there is nothing to refund).
  REVEAL_UOP(kInvalid) : {
    vpc = p->pc;
    goto reveal_chain;
  }

// Fused pairs: one dispatch retires two data-dependent micro-ops. The
// first is always a real-destination ALU op (translate-time guarantee:
// p->rd != 0), whose result is forwarded to the second's operands in a
// register instead of through a regs_ store->load round trip; the second
// is ALU- or branch-class (no memory access, no trap mid-pair). Events,
// counters and register state are identical to the unfused pair.
//
// First half: retire `expr1` into p->rd, then latch the second micro-op's
// operands (forwarded where they read p->rd) and start its event.
#define REVEAL_FUSE_FIRST(expr1)                 \
  const BlockInstr* q = p + 1;                   \
  REVEAL_BEGIN();                                \
  const std::uint32_t v1 = (expr1);              \
  ev.rd_old = regs_[p->rd];                      \
  regs_[p->rd] = v1;                             \
  ev.rd_new = v1;                                \
  ev.rd_written = true;                          \
  ev.cycles = p->cycles_not_taken;               \
  cyc += p->cycles_not_taken;                    \
  ++ret;                                         \
  observer.on_instruction(ev);                   \
  rs1 = q->rs1 == p->rd ? v1 : regs_[q->rs1];    \
  rs2 = q->rs2 == p->rd ? v1 : regs_[q->rs2];    \
  ev = InstrEvent{};                             \
  ev.pc = q->pc;                                 \
  ev.op = q->op;                                 \
  ev.klass = q->klass;                           \
  ev.rd = q->rd;                                 \
  ev.rs1_val = rs1;                              \
  ev.rs2_val = rs2

// `expr1` sees the first micro-op's operands in rs1/rs2 and its immediate
// as REVEAL_IMM_U; `expr2`/`cond` see the second's in rs1/rs2 and q->imm.
#define REVEAL_FUSE_ALU_ALU(name, expr1, expr2) \
  REVEAL_FUOP(name) : {                         \
    REVEAL_FUSE_FIRST(expr1);                   \
    const std::uint32_t v2 = (expr2);           \
    if (q->rd != 0) {                           \
      ev.rd_old = regs_[q->rd];                 \
      regs_[q->rd] = v2;                        \
      ev.rd_new = v2;                           \
      ev.rd_written = true;                     \
    }                                           \
    ev.cycles = q->cycles_not_taken;            \
    cyc += q->cycles_not_taken;                 \
    ++ret;                                      \
    observer.on_instruction(ev);                \
    p += 2;                                     \
    REVEAL_DISPATCH();                          \
  }

#define REVEAL_FUSE_ALU_BRANCH(name, expr1, cond)                          \
  REVEAL_FUOP(name) : {                                                    \
    REVEAL_FUSE_FIRST(expr1);                                              \
    ev.branch_taken = (cond);                                              \
    ev.cycles = ev.branch_taken ? q->cycles_taken : q->cycles_not_taken;   \
    cyc += ev.cycles;                                                      \
    ++ret;                                                                 \
    vpc = ev.branch_taken ? q->pc + static_cast<std::uint32_t>(q->imm)     \
                          : q->pc + 4;                                     \
    observer.on_instruction(ev);                                           \
    goto reveal_chain;                                                     \
  }

  REVEAL_FUSE_ALU_ALU(kFuseLuiAddi, REVEAL_IMM_U,
                      rs1 + static_cast<std::uint32_t>(q->imm))
  REVEAL_FUSE_ALU_ALU(kFuseAddiAnd, rs1 + REVEAL_IMM_U, rs1 & rs2)
  REVEAL_FUSE_ALU_ALU(kFuseAddiAddi, rs1 + REVEAL_IMM_U,
                      rs1 + static_cast<std::uint32_t>(q->imm))
  REVEAL_FUSE_ALU_ALU(kFuseAddAddi, rs1 + rs2,
                      rs1 + static_cast<std::uint32_t>(q->imm))
  REVEAL_FUSE_ALU_ALU(kFuseSlliXor, rs1 << (p->imm & 31), rs1 ^ rs2)
  REVEAL_FUSE_ALU_ALU(kFuseSrliXor, rs1 >> (p->imm & 31), rs1 ^ rs2)
  REVEAL_FUSE_ALU_ALU(kFuseXorSlli, rs1 ^ rs2, rs1 << (q->imm & 31))
  REVEAL_FUSE_ALU_ALU(kFuseXorSrli, rs1 ^ rs2, rs1 >> (q->imm & 31))
  REVEAL_FUSE_ALU_ALU(kFuseSubMul, rs1 - rs2,
                      static_cast<std::uint32_t>(
                          static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) *
                          static_cast<std::int32_t>(rs2)))
  REVEAL_FUSE_ALU_ALU(kFuseLuiAdd, REVEAL_IMM_U, rs1 + rs2)
  REVEAL_FUSE_ALU_ALU(kFuseSraiSrai,
                      static_cast<std::uint32_t>(REVEAL_SRS1 >> (p->imm & 31)),
                      static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >>
                                                 (q->imm & 31)))
  REVEAL_FUSE_ALU_ALU(kFuseXorSub, rs1 ^ rs2, rs1 - rs2)
  REVEAL_FUSE_ALU_ALU(kFuseSlliAdd, rs1 << (p->imm & 31), rs1 + rs2)
  REVEAL_FUSE_ALU_BRANCH(kFuseAndBgeu, rs1 & rs2, rs1 >= rs2)
  REVEAL_FUSE_ALU_BRANCH(kFuseAddiBne, rs1 + REVEAL_IMM_U, rs1 != rs2)

// Multi-op idiom handlers: one dispatch retires a whole matched run
// (block_translator.cpp fused_idiom). Every micro-op writes through to
// regs_ immediately, so operand reads from regs_ are always correct; the
// two most recent in-flight results are additionally forwarded in
// registers (index-checked, nearest first) to keep the dependent chain off
// the store->load round trip.
#define REVEAL_FUSE_OPS2(qp, r1, v1_, r2, v2_)                              \
  rs1 = (qp)->rs1 == (r1) ? (v1_)                                           \
        : (qp)->rs1 == (r2) ? (v2_)                                         \
                            : regs_[(qp)->rs1];                             \
  rs2 = (qp)->rs2 == (r1) ? (v1_)                                           \
        : (qp)->rs2 == (r2) ? (v2_)                                         \
                            : regs_[(qp)->rs2];                             \
  ev = InstrEvent{};                                                        \
  ev.pc = (qp)->pc;                                                         \
  ev.op = (qp)->op;                                                         \
  ev.klass = (qp)->klass;                                                   \
  ev.rd = (qp)->rd;                                                         \
  ev.rs1_val = rs1;                                                         \
  ev.rs2_val = rs2

// Operand load + event skeleton for a mid-run micro-op, reading regs_
// plainly into the rs1/rs2 locals: exact under write-through retirement
// (every earlier micro-op already stored its result). REVEAL_BEGIN for an
// arbitrary slot, in effect.
#define REVEAL_FUSE_LOAD(qp)            \
  rs1 = regs_[(qp)->rs1];               \
  rs2 = regs_[(qp)->rs2];               \
  ev = InstrEvent{};                    \
  ev.pc = (qp)->pc;                     \
  ev.op = (qp)->op;                     \
  ev.klass = (qp)->klass;               \
  ev.rd = (qp)->rd;                     \
  ev.rs1_val = rs1;                     \
  ev.rs2_val = rs2

// Event skeleton for a mid-run micro-op whose operand values are read
// straight from regs_: exact under write-through retirement (every earlier
// micro-op already stored its result), and fully dead-code-eliminated when
// the observer ignores events.
#define REVEAL_FUSE_EV(qp)              \
  ev = InstrEvent{};                    \
  ev.pc = (qp)->pc;                     \
  ev.op = (qp)->op;                     \
  ev.klass = (qp)->klass;               \
  ev.rd = (qp)->rd;                     \
  ev.rs1_val = regs_[(qp)->rs1];        \
  ev.rs2_val = regs_[(qp)->rs2]

// Retire an ALU micro-op *qp with value v (qp->rd != 0 guaranteed). Does
// NOT advance cyc: idiom handlers add their run's pre-summed straight-line
// cost (first slot's cycles_taken) once, plus the final micro-op's own
// cost, instead of one load-and-add per retirement.
#define REVEAL_FUSE_RET(qp, v)           \
  do {                                   \
    ev.rd_old = regs_[(qp)->rd];         \
    regs_[(qp)->rd] = (v);               \
    ev.rd_new = (v);                     \
    ev.rd_written = true;                \
    ev.cycles = (qp)->cycles_not_taken;  \
    ++ret;                               \
    observer.on_instruction(ev);         \
  } while (0)

// Event skeleton / retirement for a canonical-run micro-op whose operand
// and overwritten-destination values are supplied from locals (the regs_
// file is stale mid-run when a handler defers its stores to the end).
// Everything here is dead code under a null observer.
#define REVEAL_FUSE_EVX(qp, r1v, r2v)   \
  ev = InstrEvent{};                    \
  ev.pc = (qp)->pc;                     \
  ev.op = (qp)->op;                     \
  ev.klass = (qp)->klass;               \
  ev.rd = (qp)->rd;                     \
  ev.rs1_val = (r1v);                   \
  ev.rs2_val = (r2v)

#define REVEAL_FUSE_RETX(qp, oldv, v)    \
  do {                                   \
    ev.rd_old = (oldv);                  \
    ev.rd_new = (v);                     \
    ev.rd_written = true;                \
    ev.cycles = (qp)->cycles_not_taken;  \
    ++ret;                               \
    observer.on_instruction(ev);         \
  } while (0)

// Retire the final branch micro-op *qp and chain to the next block.
#define REVEAL_FUSE_BR(qp, cond)                                            \
  do {                                                                      \
    ev.branch_taken = (cond);                                               \
    ev.cycles = ev.branch_taken ? (qp)->cycles_taken : (qp)->cycles_not_taken; \
    cyc += ev.cycles;                                                       \
    ++ret;                                                                  \
    vpc = ev.branch_taken ? (qp)->pc + static_cast<std::uint32_t>((qp)->imm) \
                          : (qp)->pc + 4;                                   \
    observer.on_instruction(ev);                                            \
    goto reveal_chain;                                                      \
  } while (0)

  // xorshift32 step: t = s << a; s ^= t; t = s >> b; s ^= t; t = s << c;
  // s ^= t (any register assignment with real destinations).
  REVEAL_FUOP(kFuseXorshift) : {
    const BlockInstr* q1 = p + 1;
    const BlockInstr* q2 = p + 2;
    const BlockInstr* q3 = p + 3;
    const BlockInstr* q4 = p + 4;
    const BlockInstr* q5 = p + 5;
    REVEAL_BEGIN();
    cyc += p->cycles_taken + q5->cycles_not_taken;  // pre-summed run cost
    const std::uint32_t v0 = rs1 << (p->imm & 31);
    REVEAL_FUSE_RET(p, v0);
    REVEAL_FUSE_OPS2(q1, p->rd, v0, 0xFFu, 0u);
    const std::uint32_t v1 = rs1 ^ rs2;
    REVEAL_FUSE_RET(q1, v1);
    REVEAL_FUSE_OPS2(q2, q1->rd, v1, p->rd, v0);
    const std::uint32_t v2 = rs1 >> (q2->imm & 31);
    REVEAL_FUSE_RET(q2, v2);
    REVEAL_FUSE_OPS2(q3, q2->rd, v2, q1->rd, v1);
    const std::uint32_t v3 = rs1 ^ rs2;
    REVEAL_FUSE_RET(q3, v3);
    REVEAL_FUSE_OPS2(q4, q3->rd, v3, q2->rd, v2);
    const std::uint32_t v4 = rs1 << (q4->imm & 31);
    REVEAL_FUSE_RET(q4, v4);
    REVEAL_FUSE_OPS2(q5, q4->rd, v4, q3->rd, v3);
    const std::uint32_t v5 = rs1 ^ rs2;
    REVEAL_FUSE_RET(q5, v5);
    p += 6;
    REVEAL_DISPATCH();
  }

  // Load-mask-and-reject: m = imm32 (lui+addi); x = s & m; bgeu.
  REVEAL_FUOP(kFuseMaskBgeu) : {
    const BlockInstr* q1 = p + 1;
    const BlockInstr* q2 = p + 2;
    const BlockInstr* q3 = p + 3;
    REVEAL_BEGIN();
    cyc += p->cycles_taken;  // pre-summed straight-line prefix cost
    const std::uint32_t v0 = REVEAL_IMM_U;
    REVEAL_FUSE_RET(p, v0);
    REVEAL_FUSE_OPS2(q1, p->rd, v0, 0xFFu, 0u);
    const std::uint32_t v1 = rs1 + static_cast<std::uint32_t>(q1->imm);
    REVEAL_FUSE_RET(q1, v1);
    REVEAL_FUSE_OPS2(q2, q1->rd, v1, p->rd, v0);
    const std::uint32_t v2 = rs1 & rs2;
    REVEAL_FUSE_RET(q2, v2);
    REVEAL_FUSE_OPS2(q3, q2->rd, v2, q1->rd, v1);
    REVEAL_FUSE_BR(q3, rs1 >= rs2);
  }

  // Full rejection-sampler step: xorshift32 (6 ops) straight into
  // load-mask-and-reject (4 ops), canonical register pattern only
  // (block_translator.cpp xorshift_mask_canonical). One dispatch retires
  // the sampler's entire hot block with the value chain held in locals —
  // regs_ is only *stored* (write-through retirement) and read for event
  // operand values, so under a null observer the handler reduces to the
  // ALU chain plus the final register stores.
  REVEAL_FUOP(kFuseXorshiftMask) : {
    const BlockInstr* q1 = p + 1;
    const BlockInstr* q2 = p + 2;
    const BlockInstr* q3 = p + 3;
    const BlockInstr* q4 = p + 4;
    const BlockInstr* q5 = p + 5;
    const BlockInstr* q6 = p + 6;
    const BlockInstr* q7 = p + 7;
    const BlockInstr* q8 = p + 8;
    const BlockInstr* q9 = p + 9;
  u_kFuseXorshiftMask_body:
    REVEAL_BEGIN();
    cyc += p->cycles_taken;  // pre-summed straight-line prefix cost
    const std::uint32_t s0 = rs1;
    const std::uint32_t bound = regs_[q9->rs2];  // canonical: never written in-run
    // The value chain lives in locals; only each register's FINAL value is
    // stored (in program order of last writes, so aliasing among the temp,
    // mask and result registers resolves exactly). Mid-run event operand
    // values for the raw index fields (shift amounts, lui immediate bits)
    // are reconstructed with explicit selects against the written-so-far
    // set — observer-only code, dead under a null observer.
    const std::uint8_t rT = p->rd, rS = q1->rd, rM = q6->rd;
    const std::uint32_t v0 = s0 << (p->imm & 31);
    REVEAL_FUSE_RETX(p, regs_[rT], v0);
    REVEAL_FUSE_EVX(q1, s0, v0);
    const std::uint32_t v1 = s0 ^ v0;
    REVEAL_FUSE_RETX(q1, s0, v1);
    REVEAL_FUSE_EVX(q2, v1,
                    q2->rs2 == rS   ? v1
                    : q2->rs2 == rT ? v0
                                    : regs_[q2->rs2]);
    const std::uint32_t v2 = v1 >> (q2->imm & 31);
    REVEAL_FUSE_RETX(q2, v0, v2);
    REVEAL_FUSE_EVX(q3, v1, v2);
    const std::uint32_t v3 = v1 ^ v2;
    REVEAL_FUSE_RETX(q3, v1, v3);
    REVEAL_FUSE_EVX(q4, v3,
                    q4->rs2 == rS   ? v3
                    : q4->rs2 == rT ? v2
                                    : regs_[q4->rs2]);
    const std::uint32_t v4 = v3 << (q4->imm & 31);
    REVEAL_FUSE_RETX(q4, v2, v4);
    REVEAL_FUSE_EVX(q5, v3, v4);
    const std::uint32_t v5 = v3 ^ v4;
    REVEAL_FUSE_RETX(q5, v3, v5);
    REVEAL_FUSE_EVX(q6,
                    q6->rs1 == rS   ? v5
                    : q6->rs1 == rT ? v4
                                    : regs_[q6->rs1],
                    q6->rs2 == rS   ? v5
                    : q6->rs2 == rT ? v4
                                    : regs_[q6->rs2]);
    const std::uint32_t v6 = static_cast<std::uint32_t>(q6->imm);
    REVEAL_FUSE_RETX(q6, rM == rT ? v4 : regs_[rM], v6);
    REVEAL_FUSE_EVX(q7, v6,
                    q7->rs2 == rM   ? v6
                    : q7->rs2 == rS ? v5
                    : q7->rs2 == rT ? v4
                                    : regs_[q7->rs2]);
    const std::uint32_t v7 = v6 + static_cast<std::uint32_t>(q7->imm);
    REVEAL_FUSE_RETX(q7, v6, v7);
    REVEAL_FUSE_EVX(q8, v5, v7);
    const std::uint32_t v8 = v5 & v7;
    REVEAL_FUSE_RETX(q8,
                     q8->rd == rM   ? v7
                     : q8->rd == rS ? v5
                     : q8->rd == rT ? v4
                                    : regs_[q8->rd],
                     v8);
    regs_[rT] = v4;
    regs_[rS] = v5;
    regs_[rM] = v7;
    regs_[q8->rd] = v8;
    REVEAL_FUSE_EV(q9);
    ev.branch_taken = v8 >= bound;
    ev.cycles = ev.branch_taken ? q9->cycles_taken : q9->cycles_not_taken;
    cyc += ev.cycles;
    ++ret;
    observer.on_instruction(ev);
    if (ev.branch_taken) {
      vpc = q9->pc + static_cast<std::uint32_t>(q9->imm);
      // Rejection back-edge: when the branch re-enters this very run and the
      // budget covers another full pass, loop in place. The charge matches
      // what the chain would make for the 10 micro-ops (no store in the run
      // can trigger a refund), but the rejection — whose direction is
      // data-random by construction — no longer feeds the chain's indirect
      // dispatch, which keeps that dispatch's target sequence periodic and
      // predictable.
      if (vpc == p->pc && remaining >= 10) {
        remaining -= 10;
        block_budget = 10;
        ret_entry = ret;
        goto u_kFuseXorshiftMask_body;
      }
      goto reveal_chain;
    }
    vpc = q9->pc + 4;
    goto reveal_chain;
  }

  // Accumulate-and-loop back edge: acc += x; i += step; bne i, bound —
  // canonical register pattern only (acc_bne_canonical): counter and bound
  // are distinct from the accumulator, so both load up front and the whole
  // step is three ALU ops, two stores and the loop branch.
  REVEAL_FUOP(kFuseAccBne) : {
    const BlockInstr* q1 = p + 1;
    const BlockInstr* q2 = p + 2;
    REVEAL_BEGIN();
    cyc += p->cycles_taken;  // pre-summed straight-line prefix cost
    const std::uint32_t i0 = regs_[q1->rs1];     // canonical: counter != acc
    const std::uint32_t bound = regs_[q2->rs2];  // canonical: untouched in-run
    const std::uint32_t v0 = rs1 + rs2;
    REVEAL_FUSE_RET(p, v0);
    REVEAL_FUSE_EV(q1);
    const std::uint32_t v1 = i0 + static_cast<std::uint32_t>(q1->imm);
    REVEAL_FUSE_RET(q1, v1);
    REVEAL_FUSE_EV(q2);
    REVEAL_FUSE_BR(q2, v1 != bound);
  }

  // Sign-fold epilogue: center the accumulated CLT sum, multiply by the
  // random sign, and branch on the folded value (lui,addi,sub,mul,lui,add,
  // srai,srai,xor,sub,blt). Pure write-through with plain operand loads —
  // exact for any register pattern — retiring eleven micro-ops per dispatch.
  REVEAL_FUOP(kFuseSignFold) : {
    const BlockInstr* q1 = p + 1;
    const BlockInstr* q2 = p + 2;
    const BlockInstr* q3 = p + 3;
    const BlockInstr* q4 = p + 4;
    const BlockInstr* q5 = p + 5;
    const BlockInstr* q6 = p + 6;
    const BlockInstr* q7 = p + 7;
    const BlockInstr* q8 = p + 8;
    const BlockInstr* q9 = p + 9;
    const BlockInstr* q10 = p + 10;
    REVEAL_BEGIN();
    cyc += p->cycles_taken;  // pre-summed straight-line prefix cost
    REVEAL_FUSE_RET(p, REVEAL_IMM_U);  // lui
    REVEAL_FUSE_LOAD(q1);
    REVEAL_FUSE_RET(q1, rs1 + static_cast<std::uint32_t>(q1->imm));  // addi
    REVEAL_FUSE_LOAD(q2);
    REVEAL_FUSE_RET(q2, rs1 - rs2);  // sub
    REVEAL_FUSE_LOAD(q3);
    REVEAL_FUSE_RET(q3, static_cast<std::uint32_t>(
                            static_cast<std::int64_t>(REVEAL_SRS1) * REVEAL_SRS2));  // mul
    REVEAL_FUSE_LOAD(q4);
    REVEAL_FUSE_RET(q4, static_cast<std::uint32_t>(q4->imm));  // lui
    REVEAL_FUSE_LOAD(q5);
    REVEAL_FUSE_RET(q5, rs1 + rs2);  // add
    REVEAL_FUSE_LOAD(q6);
    REVEAL_FUSE_RET(q6, static_cast<std::uint32_t>(REVEAL_SRS1 >> (q6->imm & 31)));  // srai
    REVEAL_FUSE_LOAD(q7);
    REVEAL_FUSE_RET(q7, static_cast<std::uint32_t>(REVEAL_SRS1 >> (q7->imm & 31)));  // srai
    REVEAL_FUSE_LOAD(q8);
    REVEAL_FUSE_RET(q8, rs1 ^ rs2);  // xor
    REVEAL_FUSE_LOAD(q9);
    REVEAL_FUSE_RET(q9, rs1 - rs2);  // sub
    REVEAL_FUSE_LOAD(q10);
    REVEAL_FUSE_BR(q10, REVEAL_SRS1 < REVEAL_SRS2);  // blt
  }

  // Store-pointer advance and loop branch (slli,add,blt): write-through,
  // exact for any register pattern.
  REVEAL_FUOP(kFuseSlliAddBlt) : {
    const BlockInstr* q1 = p + 1;
    const BlockInstr* q2 = p + 2;
    REVEAL_BEGIN();
    cyc += p->cycles_taken;  // pre-summed straight-line prefix cost
    REVEAL_FUSE_RET(p, rs1 << (p->imm & 31));
    REVEAL_FUSE_LOAD(q1);
    REVEAL_FUSE_RET(q1, rs1 + rs2);
    REVEAL_FUSE_LOAD(q2);
    REVEAL_FUSE_BR(q2, REVEAL_SRS1 < REVEAL_SRS2);
  }

#if !REVEAL_BLOCK_THREADED
  }
#endif

  // Trap exits: the faulting instruction does not retire — counters exclude
  // it and pc_ stays at the fault, exactly like an un-advanced step_impl.
reveal_trap_load:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("load access fault");
  return StopReason::kTrap;

reveal_trap_store:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("store access fault");
  return StopReason::kTrap;

reveal_trap_csr_write:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("unsupported CSR write");
  return StopReason::kTrap;

reveal_trap_csr:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("unsupported CSR");
  return StopReason::kTrap;

#if REVEAL_BLOCK_THREADED
#pragma GCC diagnostic pop
#endif

#undef REVEAL_UOP
#undef REVEAL_FUOP
#undef REVEAL_DISPATCH
#undef REVEAL_FUSE_FIRST
#undef REVEAL_FUSE_ALU_ALU
#undef REVEAL_FUSE_ALU_BRANCH
#undef REVEAL_FUSE_OPS2
#undef REVEAL_FUSE_LOAD
#undef REVEAL_FUSE_EV
#undef REVEAL_FUSE_EVX
#undef REVEAL_FUSE_RET
#undef REVEAL_FUSE_RETX
#undef REVEAL_FUSE_BR
#undef REVEAL_BEGIN
#undef REVEAL_WRITE_RD
#undef REVEAL_RETIRE_NEXT
#undef REVEAL_SRS1
#undef REVEAL_SRS2
#undef REVEAL_IMM_U
#undef REVEAL_ALU
#undef REVEAL_BRANCH
#undef REVEAL_LOAD
#undef REVEAL_STORE
}

}  // namespace reveal::riscv
