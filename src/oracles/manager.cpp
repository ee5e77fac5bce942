#include "oracles/manager.hpp"

namespace binsym::oracles {

void OracleManager::add(std::unique_ptr<Oracle> oracle) {
  oracles_.push_back(std::move(oracle));
}

bool OracleManager::parse_spec(const std::string& spec,
                               std::vector<core::OracleKind>* kinds,
                               std::string* error) {
  kinds->clear();
  if (spec == "all") {
    for (uint8_t k = 0;
         k < static_cast<uint8_t>(core::OracleKind::kNumOracleKinds); ++k)
      kinds->push_back(static_cast<core::OracleKind>(k));
    return true;
  }
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string name = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!name.empty()) {
      core::OracleKind kind = core::oracle_kind_from_name(name);
      if (kind == core::OracleKind::kNumOracleKinds) {
        if (error) *error = "unknown oracle '" + name + "'";
        return false;
      }
      kinds->push_back(kind);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (kinds->empty()) {
    if (error) *error = "empty oracle list";
    return false;
  }
  return true;
}

std::unique_ptr<OracleManager> OracleManager::make(smt::Context& ctx,
                                                   MemoryMap map,
                                                   const std::string& spec,
                                                   std::string* error) {
  std::vector<core::OracleKind> kinds;
  if (!parse_spec(spec, &kinds, error)) return nullptr;
  auto manager = std::make_unique<OracleManager>(ctx, std::move(map));
  for (core::OracleKind kind : kinds) manager->add(make_oracle(kind));
  return manager;
}

void OracleManager::hit(core::OracleKind kind, smt::ExprRef expr,
                        std::string detail) {
  if (!trace_) return;
  uint64_t key = core::finding_key(kind, pc_, call_depth());
  if (!run_.seen_hits.insert(key).second) return;  // loop iterations collapse
  trace_->oracle_hits.push_back(
      core::OracleHit{kind, pc_, call_depth(), expr, std::move(detail)});
}

void OracleManager::candidate(core::OracleKind kind, smt::ExprRef cond,
                              smt::ExprRef expr, std::string detail) {
  if (!trace_ || !cond) return;
  if (cond->is_false()) return;  // builder already refuted it
  if (!run_.seen_cands
           .insert({core::finding_key(kind, pc_, call_depth()), cond->id})
           .second)
    return;
  trace_->oracle_candidates.push_back(core::OracleCandidate{
      kind, pc_, call_depth(), cond, expr, trace_->branches.size(),
      trace_->assumptions.size(), std::move(detail)});
}

void OracleManager::begin_run(core::PathTrace& trace) {
  trace_ = &trace;
  run_ = RunState{};
}

void OracleManager::on_instruction(uint32_t pc, const isa::Decoded& decoded) {
  pc_ = pc;
  size_ = decoded.size;
  id_ = decoded.id();
  // Operand fields are format-checked; read only what the classified
  // opcodes define.
  if (id_ == isa::kJAL) {
    rd_ = decoded.rd();
    rs1_ = 0;
    imm_ = 0;
  } else if (id_ == isa::kJALR) {
    rd_ = decoded.rd();
    rs1_ = decoded.rs1();
    imm_ = static_cast<int32_t>(decoded.immediate());
  }
}

void OracleManager::on_load(const interp::SymValue& addr, unsigned bytes) {
  MemEvent event{/*store=*/false, addr, bytes, nullptr};
  for (auto& oracle : oracles_) oracle->on_mem(event, *this);
}

void OracleManager::on_store(const interp::SymValue& addr, unsigned bytes,
                             const interp::SymValue& value) {
  MemEvent event{/*store=*/true, addr, bytes, &value};
  for (auto& oracle : oracles_) oracle->on_mem(event, *this);
}

void OracleManager::on_jump(const interp::SymValue& target) {
  // WritePC fires for every non-fallthrough transfer; classify by the
  // executing instruction. Taken branches and direct jumps have concrete,
  // link-time targets — only jal maintains the shadow stack, only jalr
  // reaches the jump oracles.
  if (id_ == isa::kJAL) {
    if (rd_ == 1) run_.shadow.push_back(pc_ + size_);
    return;
  }
  if (id_ != isa::kJALR) return;

  const bool is_return = rd_ == 0 && rs1_ == 1 && imm_ == 0;
  if (is_return) {
    JumpEvent event{target, 0, false};
    if (!run_.shadow.empty()) {
      event.expected_return = run_.shadow.back();
      event.have_expected = true;
    }
    // call_depth() during dispatch is the callee's depth (pre-pop), so a
    // smashed return dedups against re-detections of the same frame.
    for (auto& oracle : oracles_) oracle->on_return(event, *this);
    if (!run_.shadow.empty()) run_.shadow.pop_back();
    return;
  }

  JumpEvent event{target, 0, false};
  for (auto& oracle : oracles_) oracle->on_indirect_jump(event, *this);
  if (rd_ == 1) run_.shadow.push_back(pc_ + size_);  // indirect call
}

void OracleManager::on_branch(const interp::SymValue& cond, bool taken) {
  for (auto& oracle : oracles_) oracle->on_guard(cond, taken, *this);
}

void OracleManager::on_binop(dsl::ExprOp op, const interp::SymValue& a,
                             const interp::SymValue& b) {
  for (auto& oracle : oracles_) oracle->on_binop(op, a, b, *this);
}

void OracleManager::on_assert(const interp::SymValue& cond, uint32_t id) {
  for (auto& oracle : oracles_) oracle->on_assert(cond, id, *this);
}

void OracleManager::on_reach(uint32_t id) {
  for (auto& oracle : oracles_) oracle->on_reach(id, *this);
}

}  // namespace binsym::oracles
