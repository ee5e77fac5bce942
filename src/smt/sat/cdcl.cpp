#include "smt/sat/cdcl.hpp"

#include <algorithm>
#include <cassert>
#include <initializer_list>

namespace binsym::smt::sat {

Var CdclSolver::new_var(bool decision) {
  Var var = static_cast<Var>(activity_.size());
  assigns_.push_back(-1);
  reason_.push_back(kUndef);
  level_.push_back(0);
  activity_.push_back(0.0);
  phase_.push_back(false);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  decision_.push_back(decision);
  watches_.emplace_back();
  watches_.emplace_back();
  if (decision) heap_insert(var);
  return var;
}

bool CdclSolver::add_clause(std::vector<Lit> lits) {
  if (unsat_) return false;
  backtrack(0);

  // Root-level simplification: drop false literals, detect tautologies and
  // already-satisfied clauses, deduplicate.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> simplified;
  for (size_t i = 0; i < lits.size(); ++i) {
    Lit lit = lits[i];
    if (i + 1 < lits.size() && lits[i + 1] == lit_not(lit)) return true;  // tautology
    if (i > 0 && lits[i - 1] == lit) continue;  // duplicate
    int8_t v = lit_value(lit);
    if (v == 1) return true;   // satisfied at root
    if (v == 0) continue;      // falsified at root: drop
    simplified.push_back(lit);
  }

  if (simplified.empty()) {
    unsat_ = true;
    return false;
  }
  if (simplified.size() == 1) {
    enqueue(simplified[0], kUndef);
    if (propagate() != kUndef) {
      unsat_ = true;
      return false;
    }
    return true;
  }

  clauses_.push_back(Clause{std::move(simplified), false});
  attach(static_cast<int>(clauses_.size()) - 1);
  return true;
}

void CdclSolver::attach(int clause_index) {
  const Clause& clause = clauses_[clause_index];
  watches_[clause.lits[0]].push_back(clause_index);
  watches_[clause.lits[1]].push_back(clause_index);
}

void CdclSolver::enqueue(Lit lit, int reason) {
  Var var = lit_var(lit);
  assert(assigns_[var] == -1);
  assigns_[var] = lit_negated(lit) ? 0 : 1;
  phase_[var] = !lit_negated(lit);
  reason_[var] = reason;
  level_[var] = static_cast<int>(trail_lim_.size());
  trail_.push_back(lit);
}

int CdclSolver::propagate() {
  while (propagate_head_ < trail_.size()) {
    Lit lit = trail_[propagate_head_++];
    ++stats_.propagations;
    // Clauses watching ¬lit need a new watch or become unit/conflicting.
    Lit falsified = lit_not(lit);
    std::vector<int>& watch_list = watches_[falsified];
    size_t kept = 0;
    for (size_t i = 0; i < watch_list.size(); ++i) {
      int clause_index = watch_list[i];
      Clause& clause = clauses_[clause_index];
      // Normalize: watched literals are lits[0] and lits[1].
      if (clause.lits[0] == falsified)
        std::swap(clause.lits[0], clause.lits[1]);
      assert(clause.lits[1] == falsified);

      if (lit_value(clause.lits[0]) == 1) {
        watch_list[kept++] = clause_index;  // already satisfied
        continue;
      }
      // Find a replacement watch.
      bool moved = false;
      for (size_t k = 2; k < clause.lits.size(); ++k) {
        if (lit_value(clause.lits[k]) != 0) {
          std::swap(clause.lits[1], clause.lits[k]);
          watches_[clause.lits[1]].push_back(clause_index);
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Unit or conflict.
      watch_list[kept++] = clause_index;
      if (lit_value(clause.lits[0]) == 0) {
        // Conflict: restore the untouched suffix of the watch list.
        for (size_t k = i + 1; k < watch_list.size(); ++k)
          watch_list[kept++] = watch_list[k];
        watch_list.resize(kept);
        return clause_index;
      }
      enqueue(clause.lits[0], clause_index);
    }
    watch_list.resize(kept);
  }
  return kUndef;
}

void CdclSolver::bump_var(Var var) {
  activity_[var] += activity_inc_;
  if (activity_[var] > 1e100) {
    // Uniform rescaling keeps the heap order.
    for (double& a : activity_) a *= 1e-100;
    activity_inc_ *= 1e-100;
  }
  if (heap_pos_[var] >= 0) heap_up(static_cast<size_t>(heap_pos_[var]));
}

void CdclSolver::decay_activities() { activity_inc_ /= 0.95; }

void CdclSolver::analyze(int conflict, std::vector<Lit>* learned,
                         int* backjump_level) {
  // First-UIP scheme.
  learned->clear();
  learned->push_back(0);  // slot for the asserting literal
  int counter = 0;
  Lit asserting = 0;
  bool first_round = true;
  size_t trail_index = trail_.size();
  int current_level = static_cast<int>(trail_lim_.size());

  int reason = conflict;
  for (;;) {
    assert(reason != kUndef);
    const Clause& clause = clauses_[reason];
    // Skip lits[0] on non-initial rounds: it is the literal being resolved.
    for (size_t i = (first_round ? 0 : 1); i < clause.lits.size(); ++i) {
      Lit lit = clause.lits[i];
      Var var = lit_var(lit);
      if (seen_[var] || level_[var] == 0) continue;
      seen_[var] = 1;
      bump_var(var);
      if (level_[var] == current_level) {
        ++counter;
      } else {
        learned->push_back(lit);
      }
    }
    first_round = false;
    // Walk the trail to the next marked literal.
    while (!seen_[lit_var(trail_[trail_index - 1])]) --trail_index;
    --trail_index;
    asserting = trail_[trail_index];
    seen_[lit_var(asserting)] = 0;
    --counter;
    if (counter == 0) break;
    reason = reason_[lit_var(asserting)];
  }
  (*learned)[0] = lit_not(asserting);
  // Current-level marks were cleared as they were resolved; clear the rest.
  for (size_t i = 1; i < learned->size(); ++i) seen_[lit_var((*learned)[i])] = 0;

  // Backjump to the second-highest level in the learned clause.
  *backjump_level = 0;
  for (size_t i = 1; i < learned->size(); ++i) {
    *backjump_level = std::max(*backjump_level, level_[lit_var((*learned)[i])]);
    // Keep the highest-level literal in slot 1 (watch invariant).
    if (level_[lit_var((*learned)[i])] > level_[lit_var((*learned)[1])])
      std::swap((*learned)[1], (*learned)[i]);
  }
}

void CdclSolver::backtrack(int target_level) {
  if (static_cast<int>(trail_lim_.size()) <= target_level) return;
  size_t keep = trail_lim_[target_level];
  for (size_t i = trail_.size(); i > keep; --i) {
    Var var = lit_var(trail_[i - 1]);
    assigns_[var] = -1;
    reason_[var] = kUndef;
    if (decision_[var] && heap_pos_[var] < 0) heap_insert(var);
  }
  trail_.resize(keep);
  trail_lim_.resize(target_level);
  propagate_head_ = keep;
}

Lit CdclSolver::pick_branch() {
  // Assigned variables stay in the heap until they surface here.
  while (!heap_.empty()) {
    Var var = heap_pop();
    if (assigns_[var] == -1) return make_lit(var, !phase_[var]);
  }
  return kUndef;
}

void CdclSolver::heap_insert(Var var) {
  heap_pos_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_up(heap_.size() - 1);
}

void CdclSolver::heap_up(size_t pos) {
  Var var = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!heap_before(var, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = static_cast<int>(pos);
    pos = parent;
  }
  heap_[pos] = var;
  heap_pos_[var] = static_cast<int>(pos);
}

void CdclSolver::heap_down(size_t pos) {
  Var var = heap_[pos];
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_before(heap_[child + 1], heap_[child]))
      ++child;
    if (!heap_before(heap_[child], var)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = static_cast<int>(pos);
    pos = child;
  }
  heap_[pos] = var;
  heap_pos_[var] = static_cast<int>(pos);
}

Var CdclSolver::heap_pop() {
  Var top = heap_.front();
  heap_pos_[top] = -1;
  Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_down(0);
  }
  return top;
}

SatResult CdclSolver::solve(std::span<const Lit> assumptions) {
  if (unsat_) return SatResult::kUnsat;
  // Level i+1 holds assumption i and what it implied, so the levels of the
  // assumptions this call shares with the last one stay as they are (an
  // add_clause() in between has backtracked to level 0 already).
  size_t keep = 0;
  const size_t shared =
      std::min({static_cast<size_t>(decision_level()), assumptions.size(),
                last_assumptions_.size()});
  while (keep < shared && assumptions[keep] == last_assumptions_[keep]) ++keep;
  backtrack(static_cast<int>(keep));
  last_assumptions_.assign(assumptions.begin(), assumptions.end());

  uint64_t conflicts_until_restart = 100;
  uint64_t conflicts_since_restart = 0;
  uint64_t ticks = 0;
  std::vector<Lit> learned;

  for (;;) {
    // Deadline probe: every 64 search-loop iterations (each iteration is
    // one propagation burst plus a conflict or a decision, so the clock
    // read is amortized to noise). kUnknown
    // leaves the solver state valid but the search unfinished; callers must
    // not read a model.
    if ((++ticks & 0x3f) == 0) {
      if (deadline_ && std::chrono::steady_clock::now() >= *deadline_)
        return SatResult::kUnknown;
    }
    int conflict = propagate();
    if (conflict != kUndef) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        unsat_ = true;
        return SatResult::kUnsat;
      }
      int backjump_level = 0;
      analyze(conflict, &learned, &backjump_level);
      backtrack(backjump_level);
      if (learned.size() == 1) {
        enqueue(learned[0], kUndef);
      } else {
        clauses_.push_back(Clause{learned, true});
        ++stats_.learned_clauses;
        attach(static_cast<int>(clauses_.size()) - 1);
        enqueue(learned[0], static_cast<int>(clauses_.size()) - 1);
      }
      decay_activities();
      continue;
    }

    if (conflicts_since_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      conflicts_since_restart = 0;
      conflicts_until_restart =
          conflicts_until_restart + conflicts_until_restart / 2;
      backtrack(0);
      continue;
    }

    // Pending assumptions come first, one level each. One already true
    // gets an empty level, so level i+1 always belongs to assumption i.
    Lit decision = kUndef;
    while (decision_level() < static_cast<int>(assumptions.size())) {
      Lit assumption = assumptions[decision_level()];
      int8_t v = lit_value(assumption);
      if (v == 0) return SatResult::kUnsat;  // refuted under the assumptions
      if (v == -1) {
        decision = assumption;
        break;
      }
      trail_lim_.push_back(static_cast<int>(trail_.size()));
    }
    if (decision == kUndef) decision = pick_branch();
    if (decision == kUndef) return SatResult::kSat;  // decisions exhausted
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(decision, kUndef);
  }
}

}  // namespace binsym::smt::sat
