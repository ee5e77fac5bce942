#include "smt/cache.hpp"

#include <algorithm>

namespace binsym::smt {

QueryCache::Key QueryCache::key_for(std::span<const ExprRef> assertions) {
  return key_for(assertions, {});
}

QueryCache::Key QueryCache::key_for(std::span<const ExprRef> scoped,
                                    std::span<const ExprRef> assumptions) {
  Key key;
  key.reserve(scoped.size() + assumptions.size());
  for (std::span<const ExprRef> part : {scoped, assumptions}) {
    for (ExprRef assertion : part) {
      if (assertion->is_true()) continue;
      key.push_back(assertion->hash);
    }
  }
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

bool QueryCache::lookup(const Key& key, Entry* out) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (out) *out = it->second;
  return true;
}

void QueryCache::insert(const Key& key, Entry entry) {
  entries_.emplace(key, std::move(entry));
}

}  // namespace binsym::smt
