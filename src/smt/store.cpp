#include "smt/store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace binsym::smt {

namespace {

// "bsymQS" + two format bytes; any mismatch means "not our file".
constexpr uint64_t kMagic = 0x6273796d51530a01ull;

uint64_t fnv1a(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void put_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian reader; any overrun flips `ok` and pins
/// every subsequent read, so decode loops can check once at the end.
struct Reader {
  const std::string& bytes;
  size_t pos = 0;
  bool ok = true;

  bool take(size_t n) {
    if (!ok || bytes.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!take(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos++]))
           << (8 * i);
    return v;
  }
  uint64_t u64() {
    if (!take(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[pos++]))
           << (8 * i);
    return v;
  }
  std::string str() {
    const uint32_t size = u32();
    if (!take(size)) return {};
    std::string s = bytes.substr(pos, size);
    pos += size;
    return s;
  }
};

}  // namespace

std::shared_ptr<SolverStore> SolverStore::open(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; load reports
  auto store = std::shared_ptr<SolverStore>(
      new SolverStore(dir + "/" + kFileName));
  std::ifstream in(store->path_, std::ios::binary);
  if (!in) return store;  // no file yet: clean cold start
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!store->deserialize(buffer.str(), &error)) {
    store->entries_.clear();
    store->load_error_ = error;
  }
  return store;
}

bool SolverStore::lookup(const QueryCache::Key& key, Entry* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  if (out) *out = it->second;
  return true;
}

bool SolverStore::lookup(const QueryCache::Key& key, uint32_t var_count,
                         Entry* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.var_count != var_count) {
    ++misses_;  // a var-count mismatch is a colliding key, not our entry
    return false;
  }
  ++hits_;
  if (out) *out = it->second;
  return true;
}

void SolverStore::insert(const QueryCache::Key& key, Entry entry) {
  if (entry.verdict == CheckResult::kUnknown) return;
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.emplace(key, std::move(entry));  // first verdict wins
}

size_t SolverStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

uint64_t SolverStore::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t SolverStore::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::string SolverStore::serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  put_u64(out, kMagic);
  put_u32(out, kFormatVersion);
  put_u64(out, entries_.size());
  for (const auto& [key, entry] : entries_) {
    put_u32(out, static_cast<uint32_t>(key.size()));
    for (uint64_t hash : key) put_u64(out, hash);
    out.push_back(entry.verdict == CheckResult::kSat ? 1 : 0);
    put_u32(out, entry.var_count);
    put_u32(out, static_cast<uint32_t>(entry.model.size()));
    for (const auto& [name, value] : entry.model) {
      put_string(out, name);
      put_u64(out, value);
    }
  }
  put_u64(out, fnv1a(out.data(), out.size()));
  return out;
}

bool SolverStore::deserialize(const std::string& bytes, std::string* error) {
  auto fail = [&](const char* why) {
    if (error) *error = why;
    return false;
  };
  if (bytes.size() < 8 + 4 + 8 + 8) return fail("file too short");
  const uint64_t checksum = fnv1a(bytes.data(), bytes.size() - 8);
  Reader tail{bytes, bytes.size() - 8};
  if (tail.u64() != checksum) return fail("checksum mismatch");

  Reader r{bytes};
  if (r.u64() != kMagic) return fail("bad magic");
  const uint32_t version = r.u32();
  if (version != kFormatVersion) return fail("format version skew");
  const uint64_t count = r.u64();

  // Length fields are validated against the bytes that could plausibly back
  // them before any allocation — a length that survived the checksum but
  // exceeds the file is corruption, not a 4 GiB resize request.
  auto plausible = [&](const Reader& reader, uint64_t n, size_t elem_size) {
    return n * elem_size <= bytes.size() - reader.pos;
  };
  std::map<QueryCache::Key, Entry> loaded;
  for (uint64_t i = 0; i < count && r.ok; ++i) {
    const uint32_t key_size = r.u32();
    if (!r.ok || !plausible(r, key_size, 8)) return fail("oversized key");
    QueryCache::Key key(key_size);
    for (uint64_t& hash : key) hash = r.u64();
    Entry entry;
    if (!r.take(1)) break;
    entry.verdict =
        bytes[r.pos++] ? CheckResult::kSat : CheckResult::kUnsat;
    entry.var_count = r.u32();
    const uint32_t model_size = r.u32();
    if (!r.ok || !plausible(r, model_size, 12)) return fail("oversized model");
    entry.model.resize(model_size);
    for (auto& [name, value] : entry.model) {
      name = r.str();
      value = r.u64();
    }
    if (r.ok) loaded.emplace(std::move(key), std::move(entry));
  }
  if (!r.ok || r.pos != bytes.size() - 8) return fail("truncated entry data");

  std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(loaded);
  return true;
}

bool SolverStore::flush() {
  const std::string bytes = serialize();
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace binsym::smt
