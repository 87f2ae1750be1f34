#include "robust/verdict_cache.h"

#include "util/check.h"

namespace mvrc {

namespace {

// FNV-1a over the bytes, finished with a full-avalanche mix. Seeded so the
// same string hashed under different contexts yields unrelated values.
uint64_t HashBytes(const std::string& bytes, uint64_t seed) {
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return MixBits64(h);
}

// Folds one member hash into both accumulator chains. The two chains are
// structurally different over the same member hashes: both are
// order-sensitive (ascending member order is fixed), and an accidental
// collision must break both simultaneously.
void Absorb(WideFingerprint& fp, uint64_t member) {
  fp.hi = MixBits64(fp.hi ^ member);
  fp.lo = MixBits64(fp.lo + (member | 1) * 0xff51afd7ed558ccdULL);
}

}  // namespace

WideFingerprinter::WideFingerprinter(
    const std::string& context, int method,
    const std::vector<std::pair<std::string, int64_t>>& members) {
  const uint64_t ctx =
      HashBytes(context, MixBits64(0x6d767263ULL + static_cast<uint64_t>(method)));
  seed_hi_ = MixBits64(ctx ^ 0x8f14e45fceea167aULL);
  seed_lo_ = MixBits64(ctx ^ 0x452821e638d01377ULL);
  member_hash_.reserve(members.size());
  for (const auto& [name, revision] : members) {
    // Name and revision both feed the member hash, so a revision bump — the
    // session's "incident edges changed" signal — reseeds every subset
    // containing the member.
    member_hash_.push_back(
        MixBits64(HashBytes(name, ctx) ^ MixBits64(static_cast<uint64_t>(revision))));
  }
}

WideFingerprint WideFingerprinter::Of(const ProgramSet& subset) const {
  MVRC_CHECK_MSG(subset.num_programs() == num_members(),
                 "WideFingerprinter::Of requires a subset over its own member list");
  WideFingerprint fp{seed_hi_, seed_lo_};
  const std::vector<uint64_t>& words = subset.words();
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t rest = words[w]; rest != 0; rest &= rest - 1) {
      Absorb(fp, member_hash_[w * 64 + __builtin_ctzll(rest)]);
    }
  }
  return fp;
}

WideFingerprint WideFingerprinter::Of(uint32_t mask) const {
  MVRC_CHECK_MSG(num_members() <= 32 && (num_members() == 32 || mask >> num_members() == 0),
                 "WideFingerprinter::Of(mask) requires a mask over its own member list");
  WideFingerprint fp{seed_hi_, seed_lo_};
  for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    Absorb(fp, member_hash_[__builtin_ctz(rest)]);
  }
  return fp;
}

std::optional<bool> VerdictCache::Lookup(const WideFingerprint& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = verdicts_.find(fingerprint);
  if (it == verdicts_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void VerdictCache::Store(const WideFingerprint& fingerprint, bool robust) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (verdicts_.size() >= kMaxEntries && !verdicts_.count(fingerprint)) {
    verdicts_.clear();
  }
  verdicts_[fingerprint] = robust;
}

void VerdictCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  verdicts_.clear();
}

size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return verdicts_.size();
}

int64_t VerdictCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int64_t VerdictCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace mvrc
