// Seeded input generation. Everything a workload feeds the engine — keys,
// values, the op stream — is a pure function of the --seed argument, so two
// runs with one seed give the engine identical inputs. The generators live
// here rather than in the engine's src/sim so that an engine change cannot
// change the benchmark's inputs.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

namespace perfbench {

inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// splitmix64: tiny, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// YCSB zipfian over [0, n) with item 0 hottest; NextScrambled() spreads the
/// hot items over the key space with Mix64 (YCSB's scrambled zipfian).
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta, uint64_t seed)
      : n_(n), theta_(theta), rng_(seed) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }

  uint64_t Next() {
    const double u = rng_.Unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return n_ > 1 ? 1 : 0;
    uint64_t v = static_cast<uint64_t>(double(n_) *
                                       std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return v >= n_ ? n_ - 1 : v;
  }
  uint64_t NextScrambled() { return Mix64(Next() + 0x5bd1e995ULL) % n_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  Rng rng_;
};

constexpr size_t kKeyBytes = 8;
constexpr size_t kValueBytes = 64;

/// Slot s is stored under its 8-byte big-endian encoding, so key order is
/// slot order.
inline std::string KeyOf(uint64_t slot) {
  std::string k(kKeyBytes, '\0');
  for (size_t i = 0; i < kKeyBytes; ++i) {
    k[i] = static_cast<char>(slot >> (8 * (kKeyBytes - 1 - i)));
  }
  return k;
}

/// The value written for (slot, version): derived, not stored, so the
/// shadow state is one version number per slot.
inline void ValueOf(uint64_t seed, uint64_t slot, uint32_t version,
                    std::string* out) {
  out->resize(kValueBytes);
  Rng r(Mix64(seed ^ Mix64(slot * 0x100000001b3ULL + version)));
  for (size_t i = 0; i < kValueBytes; i += 8) {
    const uint64_t w = r.Next();
    std::memcpy(out->data() + i, &w, 8);
  }
}

inline std::string ValueOf(uint64_t seed, uint64_t slot, uint32_t version) {
  std::string v;
  ValueOf(seed, slot, version, &v);
  return v;
}

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
