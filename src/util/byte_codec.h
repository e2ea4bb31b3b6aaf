#ifndef YVER_UTIL_BYTE_CODEC_H_
#define YVER_UTIL_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace yver::util {

/// The byte codec shared by every format the serving stack owns: wire
/// frames (DESIGN.md §12), WAL records (§14) and the `.yvx` index. Four
/// pieces: a little-endian put, a little-endian get, a bounds-checked
/// sequential reader, and 64-bit FNV-1a.
///
/// Integers travel least significant byte first and doubles as their
/// IEEE-754 bit patterns (NaN payloads included). Values are packed byte
/// by byte, so the bytes are the same on every host whatever its byte
/// order — the determinism contract is about bytes, not memory layout.

/// The value types the codec packs: fixed-width unsigned integers and
/// doubles.
template <typename T>
concept LeValue = std::is_same_v<T, uint8_t> || std::is_same_v<T, uint16_t> ||
                  std::is_same_v<T, uint32_t> ||
                  std::is_same_v<T, uint64_t> || std::is_same_v<T, double>;

/// 64-bit FNV-1a, streamed: Update any number of times, then digest().
class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  void Update(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= kPrime;
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = kOffsetBasis;
};

/// FNV-1a of one byte string.
inline uint64_t Fnv1aOf(std::string_view bytes) {
  Fnv1a fnv;
  fnv.Update(bytes.data(), bytes.size());
  return fnv.digest();
}

/// Where PutLe writes: a byte buffer, or an Fnv1a that hashes the bytes
/// without ever materializing them.
inline void AppendBytes(std::string* out, const char* p, size_t n) {
  out->append(p, n);
}
inline void AppendBytes(Fnv1a* out, const char* p, size_t n) {
  out->Update(p, n);
}

/// Little-endian put: appends the sizeof(T) bytes of `v` to `out`. Name
/// the width at the call site (`PutLe<uint32_t>(&out, x)`) — the width is
/// the format.
template <LeValue T, typename Sink>
void PutLe(Sink* out, T v) {
  using Bits = std::conditional_t<std::is_same_v<T, double>, uint64_t, T>;
  Bits bits = std::bit_cast<Bits>(v);
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(bits >> (8 * i));
  }
  AppendBytes(out, bytes, sizeof(T));
}

/// Little-endian get: the T whose sizeof(T) bytes start at `p`. The
/// caller guarantees they are there; ByteReader is the checked form.
template <LeValue T>
T GetLe(const char* p) {
  uint64_t bits = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    bits |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
  }
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<double>(bits);
  } else {
    return static_cast<T>(bits);
  }
}

/// Bounds-checked sequential reader over a byte string it does not own.
/// Every read returns false, consuming nothing, once too few bytes remain,
/// so a decoder checks one boolean chain and fails with one typed status
/// instead of checking a length at every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <LeValue T>
  bool Read(T* v) {
    if (remaining() < sizeof(T)) return false;
    *v = GetLe<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }
  bool ReadBytes(std::string* out, size_t len) {
    if (remaining() < len) return false;
    out->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool Done() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace yver::util

#endif  // YVER_UTIL_BYTE_CODEC_H_
